// Copyright 2026 The DOD Authors.
//
// The kernel exactness contract: scalar, blocked and AVX2 kernels return
// bit-identical results on every input — dimensions 1..kMaxDimensions,
// sizes straddling block boundaries, ties at exactly r, NaN/infinity
// coordinates — and every detector produces the same outlier set under
// --kernels=scalar and --kernels=auto, for any thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/distance.h"
#include "common/random.h"
#include "core/parameter_advisor.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "data/tiger_like.h"
#include "detection/brute_force.h"
#include "detection/cell_based.h"
#include "detection/nested_loop.h"
#include "extensions/dbscan.h"
#include "kernels/distance_kernels.h"
#include "kernels/soa_block.h"

namespace dod {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Every implementation compiled into this binary and usable on this CPU.
std::vector<const KernelOps*> AvailableImpls() {
  std::vector<const KernelOps*> impls = {GetKernelOpsByName("scalar"),
                                         GetKernelOpsByName("blocked")};
  if (const KernelOps* avx2 = GetKernelOpsByName("avx2")) {
    impls.push_back(avx2);
  }
  return impls;
}

Dataset RandomDataset(int dims, size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset data(dims);
  Point p(dims);
  for (size_t i = 0; i < n; ++i) {
    for (int d = 0; d < dims; ++d) p[d] = rng.NextUniform(0.0, 10.0);
    data.Append(p);
    // Sprinkle exact duplicates so self-exclusion by id matters.
    if (i % 17 == 3) data.Append(p);
  }
  return data;
}

// Sizes around the block width: empty, partial, exact, width±1, multiple.
const size_t kBoundarySizes[] = {0,  1,  kSoaWidth - 1, kSoaWidth,
                                 kSoaWidth + 1, 2 * kSoaWidth - 1,
                                 2 * kSoaWidth, 2 * kSoaWidth + 1, 33};

TEST(SoABlockTest, LayoutAndPadding) {
  SoABlock block(3);
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(block.num_blocks(), 0u);
  const double p0[] = {1.0, 2.0, 3.0};
  const double p1[] = {4.0, 5.0, 6.0};
  block.Append(p0, 7);
  block.Append(p1, 9);
  EXPECT_EQ(block.size(), 2u);
  EXPECT_EQ(block.num_blocks(), 1u);
  EXPECT_EQ(block.Lane(0, 0)[0], 1.0);
  EXPECT_EQ(block.Lane(0, 0)[1], 4.0);
  EXPECT_EQ(block.Lane(0, 2)[1], 6.0);
  EXPECT_EQ(block.IdAt(0), 7u);
  EXPECT_EQ(block.Ids(0)[1], 9u);
  // Pad slots: +inf coordinates, invalid id.
  for (size_t s = 2; s < kSoaWidth; ++s) {
    EXPECT_EQ(block.Lane(0, 1)[s], kInf);
    EXPECT_EQ(block.Ids(0)[s], kSoaInvalidId);
  }
}

// Every slot of both buffers, pad slots included.
void ExpectSameSlots(const SoABlock& got, const SoABlock& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  ASSERT_EQ(got.num_blocks(), want.num_blocks()) << label;
  for (size_t block = 0; block < got.num_blocks(); ++block) {
    for (size_t s = 0; s < kSoaWidth; ++s) {
      EXPECT_EQ(got.Ids(block)[s], want.Ids(block)[s])
          << label << " block " << block << " slot " << s;
      for (int d = 0; d < got.dims(); ++d) {
        EXPECT_EQ(got.Lane(block, d)[s], want.Lane(block, d)[s])
            << label << " block " << block << " slot " << s << " dim " << d;
      }
    }
  }
}

TEST(SoABlockTest, AppendGatheredMatchesPerPointAppend) {
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    const Dataset data = RandomDataset(dims, 1100, 300 + dims);
    Rng rng(400 + dims);
    // Scattered ids, as a cell's ids arrive after the shuffle.
    const std::vector<uint32_t> ids = RandomPermutation(data.size(), rng);
    for (size_t n : {0, 1, 7, 8, 9, 1000}) {
      for (bool align : {true, false}) {
        const std::string label = "dims " + std::to_string(dims) + " n " +
                                  std::to_string(n) +
                                  (align ? " aligned" : " mid-block");
        const std::vector<uint32_t> order = RandomPermutation(n, rng);
        SoABlock gathered(dims);
        SoABlock reference(dims);
        // A buffer that already holds blocks: 11 points, then (optionally)
        // a block boundary, as the arena does between cells.
        for (SoABlock* block : {&gathered, &reference}) {
          for (uint32_t i = 0; i < 11; ++i) block->Append(data[ids[i]], i);
          if (align) block->AlignToBlock();
        }
        const size_t begin = reference.size();
        gathered.AppendGathered(data, ids.data(), order.data(), n);
        for (uint32_t local : order) reference.Append(data[ids[local]], local);
        ExpectSameSlots(gathered, reference, label);
        // Pad slots past the last point keep +inf and the invalid id.
        for (size_t slot = gathered.size();
             slot < gathered.num_blocks() * kSoaWidth; ++slot) {
          EXPECT_EQ(gathered.IdAt(slot), kSoaInvalidId) << label;
          for (int d = 0; d < dims; ++d) {
            EXPECT_EQ(gathered.Lane(slot / kSoaWidth, d)[slot % kSoaWidth],
                      kSoaPadCoordinate)
                << label;
          }
        }
        EXPECT_EQ(gathered.size(), begin + n) << label;
      }
    }
  }
}

TEST(DistanceKernelsTest, ImplsAgreeOnRandomData) {
  const std::vector<const KernelOps*> impls = AvailableImpls();
  const KernelOps& scalar = *impls[0];
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    for (size_t n : kBoundarySizes) {
      const Dataset data = RandomDataset(dims, n, 1000u * dims + n);
      SoABlock soa(dims);
      soa.Assign(data);
      Rng rng(77u * dims + n);
      Point q(dims);
      for (int trial = 0; trial < 8; ++trial) {
        for (int d = 0; d < dims; ++d) q[d] = rng.NextUniform(0.0, 10.0);
        const double sq_radius =
            trial % 2 == 0 ? rng.NextUniform(0.5, 16.0) : 2.0;
        // slot j holds point j, so the skip is both an id (range_mask) and
        // a position (the count); data.size() matches no slot.
        const uint32_t skip =
            data.empty() ? kSoaInvalidId
                         : static_cast<uint32_t>(rng.NextBounded(
                               data.size() + 1));
        const size_t skip_slot = data.empty() ? kNoSkipSlot : skip;
        const size_t begin = data.empty() ? 0 : rng.NextBounded(data.size());
        const size_t end =
            begin + (data.size() > begin
                         ? rng.NextBounded(data.size() - begin + 1)
                         : 0);

        uint64_t scalar_pairs = 0;
        const int want_count = scalar.count_within_radius(
            soa, begin, end, q.data(), sq_radius, skip_slot, -1,
            &scalar_pairs);
        std::vector<uint32_t> want_mask;
        scalar.range_mask(soa, q.data(), sq_radius, skip, &want_mask,
                          nullptr);
        const double want_min =
            scalar.min_squared_distance(soa, q.data(), nullptr);
        std::vector<double> want_dists(data.size());
        scalar.squared_distances(soa, q.data(), want_dists.data(), nullptr);

        for (const KernelOps* ops : impls) {
          SCOPED_TRACE(std::string("impl=") + ops->name);
          uint64_t pairs = 0;
          EXPECT_EQ(ops->count_within_radius(soa, begin, end, q.data(),
                                             sq_radius, skip_slot, -1, &pairs),
                    want_count);
          // Uncapped kernels evaluate every non-skipped pair in range.
          EXPECT_EQ(pairs, scalar_pairs);
          // Capped: the verdict (count >= cap) must agree even though the
          // batched count may overshoot within a block.
          for (int cap : {1, 2, want_count, want_count + 1}) {
            if (cap < 0) continue;
            const int capped = ops->count_within_radius(
                soa, begin, end, q.data(), sq_radius, skip_slot, cap,
                nullptr);
            EXPECT_EQ(capped >= cap, want_count >= cap) << "cap=" << cap;
            if (capped < cap) {
              EXPECT_EQ(capped, want_count);
            }
          }
          std::vector<uint32_t> mask;
          ops->range_mask(soa, q.data(), sq_radius, skip, &mask, nullptr);
          EXPECT_EQ(mask, want_mask);
          const double min = ops->min_squared_distance(soa, q.data(), nullptr);
          EXPECT_TRUE(min == want_min || (std::isnan(min) && std::isnan(want_min)));
          std::vector<double> dists(data.size());
          ops->squared_distances(soa, q.data(), dists.data(), nullptr);
          for (size_t j = 0; j < data.size(); ++j) {
            EXPECT_TRUE(dists[j] == want_dists[j] ||
                        (std::isnan(dists[j]) && std::isnan(want_dists[j])))
                << "slot " << j;
          }
        }
      }
    }
  }
}

// Coordinates of `slot`, read from its lanes.
Point SlotPoint(const SoABlock& soa, size_t slot) {
  Point p(soa.dims());
  for (int d = 0; d < soa.dims(); ++d) {
    p[d] = soa.Lane(slot / kSoaWidth, d)[slot % kSoaWidth];
  }
  return p;
}

struct CountAndPairs {
  int count = 0;
  uint64_t pairs = 0;
};

// The count_within_radius contract, one pair at a time over the squared
// distances `d2` of every slot: every slot of [begin, end) but skip_slot is
// evaluated until the cap is reached. Scalar checks the cap after every
// hit; the batched schedule checks it at every block end (and so stops at
// the end of the block that reached it).
CountAndPairs ReferenceCount(const std::vector<double>& d2, size_t begin,
                             size_t end, double sq_radius, size_t skip_slot,
                             int cap, bool batched) {
  CountAndPairs ref;
  if (cap == 0) return ref;
  for (size_t slot = begin; slot < end; ++slot) {
    if (slot != skip_slot) {
      ++ref.pairs;
      if (d2[slot] <= sq_radius) {
        ++ref.count;
        if (!batched && cap >= 0 && ref.count >= cap) break;
      }
    }
    if (batched && cap >= 0 && (slot + 1) % kSoaWidth == 0 &&
        ref.count >= cap) {
      break;
    }
  }
  return ref;
}

TEST(DistanceKernelsTest, CountMatchesAPerPairReferenceOnEveryAxis) {
  // Every implementation against ReferenceCount, count and pairs alike:
  // dims 1..8; begin and end on and off block boundaries; the skip slot
  // absent, in the head, an interior or the tail block, or outside the
  // range; every cap from 0 to one past the full count; integer
  // coordinates with an integer radius (ties at exactly r) and uniform
  // ones; and queries read from the buffer's own slots, including a NaN
  // and an infinite one.
  const std::vector<const KernelOps*> impls = AvailableImpls();
  constexpr size_t kSlots = 7 * kSoaWidth + 3;
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    for (bool ties : {true, false}) {
      Rng rng(6151u * dims + (ties ? 1 : 0));
      SoABlock soa(dims);
      Point p(dims);
      for (size_t slot = 0; slot < kSlots; ++slot) {
        for (int d = 0; d < dims; ++d) {
          p[d] = ties ? static_cast<double>(rng.NextBounded(4))
                      : rng.NextUniform(0.0, 4.0);
        }
        if (slot == 2 * kSoaWidth + 1) p[dims - 1] = kNaN;
        if (slot == 4 * kSoaWidth + 6) p[0] = kInf;
        soa.Append(p.data(), static_cast<uint32_t>(slot));
      }
      const double sq_radius = ties ? 2.0 : rng.NextUniform(1.0, 3.0);
      const size_t query_slots[] = {5, 2 * kSoaWidth + 1, 4 * kSoaWidth + 6,
                                    kSlots - 1};
      const size_t begins[] = {0, 3, kSoaWidth, kSoaWidth + 5};
      for (size_t begin : begins) {
        const size_t ends[] = {begin,       begin + 2,   begin + kSoaWidth,
                               kSlots - 11, kSlots - 8, kSlots};
        for (size_t end : ends) {
          // None, head, interior, tail, outside the range.
          const size_t interior = (begin / kSoaWidth + 2) * kSoaWidth + 3;
          const size_t skips[] = {
              kNoSkipSlot, begin, interior < end ? interior : begin + 1,
              end == 0 ? 0 : end - 1, begin == 0 ? end : begin - 1};
          for (size_t query_slot : query_slots) {
            const Point q = SlotPoint(soa, query_slot);
            std::vector<double> d2(kSlots);
            for (size_t slot = 0; slot < kSlots; ++slot) {
              d2[slot] =
                  SquaredEuclidean(q.data(), SlotPoint(soa, slot).data(), dims);
            }
            for (size_t skip : skips) {
              const int total =
                  ReferenceCount(d2, begin, end, sq_radius, skip, -1, false)
                      .count;
              for (int cap = -1; cap <= total + 1; ++cap) {
                const CountAndPairs per_pair =
                    ReferenceCount(d2, begin, end, sq_radius, skip, cap, false);
                const CountAndPairs per_block =
                    ReferenceCount(d2, begin, end, sq_radius, skip, cap, true);
                for (const KernelOps* ops : impls) {
                  const CountAndPairs& want =
                      ops == impls.front() ? per_pair : per_block;
                  uint64_t pairs = 0;
                  const int got = ops->count_within_radius(
                      soa, begin, end, q.data(), sq_radius, skip, cap,
                      &pairs);
                  ASSERT_EQ(got, want.count)
                      << ops->name << " dims=" << dims << " ties=" << ties
                      << " [" << begin << ", " << end << ") query "
                      << query_slot << " skip=" << skip << " cap=" << cap;
                  ASSERT_EQ(pairs, want.pairs)
                      << ops->name << " dims=" << dims << " ties=" << ties
                      << " [" << begin << ", " << end << ") query "
                      << query_slot << " skip=" << skip << " cap=" << cap;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(DistanceKernelsTest, TileRowAndColumnCountsMatchAPairLoop) {
  // The tile entry adds, per query row, its neighbors in the segment and,
  // per segment slot, the query rows within r — on top of what the arrays
  // already hold, bit-identical across implementations and equal to a
  // plain pair loop. Integer coordinates with an integer squared radius
  // put many pairs at exactly r.
  const std::vector<const KernelOps*> impls = AvailableImpls();
  const size_t kQueryCounts[] = {1, 2, kSoaWidth - 1, kSoaWidth, 9, 33, 64};
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    for (size_t n : kBoundarySizes) {
      for (size_t num_queries : kQueryCounts) {
        const bool ties = (n + num_queries) % 2 == 0;
        Rng rng(4099u * dims + 31u * n + num_queries);
        const auto coordinate = [&] {
          return ties ? static_cast<double>(rng.NextBounded(4))
                      : rng.NextUniform(0.0, 6.0);
        };
        // A few points ahead of the segment so it starts off a block
        // boundary, then the segment itself.
        const size_t begin = n % 3;
        SoABlock soa(dims);
        std::vector<double> rows((begin + n) * dims);
        for (size_t j = 0; j < begin + n; ++j) {
          for (int d = 0; d < dims; ++d) rows[j * dims + d] = coordinate();
          soa.Append(rows.data() + j * dims, static_cast<uint32_t>(j));
        }
        const size_t end = begin + n;
        std::vector<double> queries(num_queries * dims);
        for (double& c : queries) c = coordinate();
        const double sq_radius = ties ? 4.0 : rng.NextUniform(1.0, 9.0);

        std::vector<uint32_t> want_rows(num_queries);
        std::vector<uint32_t> want_cols(n);
        for (size_t i = 0; i < num_queries; ++i) want_rows[i] = 7 + i;
        for (size_t j = 0; j < n; ++j) want_cols[j] = 3 + j;
        for (size_t i = 0; i < num_queries; ++i) {
          for (size_t j = begin; j < end; ++j) {
            if (SquaredEuclidean(queries.data() + i * dims,
                                 rows.data() + j * dims, dims) <= sq_radius) {
              ++want_rows[i];
              ++want_cols[j - begin];
            }
          }
        }
        for (const KernelOps* ops : impls) {
          SCOPED_TRACE(std::string("impl=") + ops->name + " dims=" +
                       std::to_string(dims) + " n=" + std::to_string(n) +
                       " queries=" + std::to_string(num_queries));
          std::vector<uint32_t> got_rows(num_queries);
          std::vector<uint32_t> got_cols(n);
          for (size_t i = 0; i < num_queries; ++i) got_rows[i] = 7 + i;
          for (size_t j = 0; j < n; ++j) got_cols[j] = 3 + j;
          ops->count_tile_within_radius(soa, begin, end, queries.data(),
                                        num_queries, sq_radius,
                                        got_rows.data(), got_cols.data());
          EXPECT_EQ(got_rows, want_rows);
          EXPECT_EQ(got_cols, want_cols);
          // Rows only: the same row counts, no column array touched.
          for (size_t i = 0; i < num_queries; ++i) got_rows[i] = 7 + i;
          ops->count_tile_within_radius(soa, begin, end, queries.data(),
                                        num_queries, sq_radius,
                                        got_rows.data(),
                                        /*col_counts=*/nullptr);
          EXPECT_EQ(got_rows, want_rows);
        }
      }
    }
  }
}

TEST(DistanceKernelsTest, TieAtExactlyRadiusIsANeighbor) {
  // 1-d points at distance exactly r: d² == r² must count in every impl.
  SoABlock soa(1);
  for (uint32_t i = 0; i < kSoaWidth + 3; ++i) {
    const double coord = 3.0 + static_cast<double>(i);  // q at 0, r = 3+i
    soa.Append(&coord, i);
  }
  const double q = 0.0;
  for (const KernelOps* ops : AvailableImpls()) {
    SCOPED_TRACE(std::string("impl=") + ops->name);
    // r = 3: exactly one point at distance exactly 3, none closer.
    EXPECT_EQ(ops->count_within_radius(soa, 0, soa.size(), &q, 9.0,
                                       kNoSkipSlot, -1, nullptr),
              1);
    std::vector<uint32_t> mask;
    ops->range_mask(soa, &q, 9.0, kSoaInvalidId, &mask, nullptr);
    EXPECT_EQ(mask, (std::vector<uint32_t>{0}));
    EXPECT_EQ(ops->min_squared_distance(soa, &q, nullptr), 9.0);
  }
}

TEST(DistanceKernelsTest, NaNCoordinatesAreExcludedEverywhere) {
  SoABlock soa(2);
  const double good[] = {1.0, 0.0};
  const double nan_point[] = {kNaN, 0.0};
  const double inf_point[] = {kInf, 0.0};
  soa.Append(good, 0);
  soa.Append(nan_point, 1);
  soa.Append(inf_point, 2);
  const double q[] = {0.0, 0.0};
  for (const KernelOps* ops : AvailableImpls()) {
    SCOPED_TRACE(std::string("impl=") + ops->name);
    // Huge radius: the NaN point still never matches; the +inf point's
    // distance is +inf, beyond any finite radius.
    EXPECT_EQ(ops->count_within_radius(soa, 0, soa.size(), q, 1e300,
                                       kNoSkipSlot, -1, nullptr),
              1);
    std::vector<uint32_t> mask;
    ops->range_mask(soa, q, 1e300, kSoaInvalidId, &mask, nullptr);
    EXPECT_EQ(mask, (std::vector<uint32_t>{0}));
    EXPECT_EQ(ops->min_squared_distance(soa, q, nullptr), 1.0);
    double dists[3];
    ops->squared_distances(soa, q, dists, nullptr);
    EXPECT_EQ(dists[0], 1.0);
    EXPECT_TRUE(std::isnan(dists[1]));
    EXPECT_EQ(dists[2], kInf);
  }
}

TEST(DistanceKernelsTest, NonFiniteQueryAgainstPadSlots) {
  // A +inf query coordinate turns pad-slot distances into NaN; no impl may
  // count or report a pad slot regardless.
  SoABlock soa(1);
  const double c = 1.0;
  soa.Append(&c, 0);  // one real slot, kSoaWidth-1 pads
  const double q = kInf;
  for (const KernelOps* ops : AvailableImpls()) {
    SCOPED_TRACE(std::string("impl=") + ops->name);
    EXPECT_EQ(ops->count_within_radius(soa, 0, soa.size(), &q, 1e300,
                                       kNoSkipSlot, -1, nullptr),
              0);
    std::vector<uint32_t> mask;
    ops->range_mask(soa, &q, 1e300, kSoaInvalidId, &mask, nullptr);
    EXPECT_TRUE(mask.empty());
    EXPECT_EQ(ops->min_squared_distance(soa, &q, nullptr), kInf);
  }
}

TEST(DistanceKernelsTest, DispatchAndParsing) {
  EXPECT_STREQ(GetKernelOps(KernelMode::kScalar).name, "scalar");
  const KernelOps& auto_ops = GetKernelOps(KernelMode::kAuto);
  if (Avx2KernelsAvailable()) {
    EXPECT_STREQ(auto_ops.name, "avx2");
  } else {
    EXPECT_STREQ(auto_ops.name, "blocked");
  }
  KernelMode mode;
  EXPECT_TRUE(ParseKernelMode("scalar", &mode));
  EXPECT_EQ(mode, KernelMode::kScalar);
  EXPECT_TRUE(ParseKernelMode("auto", &mode));
  EXPECT_EQ(mode, KernelMode::kAuto);
  EXPECT_FALSE(ParseKernelMode("sse9", &mode));
  EXPECT_EQ(GetKernelOpsByName("nope"), nullptr);
}

// ---- detector-level equivalence ----------------------------------------

std::vector<uint32_t> Detect(const Detector& detector, const Dataset& data,
                             size_t num_core, DetectionParams params,
                             KernelMode mode) {
  params.kernels = mode;
  return detector.DetectOutliers(data, num_core, params, nullptr);
}

TEST(KernelEquivalenceTest, DetectorsMatchScalarAcrossDims) {
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    for (size_t base_n : {0ul, 1ul, 7ul, 9ul, 120ul}) {
      const Dataset data = RandomDataset(dims, base_n, 5000u * dims + base_n);
      DetectionParams params;
      params.radius = 1.5;
      params.min_neighbors = 3;
      params.seed = 11 * dims;
      // All-core, core/support split, and all-support datasets.
      for (size_t num_core :
           {data.size(), data.size() * 3 / 4, size_t{0}}) {
        NestedLoopDetector nested;
        BruteForceDetector brute;
        const std::vector<uint32_t> want =
            Detect(brute, data, num_core, params, KernelMode::kScalar);
        EXPECT_EQ(Detect(brute, data, num_core, params, KernelMode::kAuto),
                  want);
        for (KernelMode mode : {KernelMode::kScalar, KernelMode::kAuto}) {
          SCOPED_TRACE(KernelModeName(mode));
          EXPECT_EQ(Detect(nested, data, num_core, params, mode), want)
              << "nested dims=" << dims << " n=" << data.size();
        }
        // The cell-based grid enumerates (2·ring+1)^d cells per verdict;
        // keep its sweep to the dimensions where that stays tractable.
        if (dims <= 3) {
          CellBasedDetector cell;
          for (KernelMode mode : {KernelMode::kScalar, KernelMode::kAuto}) {
            SCOPED_TRACE(KernelModeName(mode));
            EXPECT_EQ(Detect(cell, data, num_core, params, mode), want)
                << "cell dims=" << dims << " n=" << data.size();
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, ExtensionsMatchScalar) {
  const Dataset data = GenerateTigerLike(2500, 17);

  DbscanParams dbscan;
  dbscan.eps = 4.0;
  dbscan.min_pts = 4;
  dbscan.kernels = KernelMode::kScalar;
  const std::vector<int32_t> want_labels = DbscanLabels(data, dbscan);
  dbscan.kernels = KernelMode::kAuto;
  EXPECT_EQ(DbscanLabels(data, dbscan), want_labels);

  EXPECT_EQ(KDistance(data, 3, 4, KernelMode::kScalar),
            KDistance(data, 3, 4, KernelMode::kAuto));
}

// ---- pipeline-level determinism ----------------------------------------

TEST(KernelEquivalenceTest, PipelineOutliersIdenticalAcrossModesAndThreads) {
  const Dataset data = GenerateTigerLike(4000, 99);
  DetectionParams params;
  params.radius = 5.0;
  params.min_neighbors = 4;

  std::vector<PointId> want;
  bool first = true;
  for (KernelMode mode : {KernelMode::kScalar, KernelMode::kAuto}) {
    for (int threads : {1, 8}) {
      DodConfig config = DodConfig::Dmt(params);
      config.params.kernels = mode;
      config.num_threads = threads;
      DodPipeline pipeline(config);
      const Result<DodResult> run = pipeline.Run(data);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      if (first) {
        want = run.value().outliers;
        EXPECT_FALSE(want.empty());
        first = false;
      } else {
        EXPECT_EQ(run.value().outliers, want)
            << "kernels=" << KernelModeName(mode) << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace dod
