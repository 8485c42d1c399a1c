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
        const uint32_t skip =
            data.empty() ? kSoaInvalidId
                         : static_cast<uint32_t>(rng.NextBounded(
                               data.size() + 1));  // sometimes matches none
        const size_t begin = data.empty() ? 0 : rng.NextBounded(data.size());
        const size_t end =
            begin + (data.size() > begin
                         ? rng.NextBounded(data.size() - begin + 1)
                         : 0);

        uint64_t scalar_pairs = 0;
        const int want_count = scalar.count_within_radius(
            soa, begin, end, q.data(), sq_radius, skip, -1, &scalar_pairs);
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
                                             sq_radius, skip, -1, &pairs),
                    want_count);
          // Uncapped kernels evaluate every non-skipped pair in range.
          EXPECT_EQ(pairs, scalar_pairs);
          // Capped: the verdict (count >= cap) must agree even though the
          // batched count may overshoot within a block.
          for (int cap : {1, 2, want_count, want_count + 1}) {
            if (cap < 0) continue;
            const int capped = ops->count_within_radius(
                soa, begin, end, q.data(), sq_radius, skip, cap, nullptr);
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

TEST(DistanceKernelsTest, Avx2CappedCountStopsAtTheBlockThatReachedTheCap) {
  // The avx2 count checks its cap after every block, so a capped query
  // evaluates every non-skipped slot of [begin, end) up to the end of the
  // block where the running count reached the cap, and no further. The
  // distance_evals counter depends on exactly this schedule.
  const KernelOps* avx2 = GetKernelOpsByName("avx2");
  if (avx2 == nullptr) GTEST_SKIP() << "avx2 kernels unavailable";
  const KernelOps& scalar = *GetKernelOpsByName("scalar");
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    const Dataset data = RandomDataset(dims, 6 * kSoaWidth, 7000u + dims);
    SoABlock soa(dims);
    soa.Assign(data);
    const size_t n = soa.size();
    // Both ends off a block boundary.
    const size_t begin = 3;
    const size_t end = (n - 1) % kSoaWidth != 0 ? n - 1 : n - 2;
    Rng rng(91u * dims);
    Point q(dims);
    for (int d = 0; d < dims; ++d) q[d] = rng.NextUniform(3.0, 7.0);
    const double sq_radius = 16.0 * dims;
    std::vector<double> d2(n);
    scalar.squared_distances(soa, q.data(), d2.data(), nullptr);
    // Skip nothing, or a slot in the head, an interior or the tail block.
    for (const uint32_t skip :
         {kSoaInvalidId, soa.IdAt(begin + 1), soa.IdAt(3 * kSoaWidth + 2),
          soa.IdAt(end - 1)}) {
      int total = 0;
      for (size_t s = begin; s < end; ++s) {
        total += soa.IdAt(s) != skip && d2[s] <= sq_radius ? 1 : 0;
      }
      ASSERT_GT(total, 4) << "dims=" << dims;
      for (int cap = 1; cap <= total + 1; ++cap) {
        // Walk block by block: the expected stop is the first block end
        // where the running count reaches the cap.
        int want_count = 0;
        uint64_t want_pairs = 0;
        for (size_t s = begin; s < end; ++s) {
          if (soa.IdAt(s) != skip) {
            ++want_pairs;
            want_count += d2[s] <= sq_radius ? 1 : 0;
          }
          if ((s + 1) % kSoaWidth == 0 && want_count >= cap) break;
        }
        uint64_t pairs = 0;
        const int got = avx2->count_within_radius(
            soa, begin, end, q.data(), sq_radius, skip, cap, &pairs);
        EXPECT_EQ(got, want_count)
            << "dims=" << dims << " skip=" << skip << " cap=" << cap;
        EXPECT_EQ(pairs, want_pairs)
            << "dims=" << dims << " skip=" << skip << " cap=" << cap;
      }
    }
  }
}

TEST(DistanceKernelsTest, BlockedAndAvx2CappedCountsEvaluateTheSamePairs) {
  // Both batched paths check the cap after every block, so a capped count
  // returns the same running count and charges the same evaluated pairs
  // in either — the distance_evals counter does not depend on whether the
  // build has AVX2.
  const KernelOps* avx2 = GetKernelOpsByName("avx2");
  if (avx2 == nullptr) GTEST_SKIP() << "avx2 kernels unavailable";
  const KernelOps& blocked = *GetKernelOpsByName("blocked");
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    const Dataset data = RandomDataset(dims, 7 * kSoaWidth, 8100u + dims);
    SoABlock soa(dims);
    soa.Assign(data);
    Rng rng(53u * dims);
    Point q(dims);
    for (int trial = 0; trial < 24; ++trial) {
      for (int d = 0; d < dims; ++d) q[d] = rng.NextUniform(2.0, 8.0);
      const double sq_radius = rng.NextUniform(4.0, 16.0 * dims);
      const size_t begin = rng.NextBounded(soa.size());
      const size_t end = begin + rng.NextBounded(soa.size() - begin + 1);
      const uint32_t skip =
          trial % 3 == 0 || end == begin
              ? kSoaInvalidId
              : soa.IdAt(begin + rng.NextBounded(end - begin));
      for (int cap = 0; cap <= 40; cap += 1 + trial % 4) {
        uint64_t blocked_pairs = 0;
        uint64_t avx2_pairs = 0;
        const int blocked_count = blocked.count_within_radius(
            soa, begin, end, q.data(), sq_radius, skip, cap, &blocked_pairs);
        const int avx2_count = avx2->count_within_radius(
            soa, begin, end, q.data(), sq_radius, skip, cap, &avx2_pairs);
        EXPECT_EQ(blocked_count, avx2_count)
            << "dims=" << dims << " [" << begin << ", " << end
            << ") cap=" << cap;
        EXPECT_EQ(blocked_pairs, avx2_pairs)
            << "dims=" << dims << " [" << begin << ", " << end
            << ") cap=" << cap;
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
                                       kSoaInvalidId, -1, nullptr),
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
                                       kSoaInvalidId, -1, nullptr),
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
                                       kSoaInvalidId, -1, nullptr),
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
