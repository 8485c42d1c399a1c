// Copyright 2026 The DOD Authors.
//
// The kernel exactness contract: scalar, blocked, AVX2 and AVX-512 kernels
// return bit-identical results on every input — dimensions 1..kMaxDimensions,
// sizes straddling block boundaries, ties at exactly r, NaN/infinity
// coordinates — and every detector produces the same outlier set under
// --kernels=scalar and --kernels=auto, for any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/distance.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "data/tiger_like.h"
#include "detection/brute_force.h"
#include "detection/cell_based.h"
#include "detection/nested_loop.h"
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
  for (const char* name : {"avx2", "avx512"}) {
    if (const KernelOps* ops = GetKernelOpsByName(name)) impls.push_back(ops);
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
    // Sprinkle exact duplicates so skipping the query's own slot still
    // leaves a neighbor at distance 0.
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
  EXPECT_EQ(block.IdAt(1), 9u);
  // Pad slots: +inf coordinates, invalid id.
  for (size_t s = 2; s < kSoaWidth; ++s) {
    EXPECT_EQ(block.Lane(0, 1)[s], kInf);
    EXPECT_EQ(block.IdAt(s), kSoaInvalidId);
  }
}

// Every slot of both buffers, pad slots included.
void ExpectSameSlots(const SoABlock& got, const SoABlock& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  ASSERT_EQ(got.num_blocks(), want.num_blocks()) << label;
  for (size_t block = 0; block < got.num_blocks(); ++block) {
    for (size_t s = 0; s < kSoaWidth; ++s) {
      EXPECT_EQ(got.IdAt(block * kSoaWidth + s),
                want.IdAt(block * kSoaWidth + s))
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
        // A skip position of data.size() matches no slot.
        const size_t skip_slot =
            data.empty() ? kNoSkipSlot : rng.NextBounded(data.size() + 1);
        const size_t begin = data.empty() ? 0 : rng.NextBounded(data.size());
        const size_t end =
            begin + (data.size() > begin
                         ? rng.NextBounded(data.size() - begin + 1)
                         : 0);

        uint64_t scalar_pairs = 0;
        const int want_count = scalar.count_within_radius(
            soa, begin, end, q.data(), sq_radius, skip_slot, -1,
            &scalar_pairs);

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
  // absent, in the head, an interior or the tail block, in the second
  // block of a pair avx512 scans together, or outside the range; every cap
  // from 0 to one past the full count; integer coordinates with an integer
  // radius (ties at exactly r) and uniform ones; and queries read from the
  // buffer's own slots, including a NaN and an infinite one, and from the
  // skip slot itself (Nested-Loop's case: the skipped slot is a hit). The
  // last block holds pad slots.
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
          // None, head, interior, tail, the second block of the first
          // interior pair (blocks from the first whole one on go two at a
          // time), outside the range.
          const size_t interior = (begin / kSoaWidth + 2) * kSoaWidth + 3;
          const size_t first_whole = (begin + kSoaWidth - 1) / kSoaWidth;
          const size_t pair_second = (first_whole + 1) * kSoaWidth + 5;
          const size_t skips[] = {
              kNoSkipSlot,
              begin,
              interior < end ? interior : begin + 1,
              end == 0 ? 0 : end - 1,
              (first_whole + 2) * kSoaWidth <= end ? pair_second : begin + 2,
              begin == 0 ? end : begin - 1};
          for (size_t skip : skips) {
            std::vector<size_t> queries(std::begin(query_slots),
                                        std::end(query_slots));
            if (skip < kSlots) queries.push_back(skip);
            for (size_t query_slot : queries) {
              const Point q = SlotPoint(soa, query_slot);
              std::vector<double> d2(kSlots);
              for (size_t slot = 0; slot < kSlots; ++slot) {
                d2[slot] = SquaredEuclidean(q.data(),
                                            SlotPoint(soa, slot).data(), dims);
              }
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

// ---- float32 shadow lanes ----------------------------------------------

// `data` in slot order twice: a plain buffer, and one with shadow lanes
// filled over every slot (where they fit).
struct Buffers {
  SoABlock plain;
  SoABlock shadowed;
};

Buffers PlainAndShadowed(const Dataset& data) {
  Buffers buffers{SoABlock(data.dims()), SoABlock(data.dims())};
  std::vector<uint32_t> slots(data.size());
  for (uint32_t i = 0; i < slots.size(); ++i) slots[i] = i;
  buffers.plain.AppendGathered(data, slots.data(), slots.data(),
                               slots.size());
  buffers.shadowed.EnableShadow();
  buffers.shadowed.AppendGathered(data, slots.data(), slots.data(),
                                  slots.size());
  buffers.shadowed.FillShadow(0, buffers.shadowed.size());
  return buffers;
}

// Every table on both buffers against ReferenceCount, count and pairs, for
// every cap from -1 to one past the uncapped count.
void ExpectCountsMatchReference(const Buffers& buffers, const double* q,
                                double sq_radius, size_t begin, size_t end,
                                size_t skip, const std::string& label) {
  const SoABlock& plain = buffers.plain;
  std::vector<double> d2(plain.size());
  for (size_t slot = 0; slot < plain.size(); ++slot) {
    d2[slot] = SquaredEuclidean(q, SlotPoint(plain, slot).data(),
                                plain.dims());
  }
  const std::vector<const KernelOps*> impls = AvailableImpls();
  const int total =
      ReferenceCount(d2, begin, end, sq_radius, skip, -1, false).count;
  for (int cap = -1; cap <= total + 1; ++cap) {
    const CountAndPairs per_pair =
        ReferenceCount(d2, begin, end, sq_radius, skip, cap, false);
    const CountAndPairs per_block =
        ReferenceCount(d2, begin, end, sq_radius, skip, cap, true);
    for (const KernelOps* ops : impls) {
      const CountAndPairs& want = ops == impls.front() ? per_pair : per_block;
      for (const SoABlock* soa : {&plain, &buffers.shadowed}) {
        uint64_t pairs = 0;
        const int got = ops->count_within_radius(*soa, begin, end, q,
                                                 sq_radius, skip, cap, &pairs);
        const std::string where =
            label + " " + ops->name +
            (soa == &plain ? " plain" : " shadowed") + " [" +
            std::to_string(begin) + ", " + std::to_string(end) + ") skip " +
            std::to_string(skip) + " cap " + std::to_string(cap);
        ASSERT_EQ(got, want.count) << where;
        ASSERT_EQ(pairs, want.pairs) << where;
      }
    }
  }
}

// Appends the points of `points` (row-major) to `data` in a random order.
void AppendShuffled(const std::vector<double>& points, Rng* rng,
                    Dataset* data) {
  const size_t dims = static_cast<size_t>(data->dims());
  for (uint32_t i : RandomPermutation(points.size() / dims, *rng)) {
    data->Append(points.data() + i * dims);
  }
}

TEST(SoABlockTest, ShadowLanesHoldShiftedFloats) {
  const int dims = 3;
  const Dataset data = RandomDataset(dims, 37, 808);
  std::vector<uint32_t> ids(data.size());
  for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  SoABlock soa(dims);
  soa.EnableShadow();
  // Alignment goes to whole shadow vectors.
  soa.AppendGathered(data, ids.data(), ids.data(), 5);
  soa.AlignToBlock();
  EXPECT_EQ(soa.size(), kShadowWidth);
  const size_t begin = soa.size();
  soa.AppendGathered(data, ids.data(), ids.data(), ids.size());
  const size_t end = soa.size();
  EXPECT_FALSE(soa.ShadowCovers(begin, end));  // nothing filled yet
  soa.FillShadow(begin, end);
  // The origin is the range's first point, the extent the largest shift.
  double extent = 0.0;
  for (int d = 0; d < dims; ++d) {
    EXPECT_EQ(soa.shadow_origin()[d], data[0][d]);
    for (size_t i = 0; i < data.size(); ++i) {
      extent = std::max(extent, std::fabs(data[i][d] - data[0][d]));
    }
  }
  EXPECT_EQ(soa.shadow_extent(), extent);
  for (size_t slot = begin; slot < (end + kShadowWidth - 1) / kShadowWidth *
                                       kShadowWidth;
       ++slot) {
    for (int d = 0; d < dims; ++d) {
      const float got =
          soa.ShadowLane(slot / kShadowWidth, d)[slot % kShadowWidth];
      if (slot < end) {
        EXPECT_EQ(got, static_cast<float>(SlotPoint(soa, slot)[d] -
                                          soa.shadow_origin()[d]))
            << "slot " << slot;
      } else {
        EXPECT_EQ(got, std::numeric_limits<float>::infinity())
            << "pad slot " << slot;
      }
    }
  }
  // Covered: non-empty ranges inside the filled one.
  EXPECT_TRUE(soa.ShadowCovers(begin, end));
  EXPECT_TRUE(soa.ShadowCovers(begin + 3, end - 7));
  EXPECT_TRUE(soa.ShadowCovers(end - 1, end));
  EXPECT_FALSE(soa.ShadowCovers(begin, begin));
  EXPECT_FALSE(soa.ShadowCovers(0, end));      // starts in an unfilled vector
  EXPECT_FALSE(soa.ShadowCovers(3, kShadowWidth));
  // Appending after a fill releases every lane.
  soa.AppendGathered(data, ids.data(), ids.data(), 1);
  EXPECT_FALSE(soa.ShadowCovers(begin, end));
  EXPECT_EQ(soa.shadow_extent(), 0.0);
}

TEST(DistanceKernelsTest, ShadowedCountsMatchNearTheRadius) {
  // Pairs at r (1 ± 2^-k), k = 20..52, along random directions, next to
  // random points, around queries offset by up to 1e9: the float filter
  // decides the clear cases and must hand every pair it cannot prove back
  // to the double lanes. The queries are a point off the buffer (no skip)
  // and one of its slots (skipped); the ranges start and end on and off
  // block and vector boundaries.
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    for (double offset : {0.0, 1e3, 1e6, 1e9}) {
      Rng rng(9001u * dims + static_cast<uint64_t>(std::log10(offset + 1)));
      const double radius = 1.5;
      Point q(dims);
      for (int d = 0; d < dims; ++d) q[d] = offset + 0.25 * (d + 1);
      std::vector<double> points;
      for (int k = 20; k <= 52; ++k) {
        for (double sign : {-1.0, 1.0}) {
          std::vector<double> dir(dims);
          double norm = 0.0;
          for (double& c : dir) {
            c = rng.NextUniform(-1.0, 1.0);
            norm += c * c;
          }
          norm = std::sqrt(norm);
          const double length = radius * (1.0 + sign * std::ldexp(1.0, -k));
          for (int d = 0; d < dims; ++d) {
            points.push_back(q[d] + dir[d] / norm * length);
          }
        }
      }
      for (int i = 0; i < 24 * dims; ++i) {
        points.push_back(q[i % dims] + rng.NextUniform(-2.0, 2.0) * radius);
      }
      Dataset data(dims);
      AppendShuffled(points, &rng, &data);
      const Buffers buffers = PlainAndShadowed(data);
      const size_t n = data.size();
      ASSERT_TRUE(buffers.shadowed.ShadowCovers(0, n));
      const std::string label =
          "dims " + std::to_string(dims) + " offset " + std::to_string(offset);
      const Point own = SlotPoint(buffers.plain, 21);
      for (const auto& [begin, end] : {std::pair<size_t, size_t>{0, n},
                                       {3, n - 5},
                                       {16, 16 * 5 + 8},
                                       {kSoaWidth, n - kShadowWidth}}) {
        ExpectCountsMatchReference(buffers, q.data(), radius * radius, begin,
                                   end, kNoSkipSlot, label + " off-buffer");
        ExpectCountsMatchReference(buffers, own.data(), radius * radius,
                                   begin, end, 21, label + " slot 21");
      }
    }
  }
}

TEST(DistanceKernelsTest, ShadowedCountsMatchAtExactTies) {
  // Integer coordinates around an integer query offset by up to 1e9 and
  // r² = 25: (3, 4) and 5 steps put pairs at exactly r, the rest at
  // integer squared distances on either side. A tie is a neighbor on every
  // table, shadowed or not.
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    for (double offset : {0.0, 1e3, 1e6, 1e9}) {
      Rng rng(7717u * dims + static_cast<uint64_t>(std::log10(offset + 1)));
      Point q(dims);
      for (int d = 0; d < dims; ++d) q[d] = offset + d;
      std::vector<double> points;
      for (int i = 0; i < 96; ++i) {
        std::vector<double> step(dims, 0.0);
        const int a = static_cast<int>(rng.NextBounded(dims));
        const int b = static_cast<int>(rng.NextBounded(dims));
        const double sa = rng.NextBounded(2) == 0 ? -1.0 : 1.0;
        const double sb = rng.NextBounded(2) == 0 ? -1.0 : 1.0;
        switch (i % 4) {
          case 0:  // exactly r
            if (a != b) {
              step[a] = 3.0 * sa;
              step[b] = 4.0 * sb;
            } else {
              step[a] = 5.0 * sa;
            }
            break;
          case 1:  // exactly r along one axis
            step[a] = 5.0 * sa;
            break;
          default:  // anywhere around r
            for (double& c : step) {
              c = static_cast<double>(rng.NextBounded(9)) - 4.0;
            }
            break;
        }
        for (int d = 0; d < dims; ++d) points.push_back(q[d] + step[d]);
      }
      Dataset data(dims);
      AppendShuffled(points, &rng, &data);
      const Buffers buffers = PlainAndShadowed(data);
      const size_t n = data.size();
      ASSERT_TRUE(buffers.shadowed.ShadowCovers(0, n));
      const std::string label =
          "dims " + std::to_string(dims) + " offset " + std::to_string(offset);
      ExpectCountsMatchReference(buffers, q.data(), 25.0, 0, n, kNoSkipSlot,
                                 label);
      ExpectCountsMatchReference(buffers, q.data(), 25.0, 5, n - 3, 40,
                                 label);
    }
  }
}

TEST(DistanceKernelsTest, ShadowedCountFollowsTheBlockSchedule) {
  // The float filter keeps the double path's schedule: begin and end on
  // and off block and vector boundaries, the skip slot absent, in the head,
  // in the low or the high block of an interior vector, in the tail, or
  // outside the range, every cap from -1 to one past the full count, and
  // queries from the buffer's own slots including the skipped one. The
  // last vector holds pad slots.
  constexpr size_t kSlots = 7 * kShadowWidth + 5;
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    for (bool ties : {true, false}) {
      Rng rng(5153u * dims + (ties ? 1 : 0));
      Dataset data(dims);
      Point p(dims);
      for (size_t slot = 0; slot < kSlots; ++slot) {
        for (int d = 0; d < dims; ++d) {
          p[d] = ties ? static_cast<double>(rng.NextBounded(4))
                      : rng.NextUniform(0.0, 4.0);
        }
        data.Append(p);
      }
      const Buffers buffers = PlainAndShadowed(data);
      ASSERT_TRUE(buffers.shadowed.ShadowCovers(0, kSlots));
      const double sq_radius = ties ? 2.0 : rng.NextUniform(1.0, 3.0);
      for (size_t begin : {size_t{0}, size_t{3}, kSoaWidth, size_t{13},
                           kShadowWidth + kSoaWidth}) {
        const size_t interior = (begin / kShadowWidth + 2) * kShadowWidth;
        for (size_t end : {begin, begin + 2, begin + kShadowWidth,
                           kSlots - 11, kSlots}) {
          if (end < begin) continue;
          for (size_t skip : {kNoSkipSlot, begin, interior + 3,
                              interior + kSoaWidth + 3,
                              end == 0 ? size_t{0} : end - 1,
                              begin == 0 ? end : begin - 1}) {
            std::vector<size_t> queries = {5, kSlots - 1};
            if (skip < kSlots) queries.push_back(skip);
            for (size_t query_slot : queries) {
              const Point q = SlotPoint(buffers.plain, query_slot);
              ExpectCountsMatchReference(
                  buffers, q.data(), sq_radius, begin, end, skip,
                  "dims " + std::to_string(dims) + " ties " +
                      std::to_string(ties) + " query " +
                      std::to_string(query_slot));
            }
          }
        }
      }
    }
  }
}

TEST(DistanceKernelsTest, ShadowRefusesNonFiniteAndHugeValues) {
  // A coordinate that is NaN, infinite or more than FLT_MAX from the origin
  // leaves its range uncovered; a point just inside float range covers it
  // but widens the band past any use. Queries that are NaN, infinite, too
  // large for a float or far off take the double path. Every count equals
  // scalar's on every table either way.
  constexpr double kHuge = 1e39;  // > FLT_MAX
  const int dims = 2;
  for (double bad : {kNaN, kInf, -kInf, kHuge, -kHuge, 3e38}) {
    Rng rng(4242);
    Dataset data(dims);
    Point p(dims);
    for (size_t i = 0; i < 3 * kShadowWidth + 5; ++i) {
      for (int d = 0; d < dims; ++d) p[d] = rng.NextUniform(0.0, 4.0);
      if (i == kShadowWidth + 6) p[1] = bad;
      data.Append(p);
    }
    const size_t n = data.size();
    Buffers buffers = PlainAndShadowed(data);
    EXPECT_EQ(buffers.shadowed.ShadowCovers(0, n), bad == 3e38)
        << "bad " << bad;
    // A range that stops before the bad point covers on its own.
    SoABlock first(dims);
    first.EnableShadow();
    std::vector<uint32_t> slots(n);
    for (uint32_t i = 0; i < n; ++i) slots[i] = i;
    first.AppendGathered(data, slots.data(), slots.data(), n);
    first.FillShadow(0, kShadowWidth);
    first.FillShadow(kShadowWidth, n);
    EXPECT_TRUE(first.ShadowCovers(0, kShadowWidth)) << "bad " << bad;
    EXPECT_EQ(first.ShadowCovers(kShadowWidth, n), bad == 3e38)
        << "bad " << bad;
    buffers.shadowed = std::move(first);
    const std::string label = "bad " + std::to_string(bad);
    for (const auto& [begin, end] :
         {std::pair<size_t, size_t>{0, n}, {0, kShadowWidth}, {2, 13}}) {
      const Point q = SlotPoint(buffers.plain, 7);
      ExpectCountsMatchReference(buffers, q.data(), 2.0, begin, end, 7,
                                 label);
      for (double query : {kNaN, kInf, -kInf, kHuge, -kHuge, 1e30, 3.0}) {
        const double far[] = {2.0, query};
        ExpectCountsMatchReference(buffers, far, 2.0, begin, end,
                                   kNoSkipSlot,
                                   label + " query " + std::to_string(query));
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

TEST(DistanceKernelsTest, TileMatchesScalarRowAndColumnCounts) {
  // Every batched table's tile against the scalar table's on one buffer:
  // segments with either end on or off a block boundary (the last block
  // holds pad slots), NaN and infinite coordinates among both the slots and
  // the queries, and ties at exactly r.
  const std::vector<const KernelOps*> impls = AvailableImpls();
  const KernelOps& scalar = *impls.front();
  constexpr size_t kSlots = 5 * kSoaWidth + 3;
  constexpr size_t kQueries = 2 * kSoaWidth + 1;
  for (int dims = 1; dims <= kMaxDimensions; ++dims) {
    Rng rng(7919u * dims);
    const auto coordinate = [&rng](size_t i) {
      if (i % 11 == 4) return kNaN;
      if (i % 13 == 6) return kInf;
      return static_cast<double>(rng.NextBounded(4));
    };
    SoABlock soa(dims);
    Point p(dims);
    for (size_t slot = 0; slot < kSlots; ++slot) {
      for (int d = 0; d < dims; ++d) p[d] = coordinate(slot + d);
      soa.Append(p.data(), static_cast<uint32_t>(slot));
    }
    std::vector<double> queries(kQueries * dims);
    for (size_t i = 0; i < queries.size(); ++i) queries[i] = coordinate(i);
    for (size_t begin : {size_t{0}, size_t{3}, kSoaWidth, kSoaWidth + 7}) {
      for (size_t end : {begin, begin + 1, 3 * kSoaWidth, kSlots - 1, kSlots}) {
        if (end < begin) continue;
        SCOPED_TRACE("dims=" + std::to_string(dims) + " [" +
                     std::to_string(begin) + ", " + std::to_string(end) + ")");
        std::vector<uint32_t> want_rows(kQueries, 1);
        std::vector<uint32_t> want_cols(end - begin, 2);
        scalar.count_tile_within_radius(soa, begin, end, queries.data(),
                                        kQueries, 2.0, want_rows.data(),
                                        want_cols.data());
        for (const KernelOps* ops : impls) {
          SCOPED_TRACE(std::string("impl=") + ops->name);
          std::vector<uint32_t> rows(kQueries, 1);
          std::vector<uint32_t> cols(end - begin, 2);
          ops->count_tile_within_radius(soa, begin, end, queries.data(),
                                        kQueries, 2.0, rows.data(),
                                        cols.data());
          EXPECT_EQ(rows, want_rows);
          EXPECT_EQ(cols, want_cols);
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
  const double below = std::nextafter(9.0, 0.0);
  for (const KernelOps* ops : AvailableImpls()) {
    SCOPED_TRACE(std::string("impl=") + ops->name);
    // r = 3: exactly one point at distance exactly 3, none closer.
    EXPECT_EQ(ops->count_within_radius(soa, 0, soa.size(), &q, 9.0,
                                       kNoSkipSlot, -1, nullptr),
              1);
    EXPECT_EQ(ops->count_within_radius(soa, 0, soa.size(), &q, below,
                                       kNoSkipSlot, -1, nullptr),
              0);
    // The tile counts the tie too, and only in slot 0's column.
    uint32_t row = 0;
    std::vector<uint32_t> cols(soa.size(), 0);
    ops->count_tile_within_radius(soa, 0, soa.size(), &q, 1, 9.0, &row,
                                  cols.data());
    EXPECT_EQ(row, 1u);
    EXPECT_EQ(cols[0], 1u);
    for (size_t j = 1; j < cols.size(); ++j) EXPECT_EQ(cols[j], 0u);
    row = 0;
    ops->count_tile_within_radius(soa, 0, soa.size(), &q, 1, below, &row,
                                  nullptr);
    EXPECT_EQ(row, 0u);
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
    // An infinite radius admits the +inf distance (inf <= inf) but never
    // the NaN one.
    EXPECT_EQ(ops->count_within_radius(soa, 0, soa.size(), q, kInf,
                                       kNoSkipSlot, -1, nullptr),
              2);
    for (const double sq_radius : {1e300, kInf}) {
      uint32_t row = 0;
      uint32_t cols[3] = {0, 0, 0};
      ops->count_tile_within_radius(soa, 0, soa.size(), q, 1, sq_radius,
                                    &row, cols);
      const uint32_t inf_hit = sq_radius == kInf ? 1u : 0u;
      EXPECT_EQ(row, 1u + inf_hit);
      EXPECT_EQ(cols[0], 1u);
      EXPECT_EQ(cols[1], 0u);
      EXPECT_EQ(cols[2], inf_hit);
    }
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
    // At an infinite radius the real slot (distance +inf) counts and the
    // pads (NaN) do not; the tile writes the real slot's column only.
    EXPECT_EQ(ops->count_within_radius(soa, 0, soa.size(), &q, kInf,
                                       kNoSkipSlot, -1, nullptr),
              1);
    uint32_t row = 0;
    std::vector<uint32_t> cols(kSoaWidth, 7);
    ops->count_tile_within_radius(soa, 0, soa.size(), &q, 1, kInf, &row,
                                  cols.data());
    EXPECT_EQ(row, 1u);
    EXPECT_EQ(cols[0], 8u);
    for (size_t s = 1; s < kSoaWidth; ++s) EXPECT_EQ(cols[s], 7u);
    // A finite query puts the pads at +inf too, inside an infinite
    // radius: only the range keeps them out.
    const double origin = 0.0;
    EXPECT_EQ(ops->count_within_radius(soa, 0, soa.size(), &origin, kInf,
                                       kNoSkipSlot, -1, nullptr),
              1);
    row = 0;
    ops->count_tile_within_radius(soa, 0, soa.size(), &origin, 1, kInf,
                                  &row, nullptr);
    EXPECT_EQ(row, 1u);
  }
}

TEST(DistanceKernelsTest, DispatchAndParsing) {
  EXPECT_STREQ(GetKernelOps(KernelMode::kScalar).name, "scalar");
  const KernelOps& auto_ops = GetKernelOps(KernelMode::kAuto);
  if (Avx512KernelsAvailable()) {
    EXPECT_STREQ(auto_ops.name, "avx512");
  } else if (Avx2KernelsAvailable()) {
    EXPECT_STREQ(auto_ops.name, "avx2");
  } else {
    EXPECT_STREQ(auto_ops.name, "blocked");
  }
  EXPECT_EQ(GetKernelOpsByName("avx2") != nullptr, Avx2KernelsAvailable());
  EXPECT_EQ(GetKernelOpsByName("avx512") != nullptr, Avx512KernelsAvailable());
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
        // Up to 8-d: a grid with fewer cells than the (2·ring+1)^d block
        // scans its cells instead of probing the block.
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
