// Copyright 2026 The DOD Authors.
//
// DSHC end to end: clustering a distribution sketch must tile the domain
// with rectangles, respect the cardinality cap, and separate density bands;
// its Morton-order scan must grow near-square clusters whose r-extensions
// are smaller than those of a row-major scan. BucketClusterer's own
// decisions are tested in bucket_clusterer_test and bucket_clusterer_fuzz_test.

#include "dshc/dshc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bucket_clusterer_testing.h"
#include "data/generators.h"
#include "data/geo_like.h"
#include "partition/partition_plan.h"
#include "partition/sampler.h"

namespace dod {
namespace {

DistributionSketch SketchOf(const Dataset& data, int buckets = 32,
                            double rate = 0.5) {
  SamplerOptions options;
  options.rate = rate;
  options.buckets_per_dim = buckets;
  options.seed = 4242;
  return BuildSketch(data, data.Bounds(), options);
}

TEST(DshcTest, UniformDataCollapsesToFewClusters) {
  const Dataset data = GenerateUniform(20000, Rect::Cube(2, 0.0, 100.0), 1);
  const DistributionSketch sketch = SketchOf(data);
  DshcOptions options;
  options.target_partitions = 16;
  const auto clusters = ClusterMiniBuckets(sketch, options);
  ExpectTilesDomain(clusters, sketch.grid.domain());
  // Uniform density merges aggressively; the count is governed by the
  // cardinality cap (~4x mean → at least ~4 clusters).
  EXPECT_LE(clusters.size(), 64u);
  EXPECT_GE(clusters.size(), 4u);
}

TEST(DshcTest, ClusteredDataTilesAndSeparatesDensities) {
  SettlementProfile profile;
  profile.num_cities = 4;
  profile.city_fraction = 0.9;
  const Dataset data =
      GenerateSettlements(30000, DomainForDensity(30000, 0.05), profile, 3);
  const DistributionSketch sketch = SketchOf(data, 48);
  DshcOptions options;
  options.target_partitions = 32;
  const auto clusters = ClusterMiniBuckets(sketch, options);
  ExpectTilesDomain(clusters, sketch.grid.domain());
  // Density spread across clusters must be large (cities vs empty space).
  double min_density = 1e300, max_density = 0.0;
  for (const AggregateFeature& af : clusters) {
    if (af.num_points <= 0) continue;
    min_density = std::min(min_density, af.density());
    max_density = std::max(max_density, af.density());
  }
  EXPECT_GT(max_density, 10.0 * std::max(min_density, 1e-12));
}

TEST(DshcTest, RespectsCardinalityCap) {
  const Dataset data = GenerateGeoRegion(GeoRegion::kNewYork, 20000, 5);
  const DistributionSketch sketch = SketchOf(data, 32);
  DshcOptions options;
  options.t_max_points = 4000.0;
  const auto clusters = ClusterMiniBuckets(sketch, options);
  for (const AggregateFeature& af : clusters) {
    EXPECT_LT(af.num_points, 4000.0 * 1.5)
        << "cluster far above Tmax#";  // one bucket may exceed slightly
  }
}

TEST(DshcTest, ExplicitThresholdsAreHonored) {
  const Dataset data = GenerateUniform(10000, Rect::Cube(2, 0.0, 50.0), 7);
  const DistributionSketch sketch = SketchOf(data, 16);
  DshcOptions options;
  options.t_diff = 123.0;
  options.t_max_points = 456.0;
  const DshcThresholds thresholds = ResolveThresholds(sketch, options);
  EXPECT_DOUBLE_EQ(thresholds.t_diff, 123.0);
  EXPECT_DOUBLE_EQ(thresholds.t_max_points, 456.0);
}

TEST(DshcTest, AutoThresholdsArePositive) {
  const Dataset data = GenerateGeoRegion(GeoRegion::kOhio, 10000, 9);
  const DistributionSketch sketch = SketchOf(data);
  const DshcThresholds thresholds = ResolveThresholds(sketch, DshcOptions{});
  EXPECT_GT(thresholds.t_diff, 0.0);
  EXPECT_GT(thresholds.t_max_points, 0.0);
}

TEST(DshcTest, TinyTdiffDegeneratesToManyClusters) {
  const Dataset data = GenerateGeoRegion(GeoRegion::kMassachusetts, 10000, 11);
  const DistributionSketch sketch = SketchOf(data, 16);
  DshcOptions loose, strict;
  loose.t_diff = 1e9;
  strict.t_diff = 1e-9;
  const auto few = ClusterMiniBuckets(sketch, loose);
  const auto many = ClusterMiniBuckets(sketch, strict);
  EXPECT_LT(few.size(), many.size());
  ExpectTilesDomain(few, sketch.grid.domain());
  ExpectTilesDomain(many, sketch.grid.domain());
}

TEST(DshcTest, WorksInThreeDimensions) {
  const Dataset data = GenerateUniform(5000, Rect::Cube(3, 0.0, 30.0), 13);
  SamplerOptions soptions;
  soptions.rate = 0.5;
  soptions.buckets_per_dim = 8;
  const DistributionSketch sketch =
      BuildSketch(data, data.Bounds(), soptions);
  DshcOptions options;
  const auto clusters = ClusterMiniBuckets(sketch, options);
  ExpectTilesDomain(clusters, sketch.grid.domain());
}

TEST(DshcTest, TilesTheDomainInEveryDimensionAndGridSize) {
  // Power-of-two and ragged grids (the Morton scan's aligned blocks are
  // clipped at the grid's far edge), under a loose and a tight cap.
  struct Case {
    int dims;
    int buckets;
  };
  for (const Case& c : {Case{1, 64}, Case{1, 37}, Case{2, 16}, Case{2, 13},
                        Case{2, 1}, Case{3, 8}, Case{3, 5}}) {
    SCOPED_TRACE("dims " + std::to_string(c.dims) + " buckets " +
                 std::to_string(c.buckets));
    const Dataset data =
        GenerateUniform(4000, Rect::Cube(c.dims, 0.0, 40.0), 17 + c.dims);
    const DistributionSketch sketch = SketchOf(data, c.buckets);
    for (double cap : {-1.0, 150.0}) {
      DshcOptions options;
      options.t_max_points = cap;
      const auto clusters = ClusterMiniBuckets(sketch, options);
      ExpectTilesDomain(clusters, sketch.grid.domain());
      double points = 0.0;
      for (const AggregateFeature& af : clusters) points += af.num_points;
      EXPECT_NEAR(points, sketch.EstimatedCardinality(), 1e-6 * points);
    }
  }
}

// Long side over short side of a 2-d cluster.
double AspectRatio(const Rect& rect) {
  const double a = rect.Extent(0);
  const double b = rect.Extent(1);
  return std::max(a, b) / std::min(a, b);
}

// Area of a cluster's r-extension clipped to the domain: the region whose
// points the cell's partition holds as core or supporting area (Def. 3.3).
double ExtensionArea(const Rect& rect, double radius, const Rect& domain) {
  double area = 1.0;
  for (int d = 0; d < rect.dims(); ++d) {
    area *= std::min(rect.hi(d) + radius, domain.hi(d)) -
            std::max(rect.lo(d) - radius, domain.lo(d));
  }
  return area;
}

TEST(DshcTest, UniformDensityGrowsSquareClustersWithLessReplication) {
  const Dataset data = GenerateUniform(40000, Rect::Cube(2, 0.0, 200.0), 23);
  const DistributionSketch sketch = SketchOf(data, 64);
  DshcOptions options;
  options.target_partitions = 64;
  options.detection.radius = 3.0;
  options.detection.min_neighbors = 4;
  const Rect& domain = sketch.grid.domain();
  const auto clusters = ClusterMiniBuckets(sketch, options);
  ExpectTilesDomain(clusters, domain);

  // The same Def. 5.2 thresholds with the buckets inserted row-major.
  const DshcThresholds thresholds = ResolveThresholds(sketch, options);
  MergingCriteria criteria =
      Criteria(thresholds.t_diff, thresholds.t_max_points);
  criteria.cost_fn = ClusterCostFn(2, options.detection);
  criteria.t_max_cost = thresholds.t_max_cost;
  BucketClusterer row_major(sketch.grid, criteria);
  const double scale = sketch.Scale();
  for (int x = 0; x < sketch.grid.buckets_per_dim(); ++x) {
    for (int y = 0; y < sketch.grid.buckets_per_dim(); ++y) {
      row_major.InsertBucket(At(x, y), sketch.grid.WeightAt(At(x, y)) * scale);
    }
  }
  const auto strips = row_major.Clusters();
  ExpectTilesDomain(strips, domain);

  std::vector<double> aspects;
  double extension = 0.0;
  for (const AggregateFeature& af : clusters) {
    aspects.push_back(AspectRatio(af.bounds));
    extension += ExtensionArea(af.bounds, options.detection.radius, domain);
  }
  std::sort(aspects.begin(), aspects.end());
  EXPECT_LE(aspects[aspects.size() / 2], 4.0);
  double strip_extension = 0.0;
  for (const AggregateFeature& af : strips) {
    strip_extension +=
        ExtensionArea(af.bounds, options.detection.radius, domain);
  }
  EXPECT_LT(extension, strip_extension);
}

}  // namespace
}  // namespace dod
