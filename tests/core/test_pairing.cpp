#include "core/pairing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

namespace lion::core {
namespace {

using linalg::Vec3;

// Evenly spaced points along x, 1 cm apart.
signal::PhaseProfile x_line(std::size_t n, double spacing = 0.01) {
  signal::PhaseProfile p;
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back({{spacing * static_cast<double>(i), 0.0, 0.0}, 0.0, 0.0});
  }
  return p;
}

TEST(IntervalPairs, PairsAreRequestedDistanceApart) {
  const auto profile = x_line(101);  // 0..1 m
  const auto pairs = interval_pairs(profile, 0.2);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [i, j] : pairs) {
    const double d =
        linalg::distance(profile[i].position, profile[j].position);
    EXPECT_NEAR(d, 0.2, 0.011);
  }
}

TEST(IntervalPairs, CountMatchesGeometry) {
  const auto profile = x_line(101);
  // Interval 0.2 m on a 1 m scan with stride 1: anchors 0..80 cm -> 81.
  const auto pairs = interval_pairs(profile, 0.2);
  EXPECT_EQ(pairs.size(), 81u);
}

TEST(IntervalPairs, StrideSubsamples) {
  const auto profile = x_line(101);
  const auto dense = interval_pairs(profile, 0.2, 0.02, 1);
  const auto sparse = interval_pairs(profile, 0.2, 0.02, 10);
  EXPECT_GT(dense.size(), 5 * sparse.size());
}

TEST(IntervalPairs, TooLargeIntervalYieldsNothing) {
  const auto profile = x_line(11);  // 10 cm scan
  EXPECT_TRUE(interval_pairs(profile, 0.5).empty());
}

TEST(IntervalPairs, RejectsNonPositiveInterval) {
  const auto profile = x_line(10);
  EXPECT_THROW(interval_pairs(profile, 0.0), std::invalid_argument);
  EXPECT_THROW(interval_pairs(profile, -0.1), std::invalid_argument);
}

TEST(IntervalPairs, SkipsAcrossStreamGaps) {
  // A big hole in the stream: anchors just before the hole would need a
  // partner deep inside it; the tolerance must reject the overshoot.
  signal::PhaseProfile profile;
  for (int i = 0; i <= 20; ++i) {
    profile.push_back({{0.01 * i, 0.0, 0.0}, 0.0, 0.0});
  }
  for (int i = 0; i <= 20; ++i) {
    profile.push_back({{0.8 + 0.01 * i, 0.0, 0.0}, 0.0, 0.0});
  }
  const auto pairs = interval_pairs(profile, 0.1, 0.02);
  for (const auto& [i, j] : pairs) {
    const double d =
        linalg::distance(profile[i].position, profile[j].position);
    EXPECT_LT(d, 0.13);
  }
}

TEST(LadderPairs, RungsAreGeometric) {
  const auto profile = x_line(201);  // 0..2 m
  const auto pairs = ladder_pairs(profile, 0.1, 0.02, 50);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [i, j] : pairs) {
    const double d =
        linalg::distance(profile[i].position, profile[j].position);
    // Every rung is ~0.1 * 2^k for some k >= 0.
    const double k = std::log2(d / 0.1);
    EXPECT_NEAR(k, std::round(k), 0.3) << "distance " << d;
  }
}

TEST(LadderPairs, ReachesAcrossSegmentGaps) {
  // Two parallel lines recorded back to back: ladder pairs must include
  // cross-line pairs so the perpendicular coordinate stays observable.
  signal::PhaseProfile profile;
  for (int i = 0; i <= 100; ++i) {
    profile.push_back({{0.01 * i, 0.0, 0.0}, 0.0, 0.0});
  }
  for (int i = 0; i <= 100; ++i) {
    profile.push_back({{0.01 * i, -0.2, 0.0}, 0.0, 0.0});
  }
  const auto pairs = ladder_pairs(profile, 0.2, 0.05);
  bool any_cross = false;
  for (const auto& [i, j] : pairs) {
    if (std::abs(profile[i].position[1] - profile[j].position[1]) > 0.1) {
      any_cross = true;
    }
  }
  EXPECT_TRUE(any_cross);
}

TEST(LadderPairs, MoreThanIntervalPairsAlone) {
  const auto profile = x_line(201);
  EXPECT_GT(ladder_pairs(profile, 0.2, 0.02).size(),
            interval_pairs(profile, 0.2, 0.02).size());
}

TEST(LadderPairs, RejectsNonPositiveInterval) {
  EXPECT_THROW(ladder_pairs(x_line(10), 0.0), std::invalid_argument);
}

TEST(LadderPairs, EmptyProfileGivesNoPairs) {
  EXPECT_TRUE(ladder_pairs({}, 0.1).empty());
}

// The binary-search ladder: one lower_bound per (anchor, rung). The
// library's cursor walk must emit exactly these pairs in this order.
std::vector<IndexPair> ladder_pairs_reference(
    const signal::PhaseProfile& profile, double interval, double tolerance,
    std::size_t stride) {
  if (stride == 0) stride = 1;
  const auto arcs = signal::arc_lengths(profile);
  if (arcs.empty()) return {};
  const double total = arcs.back();
  std::vector<IndexPair> pairs;
  for (std::size_t i = 0; i < profile.size(); i += stride) {
    for (double offset = interval; arcs[i] + offset <= total + tolerance;
         offset *= 2.0) {
      const double target = arcs[i] + offset;
      const auto it = std::lower_bound(
          arcs.begin() + static_cast<std::ptrdiff_t>(i) + 1, arcs.end(),
          target);
      if (it == arcs.end()) break;
      const auto j = static_cast<std::size_t>(it - arcs.begin());
      if (*it - target <= tolerance && j != i) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

void expect_ladder_matches_reference(const signal::PhaseProfile& profile,
                                     double interval, double tolerance,
                                     std::size_t stride) {
  EXPECT_EQ(ladder_pairs(profile, interval, tolerance, stride),
            ladder_pairs_reference(profile, interval, tolerance, stride))
      << "interval " << interval << " tolerance " << tolerance << " stride "
      << stride;
}

TEST(LadderPairs, CursorWalkMatchesBinarySearchOnJitteredScans) {
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> step(0.0, 0.02);
  for (int trial = 0; trial < 20; ++trial) {
    signal::PhaseProfile profile;
    double x = 0.0;
    for (int i = 0; i < 300; ++i) {
      x += step(rng);
      profile.push_back({{x, 0.01 * (i % 3), 0.0}, 0.0, 0.0});
    }
    for (const double interval : {0.01, 0.05, 0.1, 0.37}) {
      for (const double tol : {0.0, 0.005, 0.02, 0.1}) {
        for (const std::size_t stride : {1u, 2u, 7u}) {
          expect_ladder_matches_reference(profile, interval, tol, stride);
        }
      }
    }
  }
}

TEST(LadderPairs, CursorWalkMatchesBinarySearchOnRepeatedArcs) {
  // Runs of samples at one position (a stalled tag) repeat arc values;
  // lower_bound picks the first of a run, and so must the cursor.
  signal::PhaseProfile profile;
  for (int i = 0; i < 60; ++i) {
    const double x = 0.02 * (i / 4);  // four reads per position
    profile.push_back({{x, 0.0, 0.0}, 0.0, 0.0});
  }
  for (const double interval : {0.02, 0.04, 0.06, 0.1}) {
    for (const std::size_t stride : {1u, 3u}) {
      expect_ladder_matches_reference(profile, interval, 0.0, stride);
      expect_ladder_matches_reference(profile, interval, 0.01, stride);
    }
  }
  // Every sample at one position: all arcs zero.
  const signal::PhaseProfile still(10, {{0.5, 0.5, 0.0}, 0.0, 0.0});
  expect_ladder_matches_reference(still, 0.1, 0.2, 1);
}

TEST(LadderPairs, CursorWalkMatchesBinarySearchAtToleranceEdges) {
  // 1 cm grid: rung targets land exactly on samples, and tolerances of
  // 0 / just below / exactly the overshoot decide acceptance.
  const auto profile = x_line(101);
  for (const double interval : {0.015, 0.025, 0.03}) {
    for (const double tol : {0.0, 0.0049, 0.005, 0.0051, 0.01}) {
      expect_ladder_matches_reference(profile, interval, tol, 1);
      expect_ladder_matches_reference(profile, interval, tol, 4);
    }
  }
}

TEST(LadderPairs, CursorWalkMatchesBinarySearchAcrossSegmentGaps) {
  // Three segments with transit jumps between them: rungs landing in a
  // gap overshoot their target and are dropped by the tolerance.
  signal::PhaseProfile profile;
  for (int seg = 0; seg < 3; ++seg) {
    for (int i = 0; i <= 50; ++i) {
      profile.push_back({{0.01 * i + 0.7 * seg, 0.3 * seg, 0.0}, 0.0, 0.0});
    }
  }
  for (const double interval : {0.05, 0.2, 0.45}) {
    for (const double tol : {0.02, 0.1, 0.5}) {
      for (const std::size_t stride : {1u, 5u, 50u}) {
        expect_ladder_matches_reference(profile, interval, tol, stride);
      }
    }
  }
}

TEST(SpreadPairs, AllPairsRespectMinSeparation) {
  const auto profile = x_line(51);
  const auto pairs = spread_pairs(profile, 0.3);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [i, j] : pairs) {
    EXPECT_GE(linalg::distance(profile[i].position, profile[j].position),
              0.3 - 1e-12);
  }
}

TEST(SpreadPairs, CapRespected) {
  const auto profile = x_line(101);
  const auto pairs = spread_pairs(profile, 0.05, 17);
  EXPECT_EQ(pairs.size(), 17u);
}

TEST(SpreadPairs, ZeroSeparationGivesAllPairs) {
  const auto profile = x_line(5);
  const auto pairs = spread_pairs(profile, 1e-9, 1000);
  EXPECT_EQ(pairs.size(), 10u);  // C(5,2)
}

TEST(ThreeLinePairs, GeneratesAllThreeKinds) {
  sim::ThreeLineRig rig;
  rig.x_min = -0.4;
  rig.x_max = 0.4;
  // Build a dense profile on the rig lines (no transits for simplicity).
  signal::PhaseProfile profile;
  for (int line = 0; line < 3; ++line) {
    for (double x = rig.x_min; x <= rig.x_max + 1e-9; x += 0.005) {
      profile.push_back({rig.point_on_line(line, x), 0.0, 0.0});
    }
  }
  const auto pairs = three_line_pairs(profile, rig, 0.2);
  ASSERT_FALSE(pairs.empty());
  int along = 0;
  int cross_y = 0;
  int cross_z = 0;
  for (const auto& [i, j] : pairs) {
    const Vec3 diff = profile[j].position - profile[i].position;
    if (std::abs(diff[0]) > 0.1) {
      ++along;
    } else if (std::abs(diff[1]) > 0.1) {
      ++cross_y;
    } else if (std::abs(diff[2]) > 0.1) {
      ++cross_z;
    }
  }
  EXPECT_GT(along, 0);
  EXPECT_GT(cross_y, 0);
  EXPECT_GT(cross_z, 0);
}

TEST(ThreeLinePairs, EmptyWhenProfileOffRig) {
  sim::ThreeLineRig rig;
  signal::PhaseProfile profile;
  for (int i = 0; i < 20; ++i) {
    profile.push_back({{0.01 * i, 5.0, 5.0}, 0.0, 0.0});  // far from rig
  }
  EXPECT_TRUE(three_line_pairs(profile, rig, 0.2).empty());
}

TEST(ThreeLinePairs, RejectsNonPositiveInterval) {
  sim::ThreeLineRig rig;
  EXPECT_THROW(three_line_pairs(x_line(10), rig, 0.0), std::invalid_argument);
}

TEST(RestrictToXRange, KeepsOnlyWindow) {
  // Power-of-two spacing keeps the boundary arithmetic exact.
  const auto profile = x_line(65, 0.015625);  // 0..1 m in 1/64 steps
  const auto windowed = restrict_to_x_range(profile, 0.5, 0.5);
  ASSERT_FALSE(windowed.empty());
  for (const auto& p : windowed) {
    EXPECT_GE(p.position[0], 0.25);
    EXPECT_LE(p.position[0], 0.75);
  }
  // x in [0.25, 0.75] -> i in [16, 48] -> 33 points.
  EXPECT_EQ(windowed.size(), 33u);
}

TEST(RestrictToXRange, EmptyWindowWhenOutside) {
  const auto profile = x_line(11);
  EXPECT_TRUE(restrict_to_x_range(profile, 5.0, 0.2).empty());
}

TEST(RestrictToXRange, RejectsNonPositiveRange) {
  EXPECT_THROW(restrict_to_x_range(x_line(5), 0.0, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace lion::core
