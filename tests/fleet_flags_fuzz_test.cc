// Fuzz-style tests for the `phillyctl fleet` flag grammar, in the
// trace_fuzz_test.cc mold: adversarial inputs assembled from an atom
// alphabet, plus the known malformed cases the CLI must reject.
//
// phillyctl funnels `--clusters` through ParseClustersSpec; `--router` and
// `--spill-threshold` are checked by phillyctl's flag table (a choice list in
// RouterPolicy order, a bounded whole-string integer), and
// RouterPolicyFromString is the library's parser for the same names, so
// fuzzing these entry points covers the fleet grammar. The contract under test:
// malformed values are rejected (the CLI then exits 1 with the validator's
// message), never crash, and never silently produce a default or partially
// parsed config. The CI fleet smoke step drives one malformed invocation
// through the real binary to pin the exit code itself.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/fleet/fleet.h"
#include "src/fleet/router.h"

namespace philly {
namespace {

// ------------------------------------------------------------ --clusters

TEST(FleetFlagsFuzzTest, KnownMalformedClusterSpecsAreRejected) {
  const std::vector<std::string> kMalformed = {
      "",        "0",         "65",        "-3",       "+3",
      " 3",      "3 ",        "3.5",       "1e2",      "bogus",
      "x",       "1x",        "x8",        "2x8x",     "2x8x8x2",
      "2x8x17",  "2x0x8",     "0x8",       "2x-8",     "1025x8",
      "2x1025",  "2x8x8,",    ",2x8x8",    "2x8x8,,2x8x8",
      "2x8x8, 2x8x8",         "2x8x8,bogus",
      "99999999999999999999", "2x99999999999999999999",
  };
  for (const std::string& spec : kMalformed) {
    SCOPED_TRACE("spec '" + spec + "'");
    std::vector<ClusterConfig> clusters = {ClusterConfig::PaperScale()};
    const std::vector<ClusterConfig> before = clusters;
    std::string error;
    EXPECT_FALSE(ParseClustersSpec(spec, &clusters, &error));
    EXPECT_FALSE(error.empty()) << "rejection must carry a message";
    // No partial output: the caller's vector is untouched on failure.
    ASSERT_EQ(clusters.size(), before.size());
    EXPECT_EQ(clusters[0].TotalGpus(), before[0].TotalGpus());
  }
  // "2x8,2x8" truncated at the last entry is still well-formed ("2x8"), so it
  // must parse — the trailing-comma case above is the malformed sibling.
  std::vector<ClusterConfig> clusters;
  std::string error;
  EXPECT_TRUE(ParseClustersSpec("2x8,2x8", &clusters, &error)) << error;
  ASSERT_EQ(clusters.size(), 2u);
}

TEST(FleetFlagsFuzzTest, ValidClusterSpecsParseToTheSpelledTopology) {
  Rng rng(91);
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.Between(1, 5));
    std::string spec;
    std::vector<int> expected_gpus;
    for (int i = 0; i < n; ++i) {
      const int racks = static_cast<int>(rng.Between(1, 12));
      const int servers = static_cast<int>(rng.Between(1, 40));
      const bool explicit_g = rng.Bernoulli(0.5);
      const int gpus = explicit_g ? static_cast<int>(rng.Between(1, 16)) : 8;
      if (i > 0) {
        spec += ',';
      }
      spec += std::to_string(racks) + "x" + std::to_string(servers);
      if (explicit_g) {
        spec += "x" + std::to_string(gpus);
      }
      expected_gpus.push_back(racks * servers * gpus);
    }
    SCOPED_TRACE("spec '" + spec + "'");
    std::vector<ClusterConfig> clusters;
    std::string error;
    ASSERT_TRUE(ParseClustersSpec(spec, &clusters, &error)) << error;
    ASSERT_EQ(clusters.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(clusters[static_cast<size_t>(i)].TotalGpus(), expected_gpus[static_cast<size_t>(i)]);
    }
  }
  // Count form: "N" paper-scale clusters.
  std::vector<ClusterConfig> clusters;
  std::string error;
  ASSERT_TRUE(ParseClustersSpec("4", &clusters, &error)) << error;
  ASSERT_EQ(clusters.size(), 4u);
  EXPECT_EQ(clusters[0].TotalGpus(), ClusterConfig::PaperScale().TotalGpus());
}

// Random mutations of valid specs: the parser must either reject with a
// message and no partial output, or accept and yield only in-range topologies
// — and it must never crash on any byte soup.
TEST(FleetFlagsFuzzTest, RandomSpecSoupNeverCrashesOrHalfParses) {
  static const std::vector<std::string> kAtoms = {
      "2x8x8", "1x16", "3",   ",", "x",  "0",  "-", "+",  " ",
      "8",     "1024", "17",  "", "x8", "2x", "9999999999999999999",
  };
  Rng rng(1337);
  for (int round = 0; round < 500; ++round) {
    std::string spec;
    const int atoms = static_cast<int>(rng.Between(1, 6));
    for (int i = 0; i < atoms; ++i) {
      spec += kAtoms[rng.Below(kAtoms.size())];
    }
    SCOPED_TRACE("round " + std::to_string(round) + " spec '" + spec + "'");
    std::vector<ClusterConfig> clusters;
    std::string error;
    const bool ok = ParseClustersSpec(spec, &clusters, &error);
    if (!ok) {
      EXPECT_FALSE(error.empty());
      EXPECT_TRUE(clusters.empty()) << "partial output on failure";
      continue;
    }
    ASSERT_FALSE(clusters.empty());
    ASSERT_LE(clusters.size(), 64u);
    for (const ClusterConfig& cluster : clusters) {
      // Count-form specs yield paper-scale clusters (two SKUs); list-form
      // entries yield one SKU each. Either way every dimension is in range.
      ASSERT_FALSE(cluster.skus.empty());
      for (const auto& sku : cluster.skus) {
        EXPECT_GE(sku.racks, 1);
        EXPECT_LE(sku.racks, 1024);
        EXPECT_GE(sku.servers_per_rack, 1);
        EXPECT_LE(sku.servers_per_rack, 1024);
        EXPECT_GE(sku.gpus_per_server, 1);
        EXPECT_LE(sku.gpus_per_server, 16);
      }
    }
  }
}

// -------------------------------------------------------------- --router

TEST(FleetFlagsFuzzTest, RouterPolicyNamesRoundTripAndRejectEverythingElse) {
  for (const RouterPolicy policy :
       {RouterPolicy::kPinnedHome, RouterPolicy::kLeastLoaded,
        RouterPolicy::kSpillover}) {
    RouterPolicy parsed = RouterPolicy::kPinnedHome;
    ASSERT_TRUE(RouterPolicyFromString(ToString(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  const std::vector<std::string> kBad = {
      "",          "Pinned",     "pinned ",   " pinned", "pinned-home",
      "least",     "leastloaded", "least_loaded", "spill", "spillover ",
      "SPILLOVER", "teleport",   "0",         "pinned\n",
  };
  for (const std::string& name : kBad) {
    SCOPED_TRACE("name '" + name + "'");
    // Pre-set to a sentinel: a rejecting parse must not write through.
    RouterPolicy parsed = RouterPolicy::kSpillover;
    EXPECT_FALSE(RouterPolicyFromString(name, &parsed));
    EXPECT_EQ(parsed, RouterPolicy::kSpillover) << "silent default on reject";
  }
}

// ------------------------------------------------------ --spill-threshold

// The CLI's strict integer parse rejects junk before construction; values
// that parse but are out of range die in the FleetSimulation constructor.
// Both layers together mean no malformed threshold ever reaches routing.
TEST(FleetFlagsFuzzTest, NegativeSpillThresholdsAreRejectedAtConstruction) {
  std::vector<ClusterConfig> topologies;
  std::string error;
  ASSERT_TRUE(ParseClustersSpec("1x4x4,1x4x4", &topologies, &error)) << error;
  for (const int64_t threshold : {-1, -7, -1000000}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    FleetConfig config;
    for (size_t i = 0; i < topologies.size(); ++i) {
      config.clusters.push_back(
          {"c" + std::to_string(i),
           FleetClusterExperiment(topologies[i], /*days=*/1, /*base_seed=*/1,
                                  static_cast<int>(i))});
    }
    config.router.policy = RouterPolicy::kSpillover;
    config.router.spill_threshold = threshold;
    EXPECT_THROW(FleetSimulation(std::move(config)), std::invalid_argument);
  }
}

}  // namespace
}  // namespace philly
