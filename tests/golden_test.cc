// Golden results: absolute digests and counts pinned from fixed inputs.
//
// Sequential-vs-PDES equality (check_test, hybrid_pdes_test, the fuzz
// tier) cannot see a change that moves both engines alike — a reordered
// component creation re-forks every RNG stream on both sides, a rewired
// FIB reroutes both. These tests pin the absolute outcome of one fixed
// run per build path, so any such drift fails here even when every
// cross-engine comparison still agrees.
#include <gtest/gtest.h>

#include <cstdint>

#include "check/diff_runner.h"
#include "check/fuzzer.h"
#include "check/hybrid_diff.h"
#include "core/experiment.h"

namespace esim::check {
namespace {

// Full equality, order lane included: each pinned run is compared with
// a run of its own engine configuration.
void expect_digest(const Digest& got, const Digest& want) {
  EXPECT_TRUE(got == want) << "got:  " << got.to_string()
                           << "\nwant: " << want.to_string();
}

TEST(GoldenResults, SequentialLeafSpineDigest) {
  const Scenario sc = ScenarioFuzzer{2024}.next();
  const auto run = DiffRunner{}.run(sc, EngineSpec{});
  expect_digest(run.digest,
                Digest{0x3aaa66f6b33e46efULL, 0x37990c24316de382ULL,
                       0x688760f5462b0da6ULL, 0x15600010df201bULL, 0x0, 7949,
                       3968, 4, 12, 0});
}

TEST(GoldenResults, HybridDigestsSequentialAndTwoPartitions) {
  const HybridScenario sc = random_hybrid_scenario(5);
  expect_digest(run_hybrid(sc, 0, /*batching=*/true),
                Digest{0x13c491179c81940aULL, 0x37924221a64d79f6ULL,
                       0x40afcb3a15c1b994ULL, 0x234875a05711e405ULL, 0x0,
                       5142, 2073, 0, 11, 0});
  expect_digest(run_hybrid(sc, 2, /*batching=*/true),
                Digest{0xec6966704a720e87ULL, 0x37924221a64d79f6ULL,
                       0x40afcb3a15c1b994ULL, 0x234875a05711e405ULL, 0x0,
                       5142, 2073, 0, 11, 0});
}

TEST(GoldenResults, FullSimulationCounts) {
  core::ExperimentConfig cfg;
  cfg.net.spec.clusters = 3;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 2;
  cfg.net.spec.cores = 2;
  cfg.duration = sim::SimTime::from_ms(3);
  const auto result = core::run_full_simulation(cfg, cfg.net.spec);
  EXPECT_EQ(result.events_executed, 257'391u);
  EXPECT_EQ(result.flows_completed, 584u);
}

}  // namespace
}  // namespace esim::check
