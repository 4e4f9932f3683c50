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
#include "memo/memo_diff.h"
#include "memo/memo_runner.h"

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

// PDES order lanes are otherwise only compared with themselves, so these
// pin the leaf-spine PDES engine settings (lookahead, window mode,
// placement) as well as the build.
TEST(GoldenResults, PdesLeafSpineDigests) {
  const Scenario sc = ScenarioFuzzer{2024}.next();
  expect_digest(DiffRunner{}.run(sc, EngineSpec{2}).digest,
                Digest{0x9b3e8d5059bc4d35ULL, 0x37990c24316de382ULL,
                       0x688760f5462b0da6ULL, 0x15600010df201bULL, 0x0, 7949,
                       3968, 4, 12, 0});
  expect_digest(DiffRunner{}.run(sc, EngineSpec{4}).digest,
                Digest{0xd1078d0d710d4693ULL, 0x37990c24316de382ULL,
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

/// Four phases of three cross-ToR flows on a 2x2 leaf-spine.
memo::PeriodicScenario golden_periodic() {
  Scenario base;
  base.seed = 99;
  base.tors = 2;
  base.spines = 2;
  base.hosts_per_tor = 2;
  base.duration_ns = 2'000'000;
  base.flows = {
      {0, 2, 30'000, 5'000, 1},
      {1, 3, 20'000, 7'000, 2},
      {3, 0, 15'000, 9'000, 3},
  };
  base.validate();
  return memo::make_periodic(base, 4, 1'000'000);
}

TEST(GoldenResults, MemoDigestsSequentialAndTwoPartitions) {
  const memo::PeriodicScenario ps = golden_periodic();
  struct Want {
    std::uint32_t partitions;
    Digest digest;
    std::uint64_t flows, hits, misses, stores;
  };
  const Want wants[] = {
      {0,
       Digest{0x53212b6b191572b6ULL, 0xefba526d74cb0f67ULL,
              0x10b45b05fdebbcb8ULL, 0x18effe12aba41c46ULL, 0x0, 3436, 1712,
              0, 12, 0},
       12, 2, 2, 2},
      {2,
       Digest{0xd10b630128d8d74eULL, 0xefba526d74cb0f67ULL,
              0x10b45b05fdebbcb8ULL, 0x18effe12aba41c46ULL, 0x0, 3436, 1712,
              0, 12, 0},
       12, 2, 2, 2},
  };
  for (const Want& w : wants) {
    SCOPED_TRACE(w.partitions);
    memo::MemoRunner runner{memo::MemoConfig{}};
    const memo::MemoRunOutcome out =
        runner.run(ps.scenario, ps.pattern, EngineSpec{w.partitions},
                   /*with_digest=*/true);
    expect_digest(out.digest, w.digest);
    EXPECT_EQ(out.flows_completed, w.flows);
    EXPECT_EQ(out.stats.hits, w.hits);
    EXPECT_EQ(out.stats.misses, w.misses);
    EXPECT_EQ(out.stats.stores, w.stores);
  }
}

TEST(GoldenResults, MemoAggregateFinalState) {
  const memo::PeriodicScenario ps = golden_periodic();
  memo::MemoRunner runner{memo::MemoConfig{}};
  const memo::MemoRunOutcome out =
      runner.run(ps.scenario, ps.pattern, EngineSpec{}, /*with_digest=*/false);
  EXPECT_EQ(out.final_state_fp, 0x18effe12aba41c46ULL);
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
