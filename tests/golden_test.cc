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
#include <memory>
#include <string>
#include <vector>

#include "check/diff_runner.h"
#include "check/fuzzer.h"
#include "check/hybrid_diff.h"
#include "core/experiment.h"
#include "memo/memo_diff.h"
#include "memo/memo_runner.h"
#include "sim/parallel.h"
#include "workload/generator.h"

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

/// A 2-ToR, 2-Agg, 2-host-per-ToR Clos with two cores.
core::ExperimentConfig small_clos(std::uint32_t clusters) {
  core::ExperimentConfig cfg;
  cfg.net.spec.clusters = clusters;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 2;
  cfg.net.spec.cores = 2;
  cfg.duration = sim::SimTime::from_ms(3);
  cfg.train_duration = sim::SimTime::from_ms(3);
  return cfg;
}

/// Untrained boundary models made the way HybridScenario::make_model
/// makes them: seeded weights, so the hybrid runs below pin the build and
/// the run path, not the trainer.
core::TrainedModels scenario_models() {
  const HybridScenario sc;
  core::TrainedModels models;
  models.ingress = std::make_unique<approx::MicroModel>(sc.make_model(0));
  models.egress = std::make_unique<approx::MicroModel>(sc.make_model(7));
  return models;
}

TEST(GoldenResults, BoundaryTraceRecords) {
  const core::BoundaryTrace trace =
      core::record_boundary_trace(small_clos(2));
  Hash64 h;
  for (const approx::BoundaryRecord& r : trace.records) {
    const net::Packet& p = r.packet;
    for (const std::uint64_t v :
         {p.id, std::uint64_t{p.flow.src_host}, std::uint64_t{p.flow.dst_host},
          std::uint64_t{p.flow.src_port}, std::uint64_t{p.flow.dst_port},
          p.flow_id, static_cast<std::uint64_t>(p.flags),
          std::uint64_t{p.seq}, std::uint64_t{p.ack_seq},
          std::uint64_t{p.payload}, std::uint64_t{p.ecn},
          std::uint64_t{p.ece},
          static_cast<std::uint64_t>(p.ts_echo.ns()),
          static_cast<std::uint64_t>(p.sent_at.ns()),
          static_cast<std::uint64_t>(r.direction),
          static_cast<std::uint64_t>(r.entry.ns()),
          static_cast<std::uint64_t>(r.exit.ns()), std::uint64_t{r.dropped},
          std::uint64_t{r.completed}}) {
      h.absorb(v);
    }
  }
  EXPECT_EQ(trace.records.size(), 18'916u);
  EXPECT_EQ(h.value(), 0x1400475f77d62b62ULL);
}

TEST(GoldenResults, HybridSimulationCounts) {
  const core::ExperimentConfig cfg = small_clos(3);
  const auto result =
      core::run_hybrid_simulation(cfg, cfg.net.spec, scenario_models());
  EXPECT_EQ(result.events_executed, 48'985u);
  EXPECT_EQ(result.flows_completed, 178u);
  const core::ApproxCluster::Stats& s = result.approx_stats;
  EXPECT_EQ(s.egress_packets, 1'593u);
  EXPECT_EQ(s.ingress_packets, 1'731u);
  EXPECT_EQ(s.intra_packets, 0u);
  EXPECT_EQ(s.predicted_drops, 500u);
  EXPECT_EQ(s.conflicts_resolved, 573u);
  EXPECT_EQ(s.backlog_drops, 0u);
  EXPECT_EQ(s.tier_packets[0], 0u);
  EXPECT_EQ(s.tier_packets[1], 3'824u);
  EXPECT_EQ(s.tier_packets[2], 0u);
  EXPECT_EQ(s.tier_transitions, 0u);
}

// fig5_parallel's PDES hybrid run: islands over two partitions, one
// generator per partition admitting its own sources and eliding
// approx<->approx traffic.
TEST(GoldenResults, PartitionedHybridGeneratorCounts) {
  const core::ExperimentConfig cfg = small_clos(4);
  const core::TrainedModels models = scenario_models();
  sim::ParallelEngine::Config ecfg;
  ecfg.num_partitions = 2;
  ecfg.lookahead = sim::SimTime::from_us(1);
  ecfg.seed = cfg.seed + 1;
  sim::ParallelEngine engine{ecfg};
  core::HybridConfig hcfg;
  hcfg.net = cfg.net;
  hcfg.approx = cfg.approx;
  hcfg.approx.macro = cfg.macro;
  const auto net = core::build_hybrid_network_partitioned(
      engine, hcfg, *models.ingress, *models.egress);
  auto sizes = workload::mini_web_distribution();
  workload::ClusterMixTraffic matrix{cfg.net.spec, cfg.intra_fraction};
  std::vector<workload::TrafficGenerator*> gens;
  for (std::uint32_t p = 0; p < 2; ++p) {
    workload::TrafficGenerator::Config gcfg;
    gcfg.load = cfg.load;
    gcfg.stop_at = cfg.duration;
    auto* gen =
        engine.partition(p).sim().add_component<workload::TrafficGenerator>(
            "gen" + std::to_string(p), net.hosts, sizes.get(), &matrix,
            gcfg);
    gen->admission_filter = [&net, p, &cfg](net::HostId src,
                                            net::HostId dst) {
      if (net.partition_of_host[src] != p) return false;
      return cfg.net.spec.cluster_of_host(src) == 0 ||
             cfg.net.spec.cluster_of_host(dst) == 0;
    };
    gen->start();
    gens.push_back(gen);
  }
  engine.run_until(cfg.duration);
  std::uint64_t launched = 0;
  for (const auto* g : gens) launched += g->launched();
  EXPECT_EQ(engine.stats().events_executed, 51'498u);
  EXPECT_EQ(engine.stats().sync_rounds, 2'825u);
  EXPECT_EQ(engine.stats().cross_messages, 4'273u);
  EXPECT_EQ(launched, 326u);
}

}  // namespace
}  // namespace esim::check
