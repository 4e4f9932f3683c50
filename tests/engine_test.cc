// Tests for the engine handle (core::Engine): parts per configuration,
// the two traffic entry points on both engine kinds, and the counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "check/diff_runner.h"
#include "check/digest.h"
#include "check/scenario.h"
#include "core/engine.h"

namespace esim::core {
namespace {

using check::EngineSpec;

check::Scenario small_scenario() {
  check::Scenario sc;
  sc.seed = 99;
  sc.tors = 2;
  sc.spines = 2;
  sc.hosts_per_tor = 2;
  sc.duration_ns = 2'000'000;
  sc.flows = {
      FlowSpec{0, 2, 30'000, 5'000, 1},
      FlowSpec{1, 3, 20'000, 7'000, 2},
      FlowSpec{3, 0, 15'000, 9'000, 3},
  };
  sc.validate();
  return sc;
}

TEST(CoreEngine, PartsFollowTheSpec) {
  const Engine sequential{EngineSpec{}.engine_config(7)};
  EXPECT_EQ(sequential.parts().size(), 1u);
  const Engine pdes{EngineSpec{3}.engine_config(7)};
  ASSERT_EQ(pdes.parts().size(), 3u);
  const std::set<const sim::Simulator*> distinct(pdes.parts().begin(),
                                                 pdes.parts().end());
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(CoreEngine, InjectFlowsSchedulesEachFlowOnItsSourcePartition) {
  const check::Scenario sc = small_scenario();
  for (const std::uint32_t partitions : {0u, 2u}) {
    // Inverting the tie-break throws once events are queued, so it must
    // be applied before the build and the injection.
    const EngineSpec spec{partitions, /*invert_tiebreak=*/true};
    Engine engine{spec.engine_config(sc.seed)};
    spec.apply_tiebreak(engine);
    const auto net = engine.build_full(sc.network_config());
    std::vector<std::size_t> before;
    for (const sim::Simulator* part : engine.parts()) {
      before.push_back(part->events_pending());
    }
    check::StateDigest digest;
    for (sim::Simulator* part : engine.parts()) digest.attach(*part);
    check::inject_flows(engine, sc.flows, net, digest);
    for (std::uint32_t p = 0; p < engine.parts().size(); ++p) {
      std::size_t owned = 0;
      for (const FlowSpec& f : sc.flows) {
        if (net.partition_of_host[f.src] == p) ++owned;
      }
      EXPECT_EQ(engine.parts()[p]->events_pending() - before[p], owned)
          << "partitions " << partitions << ", part " << p;
    }
    EXPECT_EQ(digest.num_event_lanes(), engine.parts().size());
  }
}

TEST(CoreEngine, ScheduleFlowsReportsEveryCompletionOnBothEngines) {
  const check::Scenario sc = small_scenario();
  std::vector<std::vector<std::int64_t>> ends;
  for (const std::uint32_t partitions : {0u, 2u}) {
    Engine engine{EngineSpec{partitions}.engine_config(sc.seed)};
    const auto net = engine.build_full(sc.network_config());
    std::vector<std::int64_t> end_ns(sc.flows.size(), -1);
    engine.schedule_flows(net, sc.flows,
                          [&end_ns](const FlowSpec& f, sim::SimTime end) {
                            end_ns[f.flow_id - 1] = end.ns();
                          });
    engine.run_until(sim::SimTime::from_ns(sc.duration_ns));
    for (std::size_t i = 0; i < sc.flows.size(); ++i) {
      EXPECT_GT(end_ns[i], sc.flows[i].start_ns) << "flow " << i;
    }
    ends.push_back(end_ns);
  }
  EXPECT_EQ(ends[0], ends[1]);
}

TEST(CoreEngine, StartGeneratorsMakesOneGeneratorPerPart) {
  const check::Scenario sc = small_scenario();
  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{sc.total_hosts()};
  workload::TrafficGenerator::Config gcfg;
  gcfg.stop_at = sim::SimTime::from_us(100);
  const Engine::Admit to_host_0 = [](net::HostId, net::HostId dst) {
    return dst == 0;
  };

  Engine sequential{EngineSpec{}.engine_config(sc.seed)};
  const auto seq_net = sequential.build_full(sc.network_config());
  const auto seq_gens = sequential.start_generators(
      seq_net, sizes.get(), &matrix, gcfg, to_host_0);
  ASSERT_EQ(seq_gens.size(), 1u);
  EXPECT_EQ(seq_gens[0]->name(), "gen");
  EXPECT_TRUE(seq_gens[0]->admission_filter(3, 0));
  EXPECT_FALSE(seq_gens[0]->admission_filter(3, 1));

  Engine pdes{EngineSpec{2}.engine_config(sc.seed)};
  const auto net = pdes.build_full(sc.network_config());
  const auto gens =
      pdes.start_generators(net, sizes.get(), &matrix, gcfg, to_host_0);
  ASSERT_EQ(gens.size(), 2u);
  const auto open = pdes.start_generators(net, sizes.get(), &matrix, gcfg);
  for (std::uint32_t p = 0; p < 2; ++p) {
    EXPECT_EQ(gens[p]->name(), "gen" + std::to_string(p));
    EXPECT_EQ(&gens[p]->sim(), pdes.parts()[p]);
    for (net::HostId src = 1; src < sc.total_hosts(); ++src) {
      const bool owned = net.partition_of_host[src] == p;
      EXPECT_EQ(gens[p]->admission_filter(src, 0), owned);
      EXPECT_FALSE(gens[p]->admission_filter(src, src == 1 ? 2 : 1));
      EXPECT_EQ(open[p]->admission_filter(src, 0), owned);
    }
  }
}

TEST(CoreEngine, CountersReadTheEngine) {
  const check::Scenario sc = small_scenario();
  for (const std::uint32_t partitions : {0u, 2u}) {
    Engine engine{EngineSpec{partitions}.engine_config(sc.seed)};
    const auto net = engine.build_full(sc.network_config());
    engine.schedule_flows(net, sc.flows, [](const FlowSpec&, sim::SimTime) {});
    engine.run_until(sim::SimTime::from_ns(sc.duration_ns));
    const EngineCounters c = engine.counters();
    std::uint64_t executed = 0;
    for (const sim::Simulator* part : engine.parts()) {
      executed += part->events_executed();
    }
    EXPECT_GT(c.events_executed, 0u);
    EXPECT_EQ(c.events_executed, executed);
    EXPECT_GE(c.events_scheduled, c.events_executed);
    EXPECT_EQ(c.sync_rounds > 0, partitions > 0);
    EXPECT_EQ(c.cross_messages > 0, partitions > 0);
  }
}

}  // namespace
}  // namespace esim::core
