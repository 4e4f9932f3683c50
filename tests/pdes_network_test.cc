// Integration tests: TCP over a leaf-spine partitioned across PDES
// partitions (the substrate of the Figure 1 experiment).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/pdes_builder.h"
#include "workload/generator.h"

namespace esim::core {
namespace {

using sim::ParallelEngine;
using sim::SimTime;

NetworkConfig leaf_spine(std::uint32_t tors, std::uint32_t spines,
                         std::uint32_t hosts_per_tor = 4) {
  NetworkConfig cfg;
  cfg.spec.clusters = 1;
  cfg.spec.tors_per_cluster = tors;
  cfg.spec.aggs_per_cluster = spines;
  cfg.spec.hosts_per_tor = hosts_per_tor;
  cfg.spec.cores = 0;
  return cfg;
}

ParallelEngine::Config engine_config(std::uint32_t partitions) {
  ParallelEngine::Config cfg;
  cfg.num_partitions = partitions;
  cfg.lookahead = SimTime::from_us(1);  // = link propagation
  cfg.seed = 3;
  return cfg;
}

TEST(PdesBuilder, PlacesAndWires) {
  ParallelEngine engine{engine_config(2)};
  const auto net = build_clos_partitioned(engine, leaf_spine(4, 4));
  EXPECT_EQ(net.hosts.size(), 16u);
  EXPECT_EQ(net.switches.size(), 8u);
  for (auto* h : net.hosts) ASSERT_NE(h, nullptr);
  for (auto* s : net.switches) ASSERT_NE(s, nullptr);
  // Placement comes from the plan; both partitions must be used and host
  // placement must follow the rack.
  EXPECT_EQ(net.partition_of_switch, net.plan.partition_of_switch);
  std::vector<std::uint32_t> used(2, 0);
  for (const auto p : net.partition_of_switch) {
    ASSERT_LT(p, 2u);
    ++used[p];
  }
  EXPECT_GT(used[0], 0u);
  EXPECT_GT(used[1], 0u);
  for (net::HostId h = 0; h < net.spec.total_hosts(); ++h) {
    EXPECT_EQ(net.partition_of_host[h],
              net.partition_of_switch[net.spec.tor_of_host(h)]);
  }
  // The wired cross-link count is exactly the plan's reported cut. On a
  // leaf-spine every balanced placement cuts half the 4x4x2 fabric links.
  EXPECT_EQ(net.cross_partition_links, net.plan.cut_links);
  EXPECT_EQ(net.plan.total_links, 32u);
  EXPECT_EQ(net.cross_partition_links, 16u);
}

TEST(PdesBuilder, RoundRobinPolicyMatchesLegacyPlacement) {
  ParallelEngine engine{engine_config(2)};
  const auto net = build_clos_partitioned(
      engine, leaf_spine(4, 4), PlacementPolicy::round_robin);
  // Legacy layout: rack r -> partition r % P, spines keep rotating.
  EXPECT_EQ(net.partition_of_switch[0], 0u);
  EXPECT_EQ(net.partition_of_switch[1], 1u);
  EXPECT_EQ(net.partition_of_host[0], 0u);
  EXPECT_EQ(net.partition_of_host[4], 1u);
  EXPECT_EQ(net.cross_partition_links, 16u);
}

TEST(PdesBuilder, GraphCutColocatesClustersOnFatTree) {
  // 4-cluster Clos over 4 partitions: graph-cut keeps each cluster whole
  // (only agg<->core links can cross), while round-robin shreds every
  // cluster across every partition.
  NetworkConfig cfg;
  cfg.spec.clusters = 4;
  cfg.spec.tors_per_cluster = 4;
  cfg.spec.aggs_per_cluster = 2;
  cfg.spec.hosts_per_tor = 2;
  cfg.spec.cores = 2;

  ParallelEngine cut_engine{engine_config(4)};
  const auto cut =
      build_clos_partitioned(cut_engine, cfg, PlacementPolicy::graph_cut);
  ParallelEngine rr_engine{engine_config(4)};
  const auto rr =
      build_clos_partitioned(rr_engine, cfg, PlacementPolicy::round_robin);

  EXPECT_LT(cut.plan.cut_links, rr.plan.cut_links);
  // Every cluster's switches share one partition under graph-cut.
  for (std::uint32_t c = 0; c < cfg.spec.clusters; ++c) {
    const auto p = cut.partition_of_switch[cfg.spec.tor_id(c, 0)];
    for (std::uint32_t t = 0; t < cfg.spec.tors_per_cluster; ++t) {
      EXPECT_EQ(cut.partition_of_switch[cfg.spec.tor_id(c, t)], p);
    }
    for (std::uint32_t a = 0; a < cfg.spec.aggs_per_cluster; ++a) {
      EXPECT_EQ(cut.partition_of_switch[cfg.spec.agg_id(c, a)], p);
    }
  }
}

TEST(PdesBuilder, RejectsExcessiveLookahead) {
  auto ecfg = engine_config(2);
  ecfg.lookahead = SimTime::from_us(50);  // > 1us propagation
  ParallelEngine engine{ecfg};
  EXPECT_THROW(build_clos_partitioned(engine, leaf_spine(2, 2)),
               std::invalid_argument);
}

TEST(PdesNetwork, CrossPartitionFlowCompletes) {
  ParallelEngine engine{engine_config(2)};
  auto net = build_clos_partitioned(engine, leaf_spine(2, 2));
  // Host 0 lives in partition 0, host 4 (rack 1) in partition 1.
  std::atomic<bool> complete{false};
  auto& sim0 = engine.partition(0).sim();
  sim0.schedule_at(SimTime::from_us(10), [&] {
    auto* c = net.hosts[0]->open_flow(4, 50'000, 1);
    c->on_complete = [&] { complete.store(true); };
  });
  engine.run_until(SimTime::from_ms(100));
  EXPECT_TRUE(complete.load());
  EXPECT_GT(engine.stats().cross_messages, 50u);
  EXPECT_GT(engine.stats().sync_rounds, 20u);
}

TEST(PdesNetwork, ManyFlowsAcrossFourPartitions) {
  ParallelEngine engine{engine_config(4)};
  auto net = build_clos_partitioned(engine, leaf_spine(8, 8));
  // One flow per partition, each sourced from a host that partition owns
  // (looked up via the plan, not assumed from legacy placement).
  std::vector<net::HostId> src_of_partition(4, net::HostId{0});
  std::vector<bool> found(4, false);
  for (net::HostId h = 0; h < net.spec.total_hosts(); ++h) {
    const std::uint32_t p = net.partition_of_host[h];
    if (!found[p]) {
      src_of_partition[p] = h;
      found[p] = true;
    }
  }
  std::atomic<int> completions{0};
  for (std::uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(found[p]) << "partition " << p << " owns no host";
    auto& psim = engine.partition(p).sim();
    const net::HostId src = src_of_partition[p];
    psim.schedule_at(SimTime::from_us(10 + p), [&net, &completions, src, p] {
      // Send to the next rack over (always a different ToR).
      const net::HostId dst =
          (src + net.spec.hosts_per_tor) % net.spec.total_hosts();
      auto* c = net.hosts[src]->open_flow(dst, 20'000,
                                          static_cast<std::uint64_t>(p));
      c->on_complete = [&completions] { completions.fetch_add(1); };
    });
  }
  engine.run_until(SimTime::from_ms(100));
  EXPECT_EQ(completions.load(), 4);
}

TEST(PdesNetwork, FatTreeCrossClusterFlowMatchesSequential) {
  // A cross-cluster flow on a 2-cluster Clos partitioned over 2 engines
  // must behave exactly as in the sequential full build.
  NetworkConfig cfg;
  cfg.spec.clusters = 2;
  cfg.spec.tors_per_cluster = 2;
  cfg.spec.aggs_per_cluster = 2;
  cfg.spec.hosts_per_tor = 2;
  cfg.spec.cores = 2;
  const net::HostId src = 0;
  const net::HostId dst = cfg.spec.hosts_per_cluster();  // first host, c1

  auto run_pdes = [&] {
    ParallelEngine engine{engine_config(2)};
    auto net = build_clos_partitioned(engine, cfg);
    tcp::TcpConnection* conn = nullptr;
    auto& ssim = engine.partition(net.partition_of_host[src]).sim();
    ssim.schedule_at(SimTime::from_us(10),
                     [&] { conn = net.hosts[src]->open_flow(dst, 60'000, 1); });
    engine.run_until(SimTime::from_ms(100));
    return conn->stats().segments_sent;
  };
  auto run_seq = [&] {
    sim::Simulator sim{3};
    auto net = build_full_network(sim, cfg);
    tcp::TcpConnection* conn = nullptr;
    sim.schedule_at(SimTime::from_us(10),
                    [&] { conn = net.hosts[src]->open_flow(dst, 60'000, 1); });
    sim.run_until(SimTime::from_ms(100));
    return conn->stats().segments_sent;
  };
  const auto pdes_segments = run_pdes();
  EXPECT_GT(pdes_segments, 0u);
  EXPECT_EQ(pdes_segments, run_seq());
}

TEST(PdesNetwork, MatchesSingleThreadedFlowOutcome) {
  // The same single flow on the same topology must complete with the same
  // number of segments under PDES as under the sequential engine
  // (deterministic TCP, no contention).
  auto run_pdes = [] {
    ParallelEngine engine{engine_config(2)};
    auto net = build_clos_partitioned(engine, leaf_spine(2, 2));
    std::atomic<std::uint64_t> segments{0};
    auto& sim0 = engine.partition(0).sim();
    tcp::TcpConnection* conn = nullptr;
    sim0.schedule_at(SimTime::from_us(10), [&] {
      conn = net.hosts[0]->open_flow(4, 100'000, 1);
    });
    engine.run_until(SimTime::from_ms(100));
    segments = conn->stats().segments_sent;
    return segments.load();
  };
  auto run_seq = [] {
    sim::Simulator sim{3};  // partition 0 seed in the parallel engine
    auto net = build_full_network(sim, leaf_spine(2, 2));
    tcp::TcpConnection* conn = nullptr;
    sim.schedule_at(SimTime::from_us(10),
                    [&] { conn = net.hosts[0]->open_flow(4, 100'000, 1); });
    sim.run_until(SimTime::from_ms(100));
    return conn->stats().segments_sent;
  };
  EXPECT_EQ(run_pdes(), run_seq());
}

TEST(PdesNetwork, PerPartitionGeneratorsDriveLoad) {
  ParallelEngine engine{engine_config(2)};
  auto net = build_clos_partitioned(engine, leaf_spine(4, 4));
  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{net.spec.total_hosts()};
  std::vector<workload::TrafficGenerator*> gens;
  for (std::uint32_t p = 0; p < 2; ++p) {
    auto& psim = engine.partition(p).sim();
    workload::TrafficGenerator::Config gcfg;
    gcfg.load = 0.2;
    gcfg.stop_at = SimTime::from_ms(5);
    auto* gen = psim.add_component<workload::TrafficGenerator>(
        "gen" + std::to_string(p), net.hosts, sizes.get(), &matrix, gcfg);
    gen->admission_filter = [&net, p](net::HostId src, net::HostId) {
      return net.partition_of_host[src] == p;
    };
    gen->start();
    gens.push_back(gen);
  }
  engine.run_until(SimTime::from_ms(60));
  std::uint64_t launched = 0, completed = 0;
  for (auto* g : gens) {
    launched += g->launched();
    completed += g->flows().completed_count();
    EXPECT_GT(g->suppressed(), 0u);  // filter active
  }
  EXPECT_GT(launched, 20u);
  EXPECT_GT(completed, launched * 3 / 4);
}

// Four partitions of a 4-cluster Clos with 8us core links, one traffic
// generator per partition.
struct RoundCounts {
  std::uint64_t sync_rounds = 0;
  std::uint64_t cross_messages = 0;
  std::uint64_t events = 0;
  std::uint64_t overflow_posts = 0;
  std::vector<std::int64_t> flow_end_ns;  // by generator, in start order
};

RoundCounts run_generator_scenario(ParallelEngine::WindowMode mode,
                                   PlacementPolicy policy,
                                   std::size_t ring_capacity) {
  auto ecfg = engine_config(4);
  ecfg.window_mode = mode;
  ecfg.ring_capacity = ring_capacity;
  ParallelEngine engine{ecfg};
  NetworkConfig cfg;
  cfg.spec.clusters = 4;
  cfg.spec.tors_per_cluster = 4;
  cfg.spec.aggs_per_cluster = 2;
  cfg.spec.hosts_per_tor = 2;
  cfg.spec.cores = 2;
  cfg.core_link = cfg.fabric_link;
  cfg.core_link->propagation = SimTime::from_us(8);
  auto net = build_clos_partitioned(engine, cfg, policy);
  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{net.spec.total_hosts()};
  std::vector<workload::TrafficGenerator*> gens;
  for (std::uint32_t p = 0; p < 4; ++p) {
    workload::TrafficGenerator::Config gcfg;
    gcfg.load = 0.2;
    gcfg.stop_at = SimTime::from_ms(1);
    auto* gen =
        engine.partition(p).sim().add_component<workload::TrafficGenerator>(
            "gen" + std::to_string(p), net.hosts, sizes.get(), &matrix, gcfg);
    gen->admission_filter = [&net, p](net::HostId src, net::HostId) {
      return net.partition_of_host[src] == p;
    };
    gen->start();
    gens.push_back(gen);
  }
  engine.run_until(SimTime::from_ms(3));
  RoundCounts c;
  c.sync_rounds = engine.stats().sync_rounds;
  c.cross_messages = engine.stats().cross_messages;
  c.events = engine.stats().events_executed;
  for (std::uint32_t p = 0; p < 4; ++p) {
    c.overflow_posts += engine.partition(p).overflow_posts();
  }
  for (auto* g : gens) {
    for (const auto& r : g->flows().records()) {
      c.flow_end_ns.push_back(r.completed ? r.end.ns() : -1);
    }
  }
  return c;
}

// Pinned from the two-barrier round protocol (drain, barrier, window,
// barrier): the one-barrier round computes every window from published
// FES heads and message counts instead, and must step the identical
// window sequence — same rounds, same messages, same events.
TEST(PdesNetwork, RoundAndMessageCountsArePinned) {
  const auto per_pair = run_generator_scenario(
      ParallelEngine::WindowMode::per_pair, PlacementPolicy::graph_cut, 1024);
  EXPECT_EQ(per_pair.sync_rounds, 177u);
  EXPECT_EQ(per_pair.cross_messages, 15238u);
  EXPECT_EQ(per_pair.events, 139876u);
  const auto global = run_generator_scenario(
      ParallelEngine::WindowMode::global, PlacementPolicy::round_robin, 1024);
  EXPECT_EQ(global.sync_rounds, 1519u);
  EXPECT_EQ(global.cross_messages, 36798u);
  EXPECT_EQ(global.events, 149195u);
}

// Two-slot rings spill most cross-partition packets to the overflow list,
// partly while the destination is still draining the previous window:
// the run must be unchanged, flow for flow.
TEST(PdesNetwork, TinyRingsOverflowWithoutChangingTheRun) {
  const auto roomy = run_generator_scenario(
      ParallelEngine::WindowMode::per_pair, PlacementPolicy::graph_cut, 1024);
  const auto tiny = run_generator_scenario(
      ParallelEngine::WindowMode::per_pair, PlacementPolicy::graph_cut, 2);
  EXPECT_EQ(roomy.overflow_posts, 0u);
  EXPECT_GT(tiny.overflow_posts, 0u);
  EXPECT_EQ(tiny.sync_rounds, roomy.sync_rounds);
  EXPECT_EQ(tiny.cross_messages, roomy.cross_messages);
  EXPECT_EQ(tiny.events, roomy.events);
  EXPECT_FALSE(roomy.flow_end_ns.empty());
  EXPECT_EQ(tiny.flow_end_ns, roomy.flow_end_ns);
}

}  // namespace
}  // namespace esim::core
