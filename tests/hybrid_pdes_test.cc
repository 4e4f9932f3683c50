// Tests for the parallel (PDES-partitioned) hybrid simulator — the
// paper's third speedup source in §6.2.
#include <gtest/gtest.h>

#include <atomic>

#include "core/hybrid_builder.h"
#include "stats/collectors.h"

namespace esim::core {
namespace {

using approx::MicroModel;
using sim::ParallelEngine;
using sim::SimTime;

HybridConfig hybrid_config(std::uint32_t clusters) {
  HybridConfig cfg;
  cfg.net.spec.clusters = clusters;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 4;
  cfg.net.spec.cores = 2;
  return cfg;
}

ParallelEngine::Config engine_config(std::uint32_t partitions) {
  ParallelEngine::Config cfg;
  cfg.num_partitions = partitions;
  cfg.lookahead = SimTime::from_us(1);
  cfg.seed = 5;
  return cfg;
}

MicroModel benign_model(double latency_us) {
  MicroModel::Config cfg;
  cfg.hidden = 4;
  cfg.layers = 1;
  MicroModel m{cfg};
  m.drop_head().weight().zero();
  m.drop_head().bias().at(0, 0) = -20.0;
  m.latency_head().weight().zero();
  m.set_latency_normalization(std::log(latency_us), 1.0);
  return m;
}

TEST(HybridPdes, PlacesIslandsOnPartitions) {
  ParallelEngine engine{engine_config(3)};
  const auto m = benign_model(8.0);
  const auto out =
      build_hybrid_network_partitioned(engine, hybrid_config(4), m, m);
  // Full cluster 0 on partition 0; clusters 1..3 round-robin on 1..2.
  EXPECT_EQ(out.partition_of_cluster[1], 1u);
  EXPECT_EQ(out.partition_of_cluster[2], 2u);
  EXPECT_EQ(out.partition_of_cluster[3], 1u);
  for (net::HostId h = 0; h < 8; ++h) {
    EXPECT_EQ(out.partition_of_host[h], 0u);
  }
  for (net::HostId h = 8; h < 16; ++h) {
    EXPECT_EQ(out.partition_of_host[h], 1u);
  }
}

TEST(HybridPdes, RejectsCausalityViolations) {
  auto ecfg = engine_config(2);
  ecfg.lookahead = SimTime::from_us(50);  // > link prop and min latency
  ParallelEngine engine{ecfg};
  const auto m = benign_model(8.0);
  EXPECT_THROW(
      build_hybrid_network_partitioned(engine, hybrid_config(2), m, m),
      std::invalid_argument);
}

TEST(HybridPdes, CrossPartitionFlowsComplete) {
  ParallelEngine engine{engine_config(3)};
  const auto m = benign_model(8.0);
  auto out =
      build_hybrid_network_partitioned(engine, hybrid_config(4), m, m);
  std::atomic<int> completions{0};
  auto& sim0 = engine.partition(0).sim();
  // Full-cluster host -> approximated clusters on two different
  // partitions, plus the reverse direction.
  sim0.schedule_at(SimTime::from_us(10), [&] {
    auto* a = out.hosts[0]->open_flow(12, 40'000, 1);   // cluster 1
    a->on_complete = [&] { completions.fetch_add(1); };
    auto* b = out.hosts[1]->open_flow(20, 40'000, 2);   // cluster 2
    b->on_complete = [&] { completions.fetch_add(1); };
  });
  engine.partition(1).sim().schedule_at(SimTime::from_us(15), [&] {
    auto* c = out.hosts[9]->open_flow(2, 40'000, 3);    // back to full
    c->on_complete = [&] { completions.fetch_add(1); };
  });
  engine.run_until(SimTime::from_ms(200));
  EXPECT_EQ(completions.load(), 3);
  EXPECT_GT(engine.stats().cross_messages, 100u);
  EXPECT_GT(out.clusters[1]->stats().ingress_packets, 10u);
  EXPECT_GT(out.clusters[2]->stats().ingress_packets, 10u);
}

TEST(HybridPdes, MatchesSequentialHybridResults) {
  // The same single flow through a benign model must move the same number
  // of segments whether the approximated cluster runs in-partition or
  // across a PDES boundary.
  auto run_parallel = [] {
    ParallelEngine engine{engine_config(2)};
    const auto m = benign_model(8.0);
    auto out =
        build_hybrid_network_partitioned(engine, hybrid_config(2), m, m);
    tcp::TcpConnection* conn = nullptr;
    engine.partition(0).sim().schedule_at(SimTime::from_us(10), [&] {
      conn = out.hosts[0]->open_flow(12, 60'000, 1);
    });
    engine.run_until(SimTime::from_ms(100));
    return conn->stats().segments_sent;
  };
  auto run_sequential = [] {
    sim::Simulator sim{5};  // partition-0 seed above
    const auto m = benign_model(8.0);
    auto net = build_hybrid_network(sim, hybrid_config(2), m, m);
    tcp::TcpConnection* conn = nullptr;
    sim.schedule_at(SimTime::from_us(10),
                    [&] { conn = net.hosts[0]->open_flow(12, 60'000, 1); });
    sim.run_until(SimTime::from_ms(100));
    return conn->stats().segments_sent;
  };
  EXPECT_EQ(run_parallel(), run_sequential());
}

TEST(HybridPdes, SinglePartitionDegradesGracefully) {
  // P=1: everything lands on partition 0 and no remote schedulers exist.
  ParallelEngine engine{engine_config(1)};
  const auto m = benign_model(8.0);
  auto out =
      build_hybrid_network_partitioned(engine, hybrid_config(2), m, m);
  EXPECT_EQ(out.partition_of_cluster[1], 0u);
  std::atomic<bool> complete{false};
  engine.partition(0).sim().schedule_at(SimTime::from_us(10), [&] {
    auto* c = out.hosts[0]->open_flow(12, 20'000, 1);
    c->on_complete = [&] { complete.store(true); };
  });
  engine.run_until(SimTime::from_ms(100));
  EXPECT_TRUE(complete.load());
  EXPECT_EQ(engine.stats().cross_messages, 0u);
}

TEST(HybridPdes, CoreLinkConfigReachesHybridWiring) {
  // Hybrid builds share the full build's wiring, so NetworkConfig::
  // core_link sets the agg<->core links and the core -> ApproxCluster
  // links alike — and, partitioned, the core -> island pair lookahead.
  auto cfg = hybrid_config(3);
  cfg.net.core_link = cfg.net.fabric_link;
  cfg.net.core_link->propagation = SimTime::from_us(8);
  const auto m = benign_model(8.0);

  sim::Simulator sim{5};
  const auto net = build_hybrid_network(sim, cfg, m, m);
  ASSERT_EQ(net.core_links.size(), 4u);  // 2 full-cluster aggs x 2 cores
  for (const auto& att : net.core_links) {
    EXPECT_EQ(att.up->propagation(), SimTime::from_us(8));
    EXPECT_EQ(att.down->propagation(), SimTime::from_us(8));
  }

  ParallelEngine engine{engine_config(3)};
  const auto out = build_hybrid_network_partitioned(engine, cfg, m, m);
  for (std::uint32_t c = 1; c < 3; ++c) {
    EXPECT_EQ(engine.pair_lookahead(0, out.partition_of_cluster[c]),
              SimTime::from_us(8));
  }
}

}  // namespace
}  // namespace esim::core
