#include "core/hybrid_builder.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/clos_wiring.h"
#include "core/partitioner.h"

namespace esim::core {

namespace {

/// Validates a hybrid config and returns its per-cluster fidelity: the
/// full cluster packet-level, every other cluster an ApproxCluster over
/// the two models.
std::vector<ClusterFidelity> hybrid_fidelity(
    const HybridConfig& config, const approx::MicroModel& ingress_model,
    const approx::MicroModel& egress_model) {
  const net::ClosSpec& spec = config.net.spec;
  spec.validate();
  if (spec.clusters < 2) {
    throw std::invalid_argument(
        "hybrid build: need >= 2 clusters (one stays full)");
  }
  if (config.full_cluster >= spec.clusters) {
    throw std::invalid_argument("hybrid build: bad full_cluster");
  }
  std::vector<ClusterFidelity> fidelity(
      spec.clusters,
      ClusterFidelity{&config.approx, &ingress_model, &egress_model});
  fidelity[config.full_cluster] = ClusterFidelity{};
  return fidelity;
}

}  // namespace

HybridNetwork build_hybrid_network(sim::Simulator& sim,
                                   const HybridConfig& config,
                                   const approx::MicroModel& ingress_model,
                                   const approx::MicroModel& egress_model) {
  const auto fidelity = hybrid_fidelity(config, ingress_model, egress_model);
  HybridNetwork out;
  wire_clos({&sim}, nullptr, config.net, fidelity, out);
  return out;
}

HybridNetwork build_hybrid_network_partitioned(
    sim::ParallelEngine& engine, const HybridConfig& config,
    const approx::MicroModel& ingress_model,
    const approx::MicroModel& egress_model) {
  const auto fidelity = hybrid_fidelity(config, ingress_model, egress_model);
  if (engine.lookahead() > config.net.core_link_config().propagation) {
    throw std::invalid_argument(
        "build_hybrid_network_partitioned: lookahead exceeds core link "
        "propagation");
  }
  if (engine.lookahead().to_seconds() > config.approx.min_latency_s) {
    throw std::invalid_argument(
        "build_hybrid_network_partitioned: lookahead exceeds the model's "
        "minimum latency (egress deliveries would violate causality)");
  }
  const bool batching =
      config.approx.batch_max > 1 && config.approx.batch_window > sim::SimTime{};
  if (batching &&
      config.approx.batch_window + engine.lookahead() >
          sim::SimTime::from_seconds_f(config.approx.min_latency_s)) {
    // A packet admitted at t may only be predicted at flush time
    // tf <= t + batch_window, and its egress delivery lands at
    // >= t + min_latency_s >= tf + (min_latency_s - batch_window). That
    // slack is the cluster partition's real send horizon, so it must
    // cover the engine's conservative lookahead.
    throw std::invalid_argument(
        "build_hybrid_network_partitioned: batch_window exceeds "
        "min_latency_s - lookahead (a coalesced packet could be held "
        "past the PDES lookahead it was admitted under)");
  }
  const net::ClosSpec& spec = config.net.spec;
  const std::uint32_t full = config.full_cluster;
  const std::uint32_t P = engine.num_partitions();

  // Placement: approximated clusters spread weight-balanced (by host
  // count) over partitions 1..P-1, leaving partition 0 to the full
  // cluster + cores (or everything on 0 when the engine has a single
  // partition). Clusters have no links to each other, so balance — not
  // cut — is the only objective here. Hosts ride with their cluster.
  HybridNetwork out;
  out.partition_of_cluster.assign(spec.clusters, 0);
  if (P > 1) {
    std::vector<std::uint32_t> approx_clusters;
    std::vector<std::uint64_t> weights;
    for (std::uint32_t c = 0; c < spec.clusters; ++c) {
      if (c == full) continue;
      approx_clusters.push_back(c);
      weights.push_back(spec.hosts_per_cluster());
    }
    const auto bins = assign_balanced(weights, P - 1);
    for (std::size_t i = 0; i < approx_clusters.size(); ++i) {
      out.partition_of_cluster[approx_clusters[i]] = 1 + bins[i];
    }
  }
  out.partition_of_host.resize(spec.total_hosts());
  for (net::HostId h = 0; h < spec.total_hosts(); ++h) {
    out.partition_of_host[h] =
        out.partition_of_cluster[spec.cluster_of_host(h)];
  }
  wire_clos(partition_sims(engine), &engine, config.net, fidelity, out);

  // Egress lookahead. wire_clos bounded partition 0 -> island pairs by
  // their core links; the island -> partition 0 direction carries no
  // link, only model deliveries. Unbatched, an egress injection granted
  // at t_d is reserved at arrival t with t_d >= t + min_latency_s. With
  // batching the reservation is deferred to the flush at
  // tf <= t + batch_window, shrinking the provable send horizon to
  // min_latency_s - batch_window (validated above to still cover the
  // engine lookahead).
  sim::SimTime horizon =
      sim::SimTime::from_seconds_f(config.approx.min_latency_s);
  if (batching) horizon = horizon - config.approx.batch_window;
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    const std::uint32_t p = out.partition_of_cluster[c];
    if (c != full && p != 0) {
      engine.set_pair_lookahead(p, 0, std::max(horizon, engine.lookahead()));
    }
  }
  return out;
}

}  // namespace esim::core
