// Hybrid network assembly: one full-fidelity cluster + all core switches,
// with every other cluster's fabric replaced by an ApproxCluster (the
// at-scale configuration of the paper's Figure 3). This is the full
// build with those clusters' fidelity swapped: the same wiring routine
// (core/clos_wiring.h) builds both, so a hybrid run and its all-packet
// reference share every link config, port order and FIB rule.
//
// build_hybrid_network_partitioned runs it in parallel — the third source
// of speedup in the paper's §6.2: "the approximate version was run in
// parallel. Because the interdependencies between cluster fabric switches
// are removed, parallel execution provides better speedups here than it
// does for full simulation." The full-fidelity cluster and all core
// switches form partition 0; each approximated cluster (its ApproxCluster
// model plus its hosts) is a self-contained island placed weight-balanced
// on the remaining partitions. The only cross-partition interactions are
// core -> ApproxCluster links (latency >= lookahead by construction) and
// ApproxCluster -> core model deliveries (latency >= min_latency_s, which
// must be >= the engine lookahead — checked).
#pragma once

#include <cstdint>

#include "approx/micro_model.h"
#include "core/approx_cluster.h"
#include "core/full_builder.h"
#include "sim/parallel.h"

namespace esim::core {

/// Handles to a hybrid build: the shared handle type, with `clusters`
/// holding one ApproxCluster per approximated cluster (nullptr for the
/// full one) and nullptr switches/host downlinks inside approximated
/// clusters.
using HybridNetwork = BuiltNetwork;

/// Extra knobs for the approximated clusters.
struct HybridConfig {
  NetworkConfig net;
  /// Which cluster stays full-fidelity.
  std::uint32_t full_cluster = 0;
  /// ApproxCluster behaviour (spec/cluster fields are filled per cluster).
  ApproxCluster::Config approx;
};

/// Builds the hybrid topology in `sim`, copying the trained models into
/// each ApproxCluster. Requires spec.clusters >= 2.
HybridNetwork build_hybrid_network(sim::Simulator& sim,
                                   const HybridConfig& config,
                                   const approx::MicroModel& ingress_model,
                                   const approx::MicroModel& egress_model);

/// Builds the hybrid topology across the engine's partitions; the result
/// also carries partition_of_host and partition_of_cluster (0 for the
/// full cluster, which has no ApproxCluster). Requires engine lookahead
/// <= both the core link propagation and the ApproxCluster min latency;
/// throws otherwise.
HybridNetwork build_hybrid_network_partitioned(
    sim::ParallelEngine& engine, const HybridConfig& config,
    const approx::MicroModel& ingress_model,
    const approx::MicroModel& egress_model);

}  // namespace esim::core
