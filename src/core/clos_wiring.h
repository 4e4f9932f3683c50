// The one Clos wiring behind every builder (internal to src/core).
//
// build_full_network, build_clos_partitioned, build_hybrid_network and
// build_hybrid_network_partitioned all build the same canonical fabric;
// they differ only in two placement inputs, which wire_clos takes:
//
//   * partition per component — each switch, host and ApproxCluster lives
//     in one partition's Simulator (a sequential build has one), and
//   * fidelity per cluster — each cluster is packet-level (ToR and Agg
//     switches) or one ApproxCluster driven by trained models.
//
// Creation order is part of the determinism contract. Every Component
// forks its simulator's root RNG in its constructor, so the order in
// which one Simulator receives its components fixes every random stream
// and so every digest. wire_clos creates, per simulator: hosts; per
// packet cluster, its ToRs then its Aggs; cores; ApproxClusters; then
// links host<->ToR (or host->model), ToR<->Agg, Agg<->Core and
// core->ApproxCluster, each in ascending index order.
#pragma once

#include <cstdint>
#include <vector>

#include "core/approx_cluster.h"
#include "core/full_builder.h"
#include "sim/parallel.h"

namespace esim::core {

/// How one cluster is simulated.
struct ClusterFidelity {
  /// Null: packet-level ToR and Agg switches. Otherwise one ApproxCluster
  /// built from this config (spec and cluster are filled per cluster)
  /// with private copies of the two boundary models.
  const ApproxCluster::Config* approx = nullptr;
  const approx::MicroModel* ingress_model = nullptr;
  const approx::MicroModel* egress_model = nullptr;
};

/// Creates, wires and routes the Clos of `config.spec` into `out`.
///
/// `sims[p]` is partition p's Simulator. Placement is read from `out`:
/// the caller fills partition_of_switch / partition_of_host /
/// partition_of_cluster, and a vector left empty places everything it
/// covers on partition 0. `fidelity[c]` selects cluster c's fidelity (an
/// empty vector means all packet-level). Links whose ends live in
/// different partitions get a ParallelEngine::send_cross remote scheduler
/// (so `engine` must be non-null whenever the placement spans partitions),
/// as do ApproxCluster deliveries to a core in another partition.
///
/// With an engine, also programs its per-pair lookahead from the wired
/// links: L[a][b] becomes the minimum propagation over the a -> b cross
/// links (a message handed to such a link at t cannot arrive before
/// t + propagation), and pairs with no link get infinite_lookahead().
/// Channels that carry no link — ApproxCluster egress into a remote core
/// — are left to the caller, which knows the model's delivery horizon.
///
/// ApproxClusters are started (macro windows armed) once wired.
void wire_clos(const std::vector<sim::Simulator*>& sims,
               sim::ParallelEngine* engine, const NetworkConfig& config,
               const std::vector<ClusterFidelity>& fidelity,
               BuiltNetwork& out);

/// The simulators of every partition of `engine`, by index.
std::vector<sim::Simulator*> partition_sims(sim::ParallelEngine& engine);

}  // namespace esim::core
