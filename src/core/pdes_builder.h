// Partitioned Clos assembly for the PDES experiments.
//
// build_clos_partitioned places every switch (and the hosts riding on
// their ToRs) into the partition chosen by a core::PartitionPlan and
// wires the same canonical topology as core/full_builder through the
// shared routine (core/clos_wiring.h): identical creation order per
// simulator and identical FIB candidate ordering, so deterministic ECMP
// picks the same paths. Every link whose endpoints live in different
// partitions gets a remote scheduler.
//
// It also programs the engine's per-pair lookahead matrix from the wired
// topology: L[a][b] becomes the minimum propagation delay over all
// a -> b cross links (a message handed to such a link at time t cannot
// arrive before t + propagation), and pairs with no connecting link get
// ParallelEngine::infinite_lookahead() so they never constrain the
// window in per-pair mode — and any send over them is rejected.
//
// A leaf-spine (spec.clusters == 1, spec.cores == 0; the Figure-1
// topology) is the degenerate single-cluster case of the same build.
#pragma once

#include "core/full_builder.h"
#include "core/partitioner.h"
#include "sim/parallel.h"

namespace esim::core {

/// Handles to a partitioned build: the shared handle type, with `plan`,
/// partition_of_switch/host and cross_partition_links (== plan.cut_links)
/// filled in. Pointers are owned by the partitions' simulators.
using PdesNetwork = BuiltNetwork;

/// Builds the full Clos (or leaf-spine) of `config.spec` across the
/// engine's partitions, placing switches according to `policy`. The
/// engine's (global) lookahead must be <= every link propagation delay
/// (checked).
PdesNetwork build_clos_partitioned(
    sim::ParallelEngine& engine, const NetworkConfig& config,
    PlacementPolicy policy = PlacementPolicy::graph_cut);

}  // namespace esim::core
