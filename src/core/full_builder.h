// Full-fidelity network assembly: instantiates hosts, switches, and links
// for a ClosSpec inside one Simulator, wiring FIBs so that forwarding
// matches net::compute_path's ECMP replay exactly.
//
// Also home of what every builder shares: the link/queue/TCP parameters
// (NetworkConfig) and the one handle type all builds return
// (BuiltNetwork). The partitioned, hybrid and partitioned-hybrid builders
// (pdes_builder.h, hybrid_builder.h) wire the same Clos through the same
// routine (clos_wiring.h) and differ only in placement and in which
// clusters are swapped for an ApproxCluster.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/partitioner.h"
#include "net/clos.h"
#include "net/link.h"
#include "net/switch.h"
#include "sim/simulator.h"
#include "tcp/host.h"

namespace esim::core {

/// Link/queue/TCP parameters shared by all builders.
struct NetworkConfig {
  net::ClosSpec spec;

  /// Host NIC uplink (host -> ToR): big TX buffer so a burst of one
  /// congestion window never self-drops at the sender.
  net::Link::Config host_uplink{
      .bandwidth_bps = 10e9,
      .propagation = sim::SimTime::from_us(1),
      .queue_capacity_bytes = 4'000'000,
  };

  /// Switch output ports (ToR -> host, ToR <-> Agg, Agg <-> Core): shallow
  /// data-center buffers (~100 full packets), where congestion drops
  /// happen.
  net::Link::Config fabric_link{
      .bandwidth_bps = 10e9,
      .propagation = sim::SimTime::from_us(1),
      .queue_capacity_bytes = 150'000,
  };

  /// Agg <-> Core links, and the core -> ApproxCluster links that replace
  /// them in hybrid builds; unset means "same as fabric_link". Setting a
  /// longer propagation here models the longer inter-cluster runs of a
  /// real fabric — and, under PDES with topology-aware placement, widens
  /// the per-pair lookahead of exactly the links a cut-minimizing
  /// partitioner leaves crossing.
  std::optional<net::Link::Config> core_link;

  /// The link config used for wiring at the core layer.
  const net::Link::Config& core_link_config() const {
    return core_link.has_value() ? *core_link : fabric_link;
  }

  /// Forwarding pipeline latency per switch.
  sim::SimTime switch_processing;

  /// TCP parameters for every host.
  tcp::TcpConnection::Config tcp;

  /// When false, every switch hashes ECMP on (src_host, dst_host) only —
  /// ports zeroed — so all flows between a host pair share one path. See
  /// Switch::set_port_sensitive_ecmp; phase memoization (src/memo) uses
  /// this for dense cache hits on multi-spine fabrics.
  bool ecmp_port_sensitive = true;
};

/// One agg<->core link pair (both directions), with its coordinates.
struct CoreAttachment {
  std::uint32_t cluster = 0;
  std::uint32_t agg = 0;   // index within the cluster
  std::uint32_t core = 0;  // core switch index
  net::Link* up = nullptr;    // agg -> core
  net::Link* down = nullptr;  // core -> agg
};

class ApproxCluster;

/// Handles to everything a build created — the one handle type every
/// builder returns (HybridNetwork and PdesNetwork name it too). Raw
/// pointers are owned by the build's simulator(s). Entries for components
/// a build did not create are nullptr: the ToR/Agg switches and host
/// downlinks of approximated clusters, and the ApproxCluster of every
/// packet-level cluster.
struct BuiltNetwork {
  net::ClosSpec spec;
  std::vector<tcp::Host*> hosts;            // dense by HostId
  std::vector<net::Switch*> switches;       // dense by SwitchId
  std::vector<ApproxCluster*> clusters;     // per cluster
  std::vector<net::Link*> host_uplinks;     // [HostId] host -> ToR/model
  std::vector<net::Link*> host_downlinks;   // [HostId] ToR -> host
  /// Agg<->core links of the packet-level clusters (empty for leaf-spine).
  std::vector<CoreAttachment> core_links;
  /// ToR<->Agg links, tagged with their cluster (both directions).
  std::vector<std::pair<std::uint32_t, net::Link*>> intra_fabric_links;

  /// Partition owning each switch, host and ApproxCluster (all 0 in a
  /// sequential build; entries for components the build did not create
  /// are 0).
  std::vector<std::uint32_t> partition_of_switch;  // dense by SwitchId
  std::vector<std::uint32_t> partition_of_host;    // dense by HostId
  std::vector<std::uint32_t> partition_of_cluster;  // per cluster
  /// Directed links whose ends live in different partitions.
  std::uint64_t cross_partition_links = 0;
  /// The graph-cut/round-robin placement of a build_clos_partitioned
  /// build (includes cut accounting); empty otherwise.
  PartitionPlan plan;

  /// Convenience: the agg->core uplinks of one cluster.
  std::vector<const CoreAttachment*> attachments_of(
      std::uint32_t cluster) const;

  /// True if `h`'s cluster is simulated packet by packet.
  bool is_full_fidelity(net::HostId h) const {
    return clusters[spec.cluster_of_host(h)] == nullptr;
  }
};

/// Builds the complete topology in `sim`. The spec must validate.
BuiltNetwork build_full_network(sim::Simulator& sim,
                                const NetworkConfig& config);

}  // namespace esim::core
