// Workload construction and output checks shared by the benchmark driver
// and its self-test.
//
// The three web-search workloads inject one seeded flow list through
// tcp::Host::open_flow, so the packet, hybrid and PDES runs see the same
// flows and their FCT/RTT distributions can be compared flow population
// against flow population. The hybrid run gets the list without the flows
// whose both endpoints sit in approximated clusters (paper §6.2 elision);
// accuracy is therefore measured only on flows with an endpoint in the
// full-fidelity cluster 0, which both runs simulate.
#pragma once

#include <cstdint>
#include <vector>

#include "net/clos.h"
#include "sim/time.h"

namespace perfbench {

/// One flow of the injected list.
struct Flow {
  std::uint64_t id = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t bytes = 0;
  std::int64_t start_ns = 0;

  bool operator==(const Flow&) const = default;
};

/// The fig5_speedup topology at `clusters` clusters: 2 ToR + 2 agg + 8
/// hosts per cluster, 2 cores.
esim::net::ClosSpec websearch_spec(std::uint32_t clusters);

/// DCTCP web-search "mini" sizes with Poisson arrivals at `load` of the
/// aggregate host bandwidth, `intra_fraction` of flows inside their source
/// cluster, arrivals in [0, horizon). Deterministic in `seed`; the flow
/// count and the size distribution are the same on every seed.
std::vector<Flow> make_websearch_flows(const esim::net::ClosSpec& spec,
                                       double load, double intra_fraction,
                                       esim::sim::SimTime horizon,
                                       std::uint64_t seed);

/// True when either endpoint lives in `cluster`.
bool touches_cluster(const esim::net::ClosSpec& spec, const Flow& f,
                     std::uint32_t cluster);

/// `flows` minus those wholly between clusters other than `full_cluster`.
std::vector<Flow> without_approx_pairs(const esim::net::ClosSpec& spec,
                                       const std::vector<Flow>& flows,
                                       std::uint32_t full_cluster);

/// What one run produced: per-flow completion times (parallel to the
/// injected list; -1 when the flow did not finish) and the RTT samples of
/// cluster-0 hosts.
struct RunOutput {
  std::vector<Flow> flows;
  std::vector<std::int64_t> fct_ns;
  std::vector<double> rtt_s;

  std::uint64_t completed() const;
};

/// Accuracy of `run` against `reference` on the matched population.
struct Accuracy {
  double fct_ks = 0.0;
  double rtt_ks = 0.0;
  double fct_p99_err = 0.0;
  std::uint64_t matched_flows = 0;  ///< completed reference flows compared
};

/// KS distance of the FCT and RTT CDFs and the relative p99 FCT error,
/// using only completed flows with an endpoint in cluster 0 on both sides.
/// Throws std::invalid_argument when either side has no such flow.
Accuracy matched_accuracy(const esim::net::ClosSpec& spec,
                          const RunOutput& reference, const RunOutput& run);

/// True when both runs injected the same flows, finished the same ones at
/// the same instants, and saw the same RTT samples (order-insensitive).
bool identical_outputs(const RunOutput& a, const RunOutput& b);

}  // namespace perfbench
