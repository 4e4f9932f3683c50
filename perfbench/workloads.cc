#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/random.h"
#include "stats/cdf.h"
#include "stats/distance.h"
#include "workload/flow_size.h"
#include "workload/traffic_matrix.h"

namespace perfbench {

using namespace esim;  // NOLINT

net::ClosSpec websearch_spec(std::uint32_t clusters) {
  net::ClosSpec spec;
  spec.clusters = clusters;
  spec.tors_per_cluster = 2;
  spec.aggs_per_cluster = 2;
  spec.hosts_per_tor = 4;
  spec.cores = 2;
  spec.validate();
  return spec;
}

namespace {

// Inverse CDF of an EmpiricalFlowSize: the size EmpiricalFlowSize::sample
// returns when its uniform draw is `u` (log-linear between knots).
std::uint64_t size_at(const workload::EmpiricalFlowSize& dist, double u) {
  const auto& knots = dist.knots();
  if (u <= knots.front().second) return knots.front().first;
  auto it = std::lower_bound(
      knots.begin(), knots.end(), u,
      [](const auto& knot, double p) { return knot.second < p; });
  if (it == knots.end()) return knots.back().first;
  const auto& [x1, p1] = *it;
  const auto& [x0, p0] = *(it - 1);
  const double t = (u - p0) / (p1 - p0);
  const double lx = std::log(static_cast<double>(x0)) +
                    t * (std::log(static_cast<double>(x1)) -
                         std::log(static_cast<double>(x0)));
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::exp(lx)));
}

}  // namespace

std::vector<Flow> make_websearch_flows(const net::ClosSpec& spec, double load,
                                       double intra_fraction,
                                       sim::SimTime horizon,
                                       std::uint64_t seed) {
  const auto sizes = workload::mini_web_distribution();
  const workload::ClusterMixTraffic matrix{spec, intra_fraction};
  constexpr double kHostBandwidthBps = 10e9;
  // Same arrival rate as workload::TrafficGenerator:
  //   lambda * mean_size * 8 = load * hosts * host_bandwidth.
  const double lambda = load * spec.total_hosts() * kHostBandwidthBps / 8.0 /
                        sizes->mean();
  // The offered load is held at its expectation on every seed: the flow
  // count is lambda * horizon, arrival times are a Poisson process
  // conditioned on that count (sorted uniforms), and sizes are stratified
  // draws of the size CDF (one per 1/n-wide stratum) dealt out in random
  // order. Seeds still vary arrival times, endpoints and which flow gets
  // which size.
  const auto n = static_cast<std::size_t>(
      std::llround(lambda * horizon.to_seconds()));
  sim::Rng rng{seed};
  std::vector<std::int64_t> starts(n);
  for (auto& t : starts) {
    t = static_cast<std::int64_t>(rng.uniform() *
                                  static_cast<double>(horizon.ns()));
  }
  std::sort(starts.begin(), starts.end());
  std::vector<std::uint64_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = size_at(*sizes, (static_cast<double>(i) + rng.uniform()) /
                                   static_cast<double>(n));
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(bytes[i - 1], bytes[rng.uniform_int(i)]);
  }
  std::vector<Flow> flows;
  flows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [src, dst] = matrix.sample(rng);
    flows.push_back(Flow{i + 1, src, dst, bytes[i], starts[i]});
  }
  return flows;
}

bool touches_cluster(const net::ClosSpec& spec, const Flow& f,
                     std::uint32_t cluster) {
  return spec.cluster_of_host(f.src) == cluster ||
         spec.cluster_of_host(f.dst) == cluster;
}

std::vector<Flow> without_approx_pairs(const net::ClosSpec& spec,
                                       const std::vector<Flow>& flows,
                                       std::uint32_t full_cluster) {
  std::vector<Flow> kept;
  for (const Flow& f : flows) {
    if (touches_cluster(spec, f, full_cluster)) kept.push_back(f);
  }
  return kept;
}

std::uint64_t RunOutput::completed() const {
  return static_cast<std::uint64_t>(
      std::count_if(fct_ns.begin(), fct_ns.end(),
                    [](std::int64_t v) { return v >= 0; }));
}

namespace {

stats::EmpiricalCdf cluster0_fcts(const net::ClosSpec& spec,
                                  const RunOutput& out) {
  stats::EmpiricalCdf cdf;
  for (std::size_t i = 0; i < out.flows.size(); ++i) {
    if (out.fct_ns[i] < 0 || !touches_cluster(spec, out.flows[i], 0)) {
      continue;
    }
    cdf.add(static_cast<double>(out.fct_ns[i]) * 1e-9);
  }
  return cdf;
}

}  // namespace

Accuracy matched_accuracy(const net::ClosSpec& spec,
                          const RunOutput& reference, const RunOutput& run) {
  const auto ref_fct = cluster0_fcts(spec, reference);
  const auto run_fct = cluster0_fcts(spec, run);
  if (ref_fct.empty() || run_fct.empty() || reference.rtt_s.empty() ||
      run.rtt_s.empty()) {
    throw std::invalid_argument("matched_accuracy: empty population");
  }
  stats::EmpiricalCdf ref_rtt, run_rtt;
  ref_rtt.add_all(reference.rtt_s);
  run_rtt.add_all(run.rtt_s);
  Accuracy a;
  a.fct_ks = stats::ks_distance(ref_fct, run_fct);
  a.rtt_ks = stats::ks_distance(ref_rtt, run_rtt);
  a.fct_p99_err =
      std::abs(run_fct.quantile(0.99) / ref_fct.quantile(0.99) - 1.0);
  a.matched_flows = ref_fct.size();
  return a;
}

bool identical_outputs(const RunOutput& a, const RunOutput& b) {
  if (a.fct_ns != b.fct_ns || a.flows.size() != b.flows.size()) return false;
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    if (a.flows[i].id != b.flows[i].id) return false;
  }
  auto ra = a.rtt_s;
  auto rb = b.rtt_s;
  std::sort(ra.begin(), ra.end());
  std::sort(rb.begin(), rb.end());
  return ra == rb;
}

}  // namespace perfbench
