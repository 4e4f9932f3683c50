// Baseline comparison (paper §2 and §8): the classic way to simulate big
// networks fast is to drop to flow-level (fluid) simulation. This bench
// runs the SAME flow list three ways —
//   (a) packet-level full fidelity (ground truth),
//   (b) the flow-level max-min fluid baseline,
//   (c) the paper's ML-approximate hybrid —
// and compares flow-completion-time distributions and wall time. The
// paper's argument: fluid models are fast but miss packet effects
// (handshakes, slow start, queueing, retransmission timeouts) that
// dominate short-flow FCTs; the learned approximation preserves far more
// of them at a comparable speedup.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "flowsim/flow_level.h"
#include "stats/distance.h"
#include "workload/generator.h"

namespace {

using namespace esim;  // NOLINT
using sim::SimTime;

using core::FlowSpec;

// One deterministic flow list, every flow touching cluster 0 (the set
// measurable in the hybrid run, which elides approx<->approx traffic).
std::vector<FlowSpec> make_flows(const net::ClosSpec& spec, double load,
                                 SimTime horizon, std::uint64_t seed) {
  sim::Rng rng{seed};
  auto sizes = workload::mini_web_distribution();
  workload::ClusterMixTraffic matrix{spec, 0.3};
  const double bytes_per_sec =
      load * spec.total_hosts() * 10e9 / 8.0;
  const double lambda = bytes_per_sec / sizes->mean();
  std::vector<FlowSpec> flows;
  double t = 0;
  std::uint64_t id = 1;
  while (true) {
    t += rng.exponential(1.0 / lambda);
    if (t >= horizon.to_seconds()) break;
    auto [src, dst] = matrix.sample(rng);
    if (spec.cluster_of_host(src) != 0 && spec.cluster_of_host(dst) != 0) {
      continue;  // keep only flows the hybrid run can measure
    }
    flows.push_back(FlowSpec{src, dst, sizes->sample(rng),
                             SimTime::from_seconds_f(t).ns(), id++});
  }
  return flows;
}

struct Outcome {
  stats::EmpiricalCdf fct;
  stats::EmpiricalCdf fct_large;  // flows >= 100 KB: RTO noise amortizes
  double wall_seconds = 0;
  std::size_t completed = 0;
};

/// Schedules the flow list on `engine`, runs it to `end` and collects
/// the FCTs.
Outcome run_flows(core::Engine& engine, const core::BuiltNetwork& net,
                  const std::vector<FlowSpec>& flows, SimTime end) {
  Outcome out;
  engine.schedule_flows(
      net, flows, [&out](const FlowSpec& f, SimTime done) {
        const double fct = (done - SimTime::from_ns(f.start_ns)).to_seconds();
        out.fct.add(fct);
        if (f.bytes >= 100'000) out.fct_large.add(fct);
        ++out.completed;
      });
  const auto t0 = std::chrono::steady_clock::now();
  engine.run_until(end);
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

Outcome run_packet_level(const core::NetworkConfig& net_cfg,
                         const std::vector<FlowSpec>& flows) {
  core::Engine engine{{.num_partitions = 0, .seed = 3}};
  const auto net = engine.build_full(net_cfg);
  return run_flows(engine, net, flows, SimTime::max());  // to exhaustion
}

Outcome run_flow_level(const net::ClosSpec& spec,
                       const std::vector<FlowSpec>& flows) {
  flowsim::FlowLevelSimulator sim{spec, 10e9};
  for (const auto& f : flows) {
    sim.add_flow(f.flow_id, f.src, f.dst, f.bytes,
                 SimTime::from_ns(f.start_ns));
  }
  Outcome out;
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& r : sim.results()) {
    out.fct.add(r.fct().to_seconds());
    if (r.bytes >= 100'000) out.fct_large.add(r.fct().to_seconds());
    ++out.completed;
  }
  return out;
}

Outcome run_hybrid(const core::ExperimentConfig& cfg,
                   const core::TrainedModels& models,
                   const std::vector<FlowSpec>& flows) {
  core::Engine engine{{.num_partitions = 0, .seed = 3}};
  core::HybridConfig hcfg;
  hcfg.net = cfg.net;
  hcfg.approx = cfg.approx;
  hcfg.approx.macro = cfg.macro;
  const auto net =
      engine.build_hybrid(hcfg, *models.ingress, *models.egress);
  // Hybrid runs never go fully idle (macro window timers tick), so run
  // to a generous horizon instead of exhaustion.
  return run_flows(engine, net, flows, SimTime::from_sec(10));
}

}  // namespace

int main() {
  bench::print_header(
      "Baseline (paper §2/§8)",
      "FCT fidelity: packet-level truth vs fluid flow-level vs ML-approx");

  core::ExperimentConfig cfg;
  cfg.net.spec.clusters = 2;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 4;
  cfg.net.spec.cores = 2;
  cfg.load = 0.35;
  cfg.intra_fraction = 0.3;
  cfg.train_duration =
      bench::quick_mode() ? SimTime::from_ms(10) : SimTime::from_ms(30);
  cfg.model.hidden = bench::quick_mode() ? 8 : 16;
  cfg.model.layers = bench::quick_mode() ? 1 : 2;
  cfg.train.batches = bench::quick_mode() ? 40 : 150;
  cfg.train.batch_size = 32;
  cfg.train.seq_len = 16;
  cfg.train.learning_rate = 5e-3;

  const auto horizon =
      bench::quick_mode() ? SimTime::from_ms(10) : SimTime::from_ms(30);
  const auto flows = make_flows(cfg.net.spec, cfg.load, horizon, 2024);
  std::printf("workload: %zu flows over %s\n", flows.size(),
              horizon.to_string().c_str());

  std::printf("training the ML approximation...\n\n");
  const auto models = core::train_cluster_models(cfg);

  const auto truth = run_packet_level(cfg.net, flows);
  const auto fluid = run_flow_level(cfg.net.spec, flows);
  const auto hybrid = run_hybrid(cfg, models, flows);

  std::printf("%-16s %-12s %-12s %-12s\n", "", "packet-truth",
              "flow-level", "ml-approx");
  std::printf("%-16s %-12zu %-12zu %-12zu\n", "flows completed",
              truth.completed, fluid.completed, hybrid.completed);
  std::printf("%-16s %-12.3f %-12.4f %-12.3f\n", "wall seconds",
              truth.wall_seconds, fluid.wall_seconds, hybrid.wall_seconds);
  for (const double p : {0.50, 0.90, 0.99}) {
    std::printf("FCT p%-11g %-12.3g %-12.3g %-12.3g\n", p * 100,
                truth.fct.quantile(p), fluid.fct.quantile(p),
                hybrid.fct.quantile(p));
  }
  std::printf("%-16s %-12s %-12.3f %-12.3f\n", "KS vs truth", "-",
              stats::ks_distance(truth.fct, fluid.fct),
              stats::ks_distance(truth.fct, hybrid.fct));
  if (!truth.fct_large.empty() && !fluid.fct_large.empty() &&
      !hybrid.fct_large.empty()) {
    std::printf("%-16s %-12s %-12.3f %-12.3f\n", "KS (>=100KB)", "-",
                stats::ks_distance(truth.fct_large, fluid.fct_large),
                stats::ks_distance(truth.fct_large, hybrid.fct_large));
  }

  bench::print_note(
      "expected shape: flow-level is fastest but systematically "
      "optimistic — its FCTs miss handshakes, slow start, queueing and "
      "RTOs entirely, so its error is one-sided. The ML approximation "
      "errs in both directions (imperfect drop predictions interact "
      "with TCP timeouts, which the paper's §6.1 calls out as the reason "
      "per-flow metrics are unreliable); its distribution overlaps the "
      "truth where flows are long enough to amortize that noise.");
  return 0;
}
