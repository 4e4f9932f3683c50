// Figure 5 companion: the paper's third source of speedup — "the
// approximate version was run in parallel. Because the interdependencies
// between cluster fabric switches are removed, parallel execution
// provides better speedups here than it does for full simulation."
//
// This bench runs the hybrid simulation sequentially and PDES-partitioned
// (one island per approximated cluster group) and reports the
// synchronization profile. On a multi-core host the partitioned run can
// overlap model inference across islands; on a single-core host it can
// only demonstrate that the partitioning is sound and cheap (few cross
// messages), which is itself the paper's structural point: approximation
// removes the interdependencies that made PDES of the full network slow.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/run_report.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workload/generator.h"

namespace {

using namespace esim;  // NOLINT
using sim::SimTime;

struct Outcome {
  double wall_seconds = 0;
  core::EngineCounters counters;
  std::uint64_t flows = 0;
  telemetry::Snapshot metrics;
};

core::ExperimentConfig base_config(std::uint32_t clusters) {
  core::ExperimentConfig cfg;
  cfg.net.spec.clusters = clusters;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 4;
  cfg.net.spec.cores = 2;
  cfg.load = 0.3;
  cfg.intra_fraction = 0.3;
  cfg.duration =
      bench::quick_mode() ? SimTime::from_ms(5) : SimTime::from_ms(15);
  cfg.train_duration =
      bench::quick_mode() ? SimTime::from_ms(10) : SimTime::from_ms(25);
  cfg.model.hidden = bench::quick_mode() ? 8 : 16;
  cfg.model.layers = 1;
  cfg.train.batches = bench::quick_mode() ? 30 : 100;
  cfg.train.batch_size = 32;
  cfg.train.seq_len = 16;
  cfg.train.learning_rate = 5e-3;
  return cfg;
}

Outcome run_parallel_hybrid(const core::ExperimentConfig& cfg,
                            const core::TrainedModels& models,
                            std::uint32_t partitions) {
  sim::ParallelEngine::Config ecfg;
  ecfg.num_partitions = partitions;
  ecfg.lookahead = SimTime::from_us(1);
  ecfg.seed = cfg.seed + 1;
  telemetry::Registry registry;  // outlives the engine publishing into it
  core::Engine engine{ecfg};
  engine.set_telemetry(&registry);  // before components are built
  core::HybridConfig hcfg;
  hcfg.net = cfg.net;
  hcfg.approx = cfg.approx;
  hcfg.approx.macro = cfg.macro;
  auto out = engine.build_hybrid(hcfg, *models.ingress, *models.egress);

  auto sizes = workload::mini_web_distribution();
  workload::ClusterMixTraffic matrix{cfg.net.spec, cfg.intra_fraction};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = cfg.load;
  gcfg.stop_at = cfg.duration;
  // Elide approx<->approx traffic, as in the sequential hybrid.
  const auto gens = engine.start_generators(
      out, sizes.get(), &matrix, gcfg,
      [&cfg](net::HostId src, net::HostId dst) {
        return cfg.net.spec.cluster_of_host(src) == 0 ||
               cfg.net.spec.cluster_of_host(dst) == 0;
      });

  Outcome o;
  const auto t0 = std::chrono::steady_clock::now();
  engine.run_until(cfg.duration);
  o.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  o.counters = engine.counters();
  for (auto* g : gens) o.flows += g->launched();
  o.metrics = registry.snapshot();
  return o;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 5 companion (paper §6.2, savings #3)",
      "parallel execution of the approximate simulation");

  std::vector<std::uint32_t> cluster_counts{4, 8};
  if (bench::quick_mode()) cluster_counts = {4};

  telemetry::RunReport report{"fig5_parallel"};
  report.set("bench", "fig5_parallel");
  bool traced = false;

  for (const auto clusters : cluster_counts) {
    auto cfg = base_config(clusters);
    cfg.telemetry = true;
    const std::string section = "clusters" + std::to_string(clusters);
    std::printf("\n--- %u clusters ---\n", clusters);
    const auto models = core::train_cluster_models(cfg);

    const auto seq = core::run_hybrid_simulation(cfg, cfg.net.spec, models);
    std::printf("%-22s wall %.3fs, %llu events\n", "hybrid sequential",
                seq.wall_seconds,
                static_cast<unsigned long long>(seq.events_executed));
    core::add_run_result(report, section + ".sequential", seq);

    for (const std::uint32_t parts : {2u, 4u}) {
      // Trace the first PDES run: the chrome JSON shows per-partition
      // pdes.window spans, pdes.sync_round instants, and approx.inference
      // spans overlapping across islands.
      telemetry::TraceSession trace;
      const bool trace_this = !traced;
      if (trace_this) trace.start();
      const auto par = run_parallel_hybrid(cfg, models, parts);
      if (trace_this) {
        trace.stop();
        traced = true;
        const std::string trace_path = "BENCH_fig5_parallel_trace.json";
        if (trace.write_chrome_json(trace_path)) {
          std::printf("wrote %s (%llu events dropped to ring wrap)\n",
                      trace_path.c_str(),
                      static_cast<unsigned long long>(trace.overwritten()));
        }
      }
      std::printf(
          "%-15s (P=%u) wall %.3fs, %llu events, %llu cross msgs over "
          "%llu rounds\n",
          "hybrid PDES", parts, par.wall_seconds,
          static_cast<unsigned long long>(par.counters.events_executed),
          static_cast<unsigned long long>(par.counters.cross_messages),
          static_cast<unsigned long long>(par.counters.sync_rounds));
      const std::string ps = section + ".pdes_p" + std::to_string(parts);
      report.set(ps + ".wall_seconds", par.wall_seconds);
      report.set(ps + ".events_executed", par.counters.events_executed);
      report.set(ps + ".cross_messages", par.counters.cross_messages);
      report.set(ps + ".sync_rounds", par.counters.sync_rounds);
      report.set(ps + ".flows_launched", par.flows);
      report.add_metrics(par.metrics, ps + ".metrics");
    }
  }

  const std::string report_path = "BENCH_fig5_parallel.json";
  if (report.write(report_path)) {
    std::printf("wrote %s\n", report_path.c_str());
  }

  bench::print_note(
      "expected shape: the partitioned hybrid exchanges only "
      "boundary-crossing packets between islands (compare the cross "
      "message count with fig1's full-fabric PDES at similar scale), so "
      "parallel overhead is small; given as many cores as partitions, "
      "the islands' model inference overlaps and yields the additional "
      "speedup the paper reports.");
  return 0;
}
