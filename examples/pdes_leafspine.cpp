// Parallel discrete-event simulation of a leaf-spine fabric (the
// machinery behind the paper's Figure 1 motivation experiment).
//
// Builds one leaf-spine twice — sequentially, and partitioned over a
// conservative window-barrier PDES engine — runs the same workload, and
// reports where the time went (events vs synchronization rounds vs
// cross-partition messages).
//
//   ./build/examples/pdes_leafspine
//
// Set ESIM_TELEMETRY=1 to additionally publish per-partition metrics and
// a Chrome trace (pdes_leafspine_report.json / pdes_leafspine_trace.json).
// Telemetry observes the run without changing it: event counts and sync
// rounds are identical either way, only wall clock can differ.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/engine.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"
#include "workload/generator.h"

using namespace esim;  // NOLINT

namespace {

core::NetworkConfig leaf_spine(std::uint32_t n) {
  core::NetworkConfig cfg;
  cfg.spec.clusters = 1;
  cfg.spec.tors_per_cluster = n;
  cfg.spec.aggs_per_cluster = n;
  cfg.spec.hosts_per_tor = 4;
  cfg.spec.cores = 0;
  return cfg;
}

}  // namespace

int main() {
  const std::uint32_t tors = 8;
  const auto duration = sim::SimTime::from_ms(2);
  const bool telemetry_on = std::getenv("ESIM_TELEMETRY") != nullptr;
  std::printf("leaf-spine: %u ToRs x %u spines, %u hosts, 2ms simulated%s\n\n",
              tors, tors, tors * 4,
              telemetry_on ? " (telemetry on)" : "");

  telemetry::RunReport report{"pdes_leafspine"};
  telemetry::TraceSession trace;
  if (telemetry_on) trace.start();

  // The same run twice: the sequential reference (0 partitions), then
  // conservative PDES over 4 partitions.
  for (const std::uint32_t partitions : {0u, 4u}) {
    sim::ParallelEngine::Config ecfg;
    ecfg.num_partitions = partitions;
    ecfg.lookahead = sim::SimTime::from_us(1);
    ecfg.seed = 99;
    // Registry before the engine: its flushers capture the engine, so the
    // engine must be destroyed first (and the snapshot taken before that).
    telemetry::Registry registry;
    core::Engine engine{ecfg};
    if (telemetry_on) engine.set_telemetry(&registry);  // before the build
    auto net = engine.build_full(leaf_spine(tors));
    auto sizes = workload::mini_web_distribution();
    workload::UniformTraffic matrix{net.spec.total_hosts()};
    workload::TrafficGenerator::Config gcfg;
    gcfg.load = 0.25;
    gcfg.stop_at = duration;
    engine.start_generators(net, sizes.get(), &matrix, gcfg);
    const auto t0 = std::chrono::steady_clock::now();
    engine.run_until(duration);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const core::EngineCounters c = engine.counters();
    const std::string label = partitions == 0 ? "sequential" : "pdes";
    std::printf("%-11s: %.3fs wall, %llu events (%.0f ev/s)\n",
                partitions == 0 ? "sequential" : "pdes (4 LP)", wall,
                static_cast<unsigned long long>(c.events_executed),
                c.events_executed / wall);
    report.set(label + ".wall_seconds", wall);
    report.set(label + ".events_executed", c.events_executed);
    if (partitions > 0) {
      std::printf("             %llu sync rounds, %llu cross messages, "
                  "%llu cross links\n",
                  static_cast<unsigned long long>(c.sync_rounds),
                  static_cast<unsigned long long>(c.cross_messages),
                  static_cast<unsigned long long>(net.cross_partition_links));
      report.set(label + ".sync_rounds", c.sync_rounds);
      report.set(label + ".cross_messages", c.cross_messages);
      report.set(label + ".cross_partition_links", net.cross_partition_links);
    }
    if (telemetry_on) {
      report.add_metrics(registry.snapshot(), label + ".metrics");
    }
  }

  if (telemetry_on) {
    trace.stop();
    const std::string report_path = "pdes_leafspine_report.json";
    const std::string trace_path = "pdes_leafspine_trace.json";
    if (report.write(report_path) && trace.write_chrome_json(trace_path)) {
      std::printf("\ntelemetry: wrote %s and %s\n", report_path.c_str(),
                  trace_path.c_str());
    }
  }
  std::printf(
      "\nOn densely meshed fabrics most ToR<->spine links cross\n"
      "partitions, so the window-barrier engine synchronizes every\n"
      "lookahead (= 1us of virtual time). That synchronization tax is\n"
      "what Figure 1 of the paper measures — and what the ML\n"
      "approximation sidesteps by removing the fabric entirely.\n");
  return 0;
}
