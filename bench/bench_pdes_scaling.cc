// PDES scale-out against the sequential engine (strong scaling).
//
// One fixed multi-cluster fat-tree and one pre-generated flow list (same
// seed, same flows, same flow ids) run three ways:
//   * sequential — a plain Simulator over core::build_full_network, the
//     reference every speedup below is taken against;
//   * baseline   — ParallelEngine with the global YAWNS window and
//     rack-round-robin placement (the engine's original configuration);
//   * scale-out  — per-pair lookahead windows + graph-cut placement + SPSC
//     cross-partition rings.
// Each PDES run must complete the same flows at the same times as the
// sequential run; the bench exits 1 when one does not.
//
// The topology gives the partitioner something to exploit: intra-cluster
// links are short (1us) while agg<->core runs are long (8us). Round-robin
// placement cuts short links, pinning every window to 1us; graph-cut keeps
// clusters whole so only the long links cross, and per-pair windows open
// up to the 8us (and, between non-adjacent partitions, 16us+) horizon.
//
// Wall time is the median (with min and max) of repeated runs of
// run_until alone — network build and flow injection are excluded. Points
// with more partitions than hardware threads are measured but marked
// oversubscribed: their workers time-share cores, so they say nothing
// about parallel speedup and are left out of the headline. All runs use
// deterministic overhead accounting (no modeled MPI stall is spun).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/full_builder.h"
#include "core/pdes_builder.h"
#include "sim/parallel.h"
#include "sim/random.h"
#include "telemetry/report.h"
#include "workload/flow_size.h"
#include "workload/traffic_matrix.h"

namespace {

using namespace esim;  // NOLINT
using core::NetworkConfig;
using core::PlacementPolicy;
using sim::ParallelEngine;
using sim::SimTime;

constexpr std::uint64_t kSeed = 17;

// tors_per_cluster deliberately exceeds cores so each agg has more
// intra-cluster than core links — otherwise min-cut refinement correctly
// (but unhelpfully for this sweep) drags aggs into the cores' partition
// and leaves 1us ToR-agg links crossing.
NetworkConfig fat_tree() {
  NetworkConfig cfg;
  cfg.spec.clusters = 8;
  cfg.spec.tors_per_cluster = 8;
  cfg.spec.aggs_per_cluster = 4;
  cfg.spec.hosts_per_tor = 2;
  cfg.spec.cores = 4;
  // Long inter-cluster runs: the links a cut-minimizing placement leaves
  // crossing carry 8x the lookahead of the intra-cluster fabric.
  cfg.core_link = cfg.fabric_link;
  cfg.core_link->propagation = SimTime::from_us(8);
  return cfg;
}

struct Flow {
  std::int64_t start_ns = 0;
  net::HostId src = 0;
  net::HostId dst = 0;
  std::uint64_t bytes = 0;
};

// Poisson arrivals at `load` of the aggregate host uplink capacity,
// uniform endpoints, web-search-like sizes. Start times are strictly
// increasing so no host opens two flows at one instant (its port choice
// would then depend on injection order, which differs across engines).
std::vector<Flow> make_flows(const net::ClosSpec& spec, double load,
                             SimTime stop_at) {
  auto sizes = workload::mini_web_distribution();
  workload::UniformTraffic matrix{spec.total_hosts()};
  sim::Rng rng{kSeed};
  const double host_bps = 10e9;
  const double flows_per_sec =
      load * spec.total_hosts() * host_bps / (8.0 * sizes->mean());
  std::vector<Flow> flows;
  double t = 0.0;
  std::int64_t last_ns = -1;
  for (;;) {
    t += rng.exponential(1.0 / flows_per_sec);
    std::int64_t ns = SimTime::from_seconds_f(t).ns();
    if (ns >= stop_at.ns()) break;
    ns = std::max(ns, last_ns + 1);
    last_ns = ns;
    const auto [src, dst] = matrix.sample(rng);
    flows.push_back(Flow{ns, src, dst, sizes->sample(rng)});
  }
  return flows;
}

/// What a run produced: per-flow completion time (-1 = not completed),
/// indexed like the flow list, plus engine accounting.
struct Run {
  double wall_s = 0;
  std::vector<std::int64_t> end_ns;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t cross_messages = 0;
  std::uint64_t cut_links = 0;
  double sync_wait_fraction = 0;
  /// Busiest partition's events / mean events per partition.
  double events_max_over_mean = 0;
};

void inject(sim::Simulator& sim, const std::vector<tcp::Host*>& hosts,
            const std::vector<Flow>& flows, std::vector<std::int64_t>& end_ns,
            const std::vector<bool>* owned) {
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    if (owned != nullptr && !(*owned)[f.src]) continue;
    tcp::Host* host = hosts[f.src];
    sim.schedule_at(SimTime::from_ns(f.start_ns), [host, f, i, &end_ns] {
      auto* conn = host->open_flow(f.dst, f.bytes, i + 1);
      conn->on_complete = [host, i, &end_ns] {
        end_ns[i] = host->sim().now().ns();
      };
    });
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Run run_sequential(const std::vector<Flow>& flows, SimTime horizon) {
  Run run;
  run.end_ns.assign(flows.size(), -1);
  sim::Simulator sim{kSeed};
  auto net = core::build_full_network(sim, fat_tree());
  inject(sim, net.hosts, flows, run.end_ns, nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(horizon);
  run.wall_s = seconds_since(t0);
  run.events = sim.events_executed();
  return run;
}

Run run_pdes(std::uint32_t partitions, bool scale_out,
             const std::vector<Flow>& flows, SimTime horizon) {
  ParallelEngine::Config ecfg;
  ecfg.num_partitions = partitions;
  ecfg.lookahead = SimTime::from_us(1);
  ecfg.seed = kSeed;
  ecfg.deterministic_overhead = true;
  ecfg.window_mode = scale_out ? ParallelEngine::WindowMode::per_pair
                               : ParallelEngine::WindowMode::global;
  ParallelEngine engine{ecfg};
  auto net = core::build_clos_partitioned(
      engine, fat_tree(),
      scale_out ? PlacementPolicy::graph_cut : PlacementPolicy::round_robin);

  Run run;
  run.end_ns.assign(flows.size(), -1);
  for (std::uint32_t p = 0; p < partitions; ++p) {
    std::vector<bool> owned(net.spec.total_hosts());
    for (net::HostId h = 0; h < owned.size(); ++h) {
      owned[h] = net.partition_of_host[h] == p;
    }
    inject(engine.partition(p).sim(), net.hosts, flows, run.end_ns, &owned);
  }
  const auto t0 = std::chrono::steady_clock::now();
  engine.run_until(horizon);
  run.wall_s = seconds_since(t0);
  run.events = engine.stats().events_executed;
  run.rounds = engine.stats().sync_rounds;
  run.cross_messages = engine.stats().cross_messages;
  run.cut_links = net.plan.cut_links;
  run.sync_wait_fraction =
      run.wall_s > 0
          ? engine.stats().sync_wait_seconds / (partitions * run.wall_s)
          : 0;
  std::uint64_t busiest = 0;
  for (std::uint32_t p = 0; p < partitions; ++p) {
    busiest = std::max(busiest, engine.partition(p).sim().events_executed());
  }
  run.events_max_over_mean =
      run.events > 0 ? static_cast<double>(busiest) * partitions /
                           static_cast<double>(run.events)
                     : 0;
  return run;
}

/// Repeated runs of one configuration: wall-time spread plus the
/// accounting of the first run (identical across runs).
struct Point {
  bench::Spread wall_s;
  bench::Spread sync_wait_fraction;
  Run first;
  bool matches_sequential = true;
};

template <typename RunFn>
Point measure(int reps, const Run* reference, RunFn&& run_once) {
  Point pt;
  std::vector<double> walls;
  std::vector<double> waits;
  for (int r = 0; r < reps; ++r) {
    Run run = run_once();
    walls.push_back(run.wall_s);
    waits.push_back(run.sync_wait_fraction);
    if (reference != nullptr && run.end_ns != reference->end_ns) {
      pt.matches_sequential = false;
    }
    if (r == 0) pt.first = std::move(run);
  }
  pt.wall_s = bench::spread_of(walls);
  pt.sync_wait_fraction = bench::spread_of(waits);
  return pt;
}

void record(telemetry::RunReport& report, const std::string& key,
            const Point& pt, double seq_wall_s) {
  report.set(key + ".wall_s.median", pt.wall_s.median);
  report.set(key + ".wall_s.min", pt.wall_s.min);
  report.set(key + ".wall_s.max", pt.wall_s.max);
  report.set(key + ".events_per_sec",
             pt.wall_s.median > 0
                 ? static_cast<double>(pt.first.events) / pt.wall_s.median
                 : 0.0);
  report.set(key + ".speedup_vs_sequential",
             pt.wall_s.median > 0 ? seq_wall_s / pt.wall_s.median : 0.0);
  report.set(key + ".sync_wait_fraction.median", pt.sync_wait_fraction.median);
  report.set(key + ".sync_rounds", pt.first.rounds);
  report.set(key + ".cross_messages", pt.first.cross_messages);
  report.set(key + ".cut_links", pt.first.cut_links);
  report.set(key + ".events", pt.first.events);
  report.set(key + ".events_max_over_mean", pt.first.events_max_over_mean);
  report.set(key + ".matches_sequential", pt.matches_sequential);
}

}  // namespace

int main() {
  bench::print_header(
      "PDES scale-out",
      "run_until wall vs partitions against the sequential engine: "
      "global+round-robin baseline vs per-pair+graph-cut");

  const bool quick = bench::quick_mode();
  const double load = 0.1;
  const double duration_ms = quick ? 0.5 : 32.0;
  const int reps = quick ? 2 : 5;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const SimTime stop_at = SimTime::from_seconds_f(duration_ms / 1e3);
  const SimTime horizon = stop_at + SimTime::from_ms(1);  // drain tails
  const std::vector<std::uint32_t> partition_counts{1, 2, 4, 8};

  const auto flows = make_flows(fat_tree().spec, load, stop_at);

  telemetry::RunReport report{"pdes_scaling"};
  report.set("bench", "pdes_scaling");
  report.set("load", load);
  report.set("duration_ms", duration_ms);
  report.set("flows", static_cast<std::uint64_t>(flows.size()));
  report.set("repetitions", static_cast<std::uint64_t>(reps));
  report.set("host.nproc", static_cast<std::uint64_t>(nproc));
  report.set("topology",
             "clos c8 t8 a4 h2 cores4, core links 8us (strong scaling)");

  const Point seq = measure(reps, nullptr,
                            [&] { return run_sequential(flows, horizon); });
  std::uint64_t completed = 0;
  for (auto e : seq.first.end_ns) completed += e >= 0 ? 1 : 0;
  report.set("sequential.wall_s.median", seq.wall_s.median);
  report.set("sequential.wall_s.min", seq.wall_s.min);
  report.set("sequential.wall_s.max", seq.wall_s.max);
  report.set("sequential.events", seq.first.events);
  report.set("sequential.flows_completed", completed);
  std::printf(
      "%zu flows (%llu completed), %llu events; sequential run_until "
      "%.3f s median (%.3f..%.3f), %d reps; host %u hardware threads\n\n",
      flows.size(), static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(seq.first.events), seq.wall_s.median,
      seq.wall_s.min, seq.wall_s.max, reps, nproc);

  std::printf("%-6s %-30s %-30s %-9s %s\n", "P",
              "baseline x-seq (sync%, rounds)",
              "scale-out x-seq (sync%, rounds)", "x-base", "imbalance");
  bool all_match = true;
  double best_speedup = 0;
  std::uint32_t best_p = 0;
  for (const auto P : partition_counts) {
    const auto base = measure(reps, &seq.first, [&] {
      return run_pdes(P, /*scale_out=*/false, flows, horizon);
    });
    const auto fast = measure(reps, &seq.first, [&] {
      return run_pdes(P, /*scale_out=*/true, flows, horizon);
    });
    all_match = all_match && base.matches_sequential && fast.matches_sequential;
    const double base_x = seq.wall_s.median / base.wall_s.median;
    const double fast_x = seq.wall_s.median / fast.wall_s.median;
    const bool oversubscribed = P > nproc;
    if (!oversubscribed && fast_x > best_speedup) {
      best_speedup = fast_x;
      best_p = P;
    }
    std::printf(
        "%-6u %-8.3g (%4.1f%%, %7llu)        %-8.3g (%4.1f%%, %7llu)        "
        "%-9.3g %-9.3g%s%s\n",
        P, base_x, 100 * base.sync_wait_fraction.median,
        static_cast<unsigned long long>(base.first.rounds), fast_x,
        100 * fast.sync_wait_fraction.median,
        static_cast<unsigned long long>(fast.first.rounds),
        base.wall_s.median / fast.wall_s.median,
        fast.first.events_max_over_mean,
        oversubscribed ? "  [oversubscribed]" : "",
        base.matches_sequential && fast.matches_sequential
            ? ""
            : "  OUTPUT DIFFERS FROM SEQUENTIAL");
    std::fflush(stdout);

    const std::string row = "p" + std::to_string(P);
    report.set(row + ".oversubscribed", oversubscribed);
    record(report, row + ".baseline", base, seq.wall_s.median);
    record(report, row + ".scale_out", fast, seq.wall_s.median);
    report.set(row + ".speedup_vs_baseline",
               base.wall_s.median / fast.wall_s.median);
  }
  report.set("headline.partitions", static_cast<std::uint64_t>(best_p));
  report.set("headline.scale_out_speedup_vs_sequential", best_speedup);
  std::printf(
      "\nheadline (P <= %u): scale-out %.3gx the sequential engine at P=%u\n",
      nproc, best_speedup, best_p);

  const std::string report_path = "BENCH_pdes_scaling.json";
  if (report.write(report_path)) {
    std::printf("wrote %s\n", report_path.c_str());
  }

  bench::print_note(
      "x-seq = sequential run_until wall / this configuration's (medians); "
      "x-base = baseline wall / scale-out wall. baseline = global YAWNS "
      "window + rack-round-robin placement; scale-out = per-pair lookahead "
      "windows + graph-cut placement + SPSC rings.");
  bench::print_note(
      "sync% is barrier wait / (P * wall); imbalance is the scale-out "
      "run's busiest partition's events over the mean. Oversubscribed "
      "points (P > hardware threads) time-share cores and are excluded "
      "from the headline.");
  if (!all_match) {
    std::printf("FAIL: a PDES run's flow completions differ from the "
                "sequential run\n");
    return 1;
  }
  return 0;
}
