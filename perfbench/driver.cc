// Benchmark driver: runs one named workload through the simulator's public
// entry points, times each call from outside, checks the outputs, and
// prints one JSON result line (the last line of stdout).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--out-dir <dir>]
//
// Workloads (METRICS.md has the rationale and the layer map):
//   websearch_packet  all-packet Clos-8 web-search run, sequential engine
//   websearch_hybrid  same flows, clusters 1-7 replaced by trained LSTMs
//   websearch_pdes    same flows and packet network under ParallelEngine
//   allreduce_memo    periodic ring-allreduce phases through MemoRunner
//
// --trace 0 reports the end-to-end metrics (wall_per_sim_s, setup_s,
// peak_rss_mb). --trace 1 repeats the same measurement, then makes one
// extra run with a telemetry::Registry on the engine and a TraceSession
// active, and reports the per-layer metrics; it also writes the per-layer
// file and a Chrome trace into --out-dir.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "approx/dataset.h"
#include "check/scenario.h"
#include "core/experiment.h"
#include "core/hybrid_builder.h"
#include "core/pdes_builder.h"
#include "memo/memo_diff.h"
#include "memo/memo_runner.h"
#include "sim/parallel.h"
#include "stats/collectors.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace esim;  // NOLINT
using perfbench::Flow;
using perfbench::RunOutput;
using sim::SimTime;
using Clock = std::chrono::steady_clock;

// ---- fixed workload parameters -------------------------------------------

constexpr std::uint32_t kClusters = 8;
constexpr double kLoad = 0.3;
constexpr double kIntraFraction = 0.3;
constexpr SimTime kHorizon = SimTime::from_ms(10);
// The measured span: arrivals plus a fixed drain, the same on every seed.
constexpr SimTime kMeasuredSpan = kHorizon + SimTime::from_ms(10);
// After the measured span the run continues, untimed, in kCompletionStep
// slices until every flow has finished; a flow still open at kCompletionCap
// has failed. Stragglers wait out SYN timeouts (100 ms initial RTO,
// doubling), so this tail is nearly idle.
constexpr SimTime kCompletionStep = SimTime::from_ms(100);
constexpr SimTime kCompletionCap = SimTime::from_sec(5);
// Full setups (trace + train + build) per websearch_hybrid run.
constexpr int kHybridSetups = 3;
// wall_per_sim_s reports this quantile of a run's samples. Noise on a shared
// host only slows a run down, in episodes of several seconds that move the
// median by up to 20 % between runs; the fast end of the distribution is
// what the program itself costs.
constexpr double kTimingQuantile = 0.1;
// Every workload measures at least this many runs, even past --seconds.
constexpr int kMinReps = 3;

constexpr std::uint32_t kMemoPhases = 2400;
constexpr std::int64_t kMemoPeriodNs = 2'000'000;
constexpr std::uint32_t kProbePhases = 120;
constexpr std::uint32_t kProbeFlowsPerPhase = 600;

std::uint32_t pdes_partitions() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, n));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear-interpolated q-quantile of `v` (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- memory ----------------------------------------------------------------

// Resets the kernel's peak-RSS mark to the current RSS (Linux
// clear_refs "5"), after returning freed heap to the OS so the measured
// part starts from what is actually live.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f{"/proc/self/clear_refs"};
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f{"/proc/self/status"};
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- flow injection ------------------------------------------------------

// Injects a flow list through Host::open_flow and records each flow's
// completion instant. Under PDES a flow's callbacks run on its source
// host's partition thread; every flow writes only its own slot.
class FlowTracker {
 public:
  FlowTracker(const net::ClosSpec& spec, const std::vector<Flow>& flows)
      : spec_{spec}, flows_{flows}, end_ns_(flows.size(), -1),
        rtt_(spec.total_hosts()) {}
  // Scheduled events and completion callbacks hold `this`.
  FlowTracker(const FlowTracker&) = delete;
  FlowTracker& operator=(const FlowTracker&) = delete;

  /// Schedules every flow whose source satisfies `owned` on `sim`.
  void inject(sim::Simulator& sim, const std::vector<tcp::Host*>& hosts,
              const std::function<bool(net::HostId)>& owned) {
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      const Flow& f = flows_[i];
      if (!owned(f.src)) continue;
      tcp::Host* host = hosts[f.src];
      sim.schedule_at(SimTime::from_ns(f.start_ns), [this, host, i] {
        const Flow& fl = flows_[i];
        auto* conn = host->open_flow(fl.dst, fl.bytes, fl.id);
        conn->on_complete = [this, host, i] {
          end_ns_[i] = host->sim().now().ns();
          completed_.fetch_add(1, std::memory_order_relaxed);
        };
      });
    }
  }

  /// RTT samples are collected at cluster-0 hosts, one collector each.
  void collect_rtts(const std::vector<tcp::Host*>& hosts) {
    for (net::HostId h = 0; h < spec_.total_hosts(); ++h) {
      if (spec_.cluster_of_host(h) == 0) hosts[h]->set_rtt_collector(&rtt_[h]);
    }
  }

  std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  std::size_t size() const { return flows_.size(); }

  RunOutput output() const {
    RunOutput out;
    out.flows = flows_;
    out.fct_ns.resize(flows_.size(), -1);
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (end_ns_[i] >= 0) out.fct_ns[i] = end_ns_[i] - flows_[i].start_ns;
    }
    for (const auto& c : rtt_) {
      const auto& s = c.cdf().sorted();
      out.rtt_s.insert(out.rtt_s.end(), s.begin(), s.end());
    }
    return out;
  }

 private:
  net::ClosSpec spec_;
  const std::vector<Flow>& flows_;
  std::vector<std::int64_t> end_ns_;
  std::atomic<std::uint64_t> completed_{0};
  std::vector<stats::LatencyCollector> rtt_;
};

// ---- one measured run ----------------------------------------------------

// Timings and outputs of one build + run. `setup_s` covers everything
// before the run (engine, build, partitioning, flow scheduling); `build_s`
// only the builder call.
struct Rep {
  double setup_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  RunOutput out;
  // PDES only.
  sim::ParallelEngine::Stats pdes;
  std::vector<std::uint64_t> partition_events;
  std::uint64_t cut_links = 0;
  // Hybrid only.
  core::ApproxCluster::Stats approx;
};

/// Optional instrumentation for the traced run.
struct Instruments {
  telemetry::Registry* registry = nullptr;
  telemetry::Snapshot snapshot;
};

core::NetworkConfig network_config(const net::ClosSpec& spec) {
  core::NetworkConfig cfg;
  cfg.spec = spec;
  return cfg;
}

// Times the measured span, lets `count` read the engine's counters at its
// end (and snapshots the registry of a traced run), then runs the untimed
// completion tail and collects the outputs.
template <typename Advance, typename Count>
void measure_run(Rep& rep, const FlowTracker& tracker, Instruments* inst,
                 Advance&& advance, Count&& count) {
  reset_peak_rss();
  const auto t0 = Clock::now();
  {
    telemetry::Span span{"bench.run"};
    advance(kMeasuredSpan);
  }
  rep.run_s = seconds_since(t0);
  rep.peak_rss_mb = peak_rss_mb();
  count();
  if (inst != nullptr) inst->snapshot = inst->registry->snapshot();
  telemetry::Span span{"bench.completion_tail"};
  for (SimTime end = kMeasuredSpan;
       tracker.completed() < tracker.size() && end < kCompletionCap;) {
    end += kCompletionStep;
    advance(end);
  }
  rep.out = tracker.output();
}

Rep packet_rep(const net::ClosSpec& spec, const std::vector<Flow>& flows,
               std::uint64_t seed, Instruments* inst) {
  Rep rep;
  const auto t0 = Clock::now();
  sim::Simulator sim{seed};
  if (inst != nullptr) sim.set_telemetry(inst->registry);
  const auto tb = Clock::now();
  core::BuiltNetwork net;
  {
    telemetry::Span span{"bench.build"};
    net = core::build_full_network(sim, network_config(spec));
  }
  rep.build_s = seconds_since(tb);
  FlowTracker tracker{spec, flows};
  tracker.collect_rtts(net.hosts);
  tracker.inject(sim, net.hosts, [](net::HostId) { return true; });
  rep.setup_s = seconds_since(t0);
  measure_run(rep, tracker, inst, [&sim](SimTime e) { sim.run_until(e); },
              [&] {
                rep.events_executed = sim.events_executed();
                rep.events_scheduled = sim.events_scheduled();
              });
  return rep;
}

Rep hybrid_rep(const net::ClosSpec& spec, const std::vector<Flow>& flows,
               std::uint64_t seed, const core::ExperimentConfig& cfg,
               const core::TrainedModels& models, Instruments* inst) {
  Rep rep;
  const auto t0 = Clock::now();
  sim::Simulator sim{seed};
  if (inst != nullptr) sim.set_telemetry(inst->registry);
  core::HybridConfig hcfg;
  hcfg.net = network_config(spec);
  hcfg.full_cluster = 0;
  hcfg.approx = cfg.approx;
  hcfg.approx.macro = cfg.macro;
  const auto tb = Clock::now();
  core::HybridNetwork net;
  {
    telemetry::Span span{"bench.build"};
    net = core::build_hybrid_network(sim, hcfg, *models.ingress,
                                     *models.egress);
  }
  rep.build_s = seconds_since(tb);
  FlowTracker tracker{spec, flows};
  tracker.collect_rtts(net.hosts);
  tracker.inject(sim, net.hosts, [](net::HostId) { return true; });
  rep.setup_s = seconds_since(t0);
  measure_run(rep, tracker, inst, [&sim](SimTime e) { sim.run_until(e); },
              [&] {
                rep.events_executed = sim.events_executed();
                rep.events_scheduled = sim.events_scheduled();
                for (const auto* c : net.clusters) {
                  if (c == nullptr) continue;
                  const auto& s = c->stats();
                  rep.approx.egress_packets += s.egress_packets;
                  rep.approx.ingress_packets += s.ingress_packets;
                  rep.approx.intra_packets += s.intra_packets;
                  rep.approx.predicted_drops += s.predicted_drops;
                  rep.approx.conflicts_resolved += s.conflicts_resolved;
                  rep.approx.backlog_drops += s.backlog_drops;
                  for (std::size_t t = 0; t < core::kClusterTierCount; ++t) {
                    rep.approx.tier_packets[t] += s.tier_packets[t];
                  }
                }
              });
  return rep;
}

Rep pdes_rep(const net::ClosSpec& spec, const std::vector<Flow>& flows,
             std::uint64_t seed, Instruments* inst) {
  Rep rep;
  const auto t0 = Clock::now();
  sim::ParallelEngine::Config pc;
  pc.num_partitions = pdes_partitions();
  pc.lookahead = SimTime::from_us(1);
  pc.window_mode = sim::ParallelEngine::WindowMode::per_pair;
  pc.seed = seed;
  sim::ParallelEngine eng{pc};
  if (inst != nullptr) eng.set_telemetry(inst->registry);
  const auto tb = Clock::now();
  core::PdesNetwork net;
  {
    telemetry::Span span{"bench.build"};
    net = core::build_clos_partitioned(eng, network_config(spec),
                                       core::PlacementPolicy::graph_cut);
  }
  rep.build_s = seconds_since(tb);
  rep.cut_links = net.plan.cut_links;
  FlowTracker tracker{spec, flows};
  tracker.collect_rtts(net.hosts);
  for (std::uint32_t p = 0; p < eng.num_partitions(); ++p) {
    tracker.inject(eng.partition(p).sim(), net.hosts,
                   [&net, p](net::HostId h) {
                     return net.partition_of_host[h] == p;
                   });
  }
  rep.setup_s = seconds_since(t0);
  measure_run(rep, tracker, inst, [&eng](SimTime e) { eng.run_until(e); },
              [&] {
                rep.pdes = eng.stats();
                rep.events_executed = eng.stats().events_executed;
                for (std::uint32_t p = 0; p < eng.num_partitions(); ++p) {
                  auto& psim = eng.partition(p).sim();
                  rep.events_scheduled += psim.events_scheduled();
                  rep.partition_events.push_back(psim.events_executed());
                }
              });
  return rep;
}

// ---- results ---------------------------------------------------------------

// Everything a workload reports: pass/fail accounting plus named metrics.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, std::pair<double, std::string>> end_to_end;
  std::map<std::string, std::pair<double, std::string>> layers;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    layers[name] = {v, unit};
  }
};

std::uint64_t counter_of(const telemetry::Snapshot& s, std::string_view name) {
  const auto* i = s.find(name);
  return i == nullptr ? 0 : i->counter;
}

// ---- shared measurement loop -----------------------------------------------

struct Measured {
  std::vector<Rep> reps;
  std::vector<double> setup_s;  // setup samples (workload-specific)
  RunOutput first_output;
};

// Accounts one measured run: its flows are attempted, the unfinished ones
// failed, and a run whose output differs from the first run of the same
// seed (rerun determinism) fails all of its flows.
void add_rep(Rep rep, Measured& m, Result& res) {
  const std::uint64_t n = rep.out.flows.size();
  res.attempted += n;
  if (m.reps.empty()) {
    m.first_output = rep.out;
    if (rep.out.completed() < n) {
      res.fail(std::to_string(n - rep.out.completed()) +
               " flows did not finish by the end of the completion tail");
    }
  }
  if (!perfbench::identical_outputs(m.first_output, rep.out)) {
    res.fail("run " + std::to_string(m.reps.size()) +
             " differs from the first run of the same seed");
    res.failed += n;
  } else {
    res.failed += n - rep.out.completed();
  }
  rep.out = RunOutput{};  // only the first run's outputs are kept
  m.reps.push_back(std::move(rep));
}

// Repeats `one_rep` until the measured runs add up to `seconds` of run
// time, and at least kMinReps runs.
void measure_reps(const std::function<Rep()>& one_rep, double seconds,
                  Measured& m, Result& res) {
  double run_total = 0.0;
  for (const Rep& r : m.reps) run_total += r.run_s;
  while (static_cast<int>(m.reps.size()) < kMinReps || run_total < seconds) {
    Rep rep = one_rep();
    run_total += rep.run_s;
    add_rep(std::move(rep), m, res);
  }
}

// Reports the end-to-end metrics from per-run samples and prints the
// distribution of the timed runs.
void report_end_to_end(const std::vector<double>& wall_per_sim,
                       const std::vector<double>& setup_s,
                       const std::vector<double>& rss, Result& res) {
  res.e2e("wall_per_sim_s", quantile(wall_per_sim, kTimingQuantile), "s/s");
  res.e2e("setup_s", median(setup_s), "s");
  res.e2e("peak_rss_mb", median(rss), "MiB");
  std::printf("timing: wall_per_sim_s over %zu runs: min=%.6g p10=%.6g "
              "p25=%.6g median=%.6g p75=%.6g max=%.6g; setup_s over %zu "
              "setups: p10=%.6g median=%.6g\n",
              wall_per_sim.size(), quantile(wall_per_sim, 0.0),
              quantile(wall_per_sim, 0.1), quantile(wall_per_sim, 0.25),
              quantile(wall_per_sim, 0.5), quantile(wall_per_sim, 0.75),
              quantile(wall_per_sim, 1.0), setup_s.size(),
              quantile(setup_s, 0.1), median(setup_s));
}

void report_end_to_end(const Measured& m, Result& res) {
  std::vector<double> wall_per_sim, rss;
  for (const Rep& r : m.reps) {
    wall_per_sim.push_back(r.run_s / kMeasuredSpan.to_seconds());
    rss.push_back(r.peak_rss_mb);
  }
  report_end_to_end(wall_per_sim, m.setup_s, rss, res);
}

// Per-layer metrics common to the websearch workloads, from the traced
// run `traced` (counters) and the untraced reps (timings).
void report_engine_layers(const Measured& m, const Rep& traced,
                          const telemetry::Snapshot& snap,
                          std::uint64_t elided, Result& res) {
  std::vector<double> run_s, build_s;
  for (const Rep& r : m.reps) {
    run_s.push_back(r.run_s);
    build_s.push_back(r.build_s);
  }
  const double run_med = median(run_s);
  res.layer("sim.run_s", run_med, "s");
  res.layer("sim.events_executed", traced.events_executed, "count");
  res.layer("sim.events_scheduled", traced.events_scheduled, "count");
  res.layer("sim.ns_per_event",
            traced.events_executed > 0
                ? run_med * 1e9 / static_cast<double>(traced.events_executed)
                : 0.0,
            "ns");
  res.layer("core.build_s", median(build_s), "s");

  const double sent = static_cast<double>(counter_of(snap, "net.link.sent"));
  res.layer("net.link.sent", sent, "count");
  res.layer("net.link.drop_frac",
            sent > 0 ? counter_of(snap, "net.link.dropped") / sent : 0.0,
            "fraction");
  const auto* qd = snap.find("net.link.queue_depth_bytes");
  res.layer("net.link.queue_depth_p99_bytes",
            qd == nullptr ? 0.0 : qd->quantile(0.99), "bytes");
  res.layer("net.switch.forwarded", counter_of(snap, "net.switch.forwarded"),
            "count");
  const double segs = static_cast<double>(counter_of(snap, "tcp.segments_sent"));
  res.layer("tcp.segments_sent", segs, "count");
  res.layer("tcp.retx_frac",
            segs > 0 ? counter_of(snap, "tcp.retransmissions") / segs : 0.0,
            "fraction");
  res.layer("tcp.timeouts", counter_of(snap, "tcp.timeouts"), "count");

  res.layer("workload.flows_injected", m.first_output.flows.size(), "count");
  res.layer("workload.flows_completed", m.first_output.completed(), "count");
  res.layer("workload.flows_elided", elided, "count");

  res.layer("trace.overhead_frac",
            run_med > 0 ? traced.run_s / run_med - 1.0 : 0.0, "fraction");
}

void report_accuracy(const perfbench::Accuracy& a, Result& res) {
  res.layer("fct_ks", a.fct_ks, "ks");
  res.layer("rtt_ks", a.rtt_ks, "ks");
  res.layer("fct_p99_err", a.fct_p99_err, "fraction");
  std::printf("accuracy: fct_ks=%.17g rtt_ks=%.17g fct_p99_err=%.17g "
              "matched_flows=%llu\n",
              a.fct_ks, a.rtt_ks, a.fct_p99_err,
              static_cast<unsigned long long>(a.matched_flows));
}

// The traced part of a run: a TraceSession is active while this lives, and
// the Chrome trace is written to `path` when it ends.
class TraceScope {
 public:
  explicit TraceScope(std::string path)
      : session_{config()}, path_{std::move(path)} {
    session_.start();
  }
  ~TraceScope() {
    session_.stop();
    if (!path_.empty()) session_.write_chrome_json(path_);
  }

 private:
  static telemetry::TraceSession::Config config() {
    telemetry::TraceSession::Config c;
    c.events_per_thread = std::size_t{1} << 17;
    return c;
  }
  telemetry::TraceSession session_;
  std::string path_;
};

// One run with a telemetry::Registry installed on the engine.
template <typename RepFn>
Rep traced_rep(RepFn&& fn, telemetry::Snapshot& snap) {
  telemetry::Registry registry;
  Instruments inst;
  inst.registry = &registry;
  Rep rep = fn(&inst);
  snap = std::move(inst.snapshot);
  return rep;
}

// ---- workloads -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

std::string trace_path(const Args& a) {
  if (a.out_dir.empty()) return "";
  return a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
         ".trace.json";
}

void websearch_packet(const Args& a, Result& res) {
  const auto spec = perfbench::websearch_spec(kClusters);
  const auto flows = perfbench::make_websearch_flows(
      spec, kLoad, kIntraFraction, kHorizon, a.seed);
  Measured m;
  measure_reps([&] { return packet_rep(spec, flows, a.seed, nullptr); },
               a.seconds, m, res);
  for (const Rep& r : m.reps) m.setup_s.push_back(r.setup_s);
  report_end_to_end(m, res);
  if (!a.trace) return;
  TraceScope scope{trace_path(a)};
  telemetry::Snapshot snap;
  const Rep traced = traced_rep(
      [&](Instruments* i) { return packet_rep(spec, flows, a.seed, i); },
      snap);
  if (!perfbench::identical_outputs(m.first_output, traced.out)) {
    res.fail("traced run differs from the untraced run");
  }
  report_engine_layers(m, traced, snap, 0, res);
}

core::ExperimentConfig hybrid_config(std::uint64_t seed) {
  // fig5_speedup's full-mode configuration.
  core::ExperimentConfig cfg;
  cfg.net.spec = perfbench::websearch_spec(kClusters);
  cfg.load = kLoad;
  cfg.intra_fraction = kIntraFraction;
  cfg.seed = seed;
  cfg.train_duration = SimTime::from_ms(30);
  cfg.model.hidden = 16;
  cfg.model.layers = 2;
  cfg.train.batches = 150;
  cfg.train.batch_size = 32;
  cfg.train.seq_len = 24;
  cfg.train.learning_rate = 5e-3;
  return cfg;
}

void websearch_hybrid(const Args& a, Result& res) {
  const auto spec = perfbench::websearch_spec(kClusters);
  const auto all = perfbench::make_websearch_flows(spec, kLoad, kIntraFraction,
                                                   kHorizon, a.seed);
  const auto flows = perfbench::without_approx_pairs(spec, all, 0);
  const auto cfg = hybrid_config(a.seed);

  // Setup: record the boundary trace, build datasets and train both
  // models, then build the network; repeated kHybridSetups times, each
  // followed by one measured run. Training is deterministic, so every
  // setup must yield the same run output.
  core::BoundaryTrace trace;
  core::TrainedModels models;
  std::vector<double> trace_s, train_s;
  Measured m;
  const auto record_and_train = [&] {
    auto t0 = Clock::now();
    {
      telemetry::Span span{"bench.record_trace"};
      trace = core::record_boundary_trace(cfg);
    }
    trace_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    {
      telemetry::Span span{"bench.train"};
      models = core::train_from_trace(cfg, trace);
    }
    train_s.push_back(seconds_since(t0));
  };
  const auto one_rep = [&] {
    return hybrid_rep(spec, flows, a.seed, cfg, models, nullptr);
  };
  for (int k = 0; k < kHybridSetups; ++k) {
    record_and_train();
    Rep rep = one_rep();
    m.setup_s.push_back(trace_s.back() + train_s.back() + rep.setup_s);
    add_rep(std::move(rep), m, res);
  }
  measure_reps(one_rep, a.seconds, m, res);
  report_end_to_end(m, res);
  const double trace_med = median(trace_s);
  const double train_med = median(train_s);

  // Accuracy against the all-packet reference, run untimed after the
  // measured part so it stays out of peak_rss_mb.
  const Rep ref = packet_rep(spec, all, a.seed, nullptr);
  const auto acc = perfbench::matched_accuracy(spec, ref.out, m.first_output);
  if (!std::isfinite(acc.fct_ks) || !std::isfinite(acc.rtt_ks) ||
      !std::isfinite(acc.fct_p99_err)) {
    res.fail("accuracy metrics are not finite");
  }
  report_accuracy(acc, res);
  if (!a.trace) return;

  // Traced part: one more setup and run under the session, plus the
  // dataset build and MicroModel::predict timed on their own.
  TraceScope scope{trace_path(a)};
  record_and_train();
  telemetry::Snapshot snap;
  const Rep traced = traced_rep(
      [&](Instruments* i) {
        return hybrid_rep(spec, flows, a.seed, cfg, models, i);
      },
      snap);
  if (!perfbench::identical_outputs(m.first_output, traced.out)) {
    res.fail("traced run differs from the untraced run");
  }
  report_engine_layers(m, traced, snap, all.size() - flows.size(), res);

  const auto& s = traced.approx;
  const double boundary = static_cast<double>(
      s.egress_packets + s.ingress_packets + s.intra_packets);
  const double inferences =
      static_cast<double>(counter_of(snap, "approx.inferences"));
  res.layer("approx.boundary_packets", boundary, "count");
  res.layer("approx.inferences", inferences, "count");
  res.layer("approx.inferences_per_boundary_packet",
            boundary > 0 ? inferences / boundary : 0.0, "ratio");
  const auto* inf = snap.find("approx.inference_ns");
  res.layer("approx.inference_ns_p50", inf ? inf->quantile(0.5) : 0.0, "ns");
  res.layer("approx.inference_ns_p99", inf ? inf->quantile(0.99) : 0.0, "ns");
  res.layer("approx.inference_share",
            inf && traced.run_s > 0
                ? static_cast<double>(inf->sum) * 1e-9 / traced.run_s
                : 0.0,
            "fraction");
  res.layer("approx.predicted_drops", s.predicted_drops, "count");
  res.layer("approx.backlog_drops", s.backlog_drops, "count");
  res.layer("approx.conflicts_resolved", s.conflicts_resolved, "count");
  res.layer("approx.macro_transitions",
            counter_of(snap, "approx.macro_transitions"), "count");
  res.layer("approx.tier_packets.packet",
            s.tier_packets[static_cast<int>(core::ClusterTier::Packet)],
            "count");
  res.layer("approx.tier_packets.ml",
            s.tier_packets[static_cast<int>(core::ClusterTier::Ml)], "count");
  res.layer("approx.tier_packets.fluid",
            s.tier_packets[static_cast<int>(core::ClusterTier::Fluid)],
            "count");

  // Setup layers: dataset build timed on its own, training is the rest of
  // train_from_trace.
  const auto td = Clock::now();
  approx::Dataset ingress_ds;
  {
    telemetry::Span span{"bench.dataset"};
    ingress_ds = approx::build_dataset(trace.spec, trace.cluster,
                                       approx::Direction::Ingress,
                                       trace.records, cfg.macro);
    const auto egress_ds = approx::build_dataset(
        trace.spec, trace.cluster, approx::Direction::Egress, trace.records,
        cfg.macro);
  }
  const double dataset_s = seconds_since(td);
  const double train_only = std::max(0.0, train_med - dataset_s);
  res.layer("setup.trace_s", trace_med, "s");
  res.layer("setup.dataset_s", dataset_s, "s");
  res.layer("approx.boundary_records", trace.records.size(), "count");
  res.layer("ml.train_s", train_only, "s");
  res.layer("ml.train_ns_per_step",
            train_only * 1e9 / (2.0 * static_cast<double>(cfg.train.batches)),
            "ns");
  res.layer("ml.final_loss",
            0.5 * (models.ingress_report.final_loss +
                   models.egress_report.final_loss),
            "loss");

  // MicroModel::predict timed outside the simulation over the ingress
  // dataset's rows.
  approx::MicroModel model = *models.ingress;
  model.reset_state();
  const std::size_t rows = ingress_ds.size();
  double sink = 0.0;
  const auto tp = Clock::now();
  for (std::size_t i = 0; i < rows; ++i) {
    sink += model.predict(ingress_ds.features[i]).drop_probability;
  }
  const double predict_s = seconds_since(tp);
  res.layer("ml.predict_ns",
            rows > 0 ? predict_s * 1e9 / static_cast<double>(rows) : 0.0,
            "ns");
  if (!std::isfinite(sink)) res.fail("model predictions are not finite");
}

void websearch_pdes(const Args& a, Result& res) {
  const auto spec = perfbench::websearch_spec(kClusters);
  const auto flows = perfbench::make_websearch_flows(
      spec, kLoad, kIntraFraction, kHorizon, a.seed);
  Measured m;
  measure_reps([&] { return pdes_rep(spec, flows, a.seed, nullptr); },
               a.seconds, m, res);
  for (const Rep& r : m.reps) m.setup_s.push_back(r.setup_s);
  report_end_to_end(m, res);

  // Determinism contract: the partitioned run must reproduce the
  // sequential packet run exactly. A mismatch fails every measured flow.
  const Rep ref = packet_rep(spec, flows, a.seed, nullptr);
  const auto acc = perfbench::matched_accuracy(spec, ref.out, m.first_output);
  if (!perfbench::identical_outputs(ref.out, m.first_output) ||
      acc.fct_ks != 0.0 || acc.rtt_ks != 0.0 || acc.fct_p99_err != 0.0) {
    res.fail("PDES output differs from the sequential packet run");
    res.failed = res.attempted;
  }
  report_accuracy(acc, res);
  if (!a.trace) return;

  TraceScope scope{trace_path(a)};
  telemetry::Snapshot snap;
  const Rep traced = traced_rep(
      [&](Instruments* i) { return pdes_rep(spec, flows, a.seed, i); }, snap);
  if (!perfbench::identical_outputs(m.first_output, traced.out)) {
    res.fail("traced run differs from the untraced run");
  }
  report_engine_layers(m, traced, snap, 0, res);
  const double p = static_cast<double>(traced.partition_events.size());
  res.layer("pdes.sync_rounds", traced.pdes.sync_rounds, "count");
  res.layer("pdes.cross_messages", traced.pdes.cross_messages, "count");
  res.layer("pdes.sync_wait_frac",
            traced.run_s > 0
                ? traced.pdes.sync_wait_seconds / (p * traced.run_s)
                : 0.0,
            "fraction");
  res.layer("pdes.overflow_posts", counter_of(snap, "pdes.overflow_posts"),
            "count");
  double sum = 0.0, mx = 0.0;
  for (auto e : traced.partition_events) {
    sum += static_cast<double>(e);
    mx = std::max(mx, static_cast<double>(e));
  }
  res.layer("pdes.partition_events_max_over_mean",
            sum > 0 ? mx / (sum / p) : 0.0, "ratio");
  res.layer("partition.cut_links", traced.cut_links, "count");
}

// One ring-allreduce training iteration per phase (bench_memo's shape):
// every host streams a gradient shard to its ring successor, plus a small
// parameter broadcast from host 0. Shard sizes vary with the seed.
memo::PeriodicScenario allreduce_workload(std::uint64_t seed,
                                          std::uint32_t phases) {
  check::Scenario base;
  base.seed = seed;
  base.tors = 2;
  base.spines = 2;
  base.hosts_per_tor = 4;
  base.queue_bytes = 150'000;
  base.tcp = check::TcpVariant::NewReno;
  sim::Rng rng{seed};
  const std::uint32_t hosts = base.total_hosts();
  std::uint64_t id = 1;
  for (std::uint32_t h = 0; h < hosts; ++h) {
    check::FlowSpec f;
    f.src = h;
    f.dst = (h + 1) % hosts;
    f.bytes = 28'000 + 1'000 * rng.uniform_int(5);
    f.start_ns = 5'000 + 1'000 * static_cast<std::int64_t>(h);
    f.flow_id = id++;
    base.flows.push_back(f);
  }
  for (std::uint32_t h = 1; h < hosts; h += 3) {
    check::FlowSpec f;
    f.src = 0;
    f.dst = h;
    f.bytes = 8'000;
    f.start_ns = 400'000 + 1'000 * static_cast<std::int64_t>(h);
    f.flow_id = id++;
    base.flows.push_back(f);
  }
  base.duration_ns = kMemoPeriodNs;
  return memo::make_periodic(base, phases, kMemoPeriodNs);
}

// Port-wrap probe: host 0 opens kProbeFlowsPerPhase small flows per phase,
// so its ephemeral ports (10,000-60,000) wrap within the run.
memo::PeriodicScenario portwrap_workload(std::uint64_t seed) {
  check::Scenario base;
  base.seed = seed;
  base.tors = 2;
  base.spines = 2;
  base.hosts_per_tor = 4;
  base.tcp = check::TcpVariant::NewReno;
  const std::uint32_t hosts = base.total_hosts();
  for (std::uint32_t i = 0; i < kProbeFlowsPerPhase; ++i) {
    check::FlowSpec f;
    f.src = 0;
    f.dst = 1 + i % (hosts - 1);
    f.bytes = 1'000;
    f.start_ns = 5'000 + 2'000 * static_cast<std::int64_t>(i);
    f.flow_id = i + 1;
    base.flows.push_back(f);
  }
  base.duration_ns = kMemoPeriodNs;
  return memo::make_periodic(base, kProbePhases, kMemoPeriodNs);
}

struct MemoRep {
  memo::MemoRunOutcome out;
  double setup_s = 0.0;
  double run_s = 0.0;
  double peak_rss_mb = 0.0;
};

MemoRep memo_rep(std::uint64_t seed, std::uint32_t phases, bool enabled) {
  MemoRep r;
  const auto t0 = Clock::now();
  memo::PeriodicScenario ps;
  {
    telemetry::Span span{"bench.memo_setup"};
    ps = allreduce_workload(seed, phases);
    ps.scenario.validate();
  }
  r.setup_s = seconds_since(t0);
  memo::MemoConfig mc;
  mc.enabled = enabled;
  memo::MemoRunner runner{mc};
  reset_peak_rss();
  const auto t1 = Clock::now();
  {
    telemetry::Span span{enabled ? "bench.memo_run" : "bench.memo_check"};
    r.out = runner.run(ps.scenario, ps.pattern, check::EngineSpec{0, false},
                       /*with_digest=*/false);
  }
  r.run_s = seconds_since(t1);
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

void allreduce_memo(const Args& a, Result& res) {
  const double sim_s = kMemoPhases * kMemoPeriodNs * 1e-9;
  const std::uint64_t flows_per_run =
      allreduce_workload(a.seed, 1).scenario.flows.size() * kMemoPhases;
  std::vector<MemoRep> reps;
  double run_total = 0.0;
  while (static_cast<int>(reps.size()) < kMinReps || run_total < a.seconds) {
    reps.push_back(memo_rep(a.seed, kMemoPhases, true));
    run_total += reps.back().run_s;
  }
  std::vector<double> wall_per_sim, setup, rss, run_s;
  for (const auto& r : reps) {
    wall_per_sim.push_back(r.run_s / sim_s);
    setup.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);
    run_s.push_back(r.run_s);
  }
  report_end_to_end(wall_per_sim, setup, rss, res);

  // Output check: an untimed memo-off run must land on the same final
  // state and completed-flow count; a mismatch fails every flow of the
  // mismatching run. In a traced run the session covers this check, the
  // probe and one more memo-on run.
  std::optional<TraceScope> scope;
  if (a.trace) scope.emplace(trace_path(a));
  const MemoRep off = memo_rep(a.seed, kMemoPhases, false);
  for (const auto& r : reps) {
    res.attempted += flows_per_run;
    if (r.out.final_state_fp != off.out.final_state_fp ||
        r.out.flows_completed != off.out.flows_completed) {
      res.fail("memo-on run differs from the memo-off run");
      res.failed += flows_per_run;
    } else {
      res.failed += flows_per_run - r.out.flows_completed;
    }
  }
  if (off.out.flows_completed != flows_per_run) {
    res.fail(std::to_string(flows_per_run - off.out.flows_completed) +
             " flows did not finish in the memo-off run");
  }

  // Port-wrap probe. Its known defect (connections are never reaped, so
  // a reused 4-tuple meets a stale connection) is reported, not gated.
  const auto probe = portwrap_workload(a.seed);
  const std::uint64_t probe_flows = probe.scenario.flows.size();
  std::uint64_t probe_done[2] = {0, 0};
  std::uint64_t probe_fp[2] = {0, 0};
  for (int on = 0; on < 2; ++on) {
    memo::MemoConfig mc;
    mc.enabled = on == 1;
    memo::MemoRunner runner{mc};
    telemetry::Span span{"bench.portwrap_probe"};
    const auto out = runner.run(probe.scenario, probe.pattern,
                                check::EngineSpec{0, false}, false);
    probe_done[on] = out.flows_completed;
    probe_fp[on] = out.final_state_fp;
  }
  std::printf("portwrap probe: %llu flows; memo-off lost %llu, memo-on lost "
              "%llu, final state %s\n",
              static_cast<unsigned long long>(probe_flows),
              static_cast<unsigned long long>(probe_flows - probe_done[0]),
              static_cast<unsigned long long>(probe_flows - probe_done[1]),
              probe_fp[0] == probe_fp[1] ? "identical" : "DIFFERS");
  if (!a.trace) return;

  res.layer("probe.portwrap.flows_injected", probe_flows, "count");
  res.layer("probe.portwrap.lost_memo_off", probe_flows - probe_done[0],
            "count");
  res.layer("probe.portwrap.lost_memo_on", probe_flows - probe_done[1],
            "count");
  res.layer("probe.portwrap.fp_mismatch", probe_fp[0] != probe_fp[1] ? 1 : 0,
            "count");

  // MemoRunner publishes no registry; the session records the
  // benchmark's spans around its calls.
  const MemoRep traced = memo_rep(a.seed, kMemoPhases, true);
  const double on_med = median(run_s);
  const auto& st = reps.front().out.stats;
  res.layer("sim.run_s", on_med, "s");
  res.layer("workload.flows_injected", flows_per_run, "count");
  res.layer("workload.flows_completed", reps.front().out.flows_completed,
            "count");
  res.layer("memo.lookups", st.lookups, "count");
  res.layer("memo.hits", st.hits, "count");
  res.layer("memo.misses", st.misses, "count");
  res.layer("memo.near_misses", st.near_misses, "count");
  res.layer("memo.hit_ratio",
            st.lookups > 0 ? static_cast<double>(st.hits) / st.lookups : 0.0,
            "fraction");
  res.layer("memo.fast_forward_frac",
            static_cast<double>(st.fast_forwarded_phases) / kMemoPhases,
            "fraction");
  res.layer("memo.cache_bytes", reps.front().out.cache_bytes, "bytes");
  res.layer("memo.evictions", st.evictions, "count");
  res.layer("memo.store_aborts", st.store_aborts, "count");
  res.layer("memo.off_run_s", off.run_s, "s");
  res.layer("memo.speedup", on_med > 0 ? off.run_s / on_med : 0.0, "x");
  res.layer("trace.overhead_frac",
            on_med > 0 ? traced.run_s / on_med - 1.0 : 0.0, "fraction");
}

// ---- host block and output -------------------------------------------------

std::string cpu_model() {
  std::ifstream f{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto s = line.substr(colon + 1);
        s.erase(0, s.find_first_not_of(' '));
        return s;
      }
    }
  }
  return "unknown";
}

// Mirrors the inference kernel selection in ml/inference.cc: the
// ESIM_INFERENCE_ISA override, else AVX2 first, then AVX-512, else scalar.
std::string inference_isa() {
#if defined(__x86_64__)
  const char* force = std::getenv("ESIM_INFERENCE_ISA");
  if (force != nullptr && force[0] != '\0') {
    const std::string v{force};
    if (v == "avx512" && __builtin_cpu_supports("avx512f")) return "avx512";
    if (v == "avx2" && __builtin_cpu_supports("avx2")) return "avx2";
    return "scalar";
  }
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("avx512f")) return "avx512";
#endif
  return "scalar";
}

telemetry::Json host_block(const Args& a) {
  auto h = telemetry::Json::object();
  h["nproc"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  h["cpu_model"] = cpu_model();
  h["inference_isa"] = inference_isa();
  h["build_type"] = PERFBENCH_BUILD_TYPE;
  h["pdes_partitions"] = static_cast<std::uint64_t>(pdes_partitions());
  h["seed"] = a.seed;
  h["horizon_ms"] = static_cast<double>(kHorizon.ns()) * 1e-6;
  return h;
}

telemetry::Json metrics_json(
    const std::map<std::string, std::pair<double, std::string>>& m) {
  auto j = telemetry::Json::object();
  for (const auto& [name, vu] : m) {
    auto e = telemetry::Json::object();
    e["value"] = vu.first;
    e["unit"] = vu.second;
    j[name] = std::move(e);
  }
  return j;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  const std::map<std::string, std::function<void(const Args&, Result&)>>
      workloads = {{"websearch_packet", websearch_packet},
                   {"websearch_hybrid", websearch_hybrid},
                   {"websearch_pdes", websearch_pdes},
                   {"allreduce_memo", allreduce_memo}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  std::printf("host: %s\n", host_block(args).dump(0).c_str());
  std::fflush(stdout);
  Result res;
  try {
    it->second(args, res);
  } catch (const std::exception& e) {
    // A run that throws fails all of its flows; there is no result.
    std::fprintf(stderr, "perfbench_driver: run failed: %s\n", e.what());
    return 1;
  }
  for (const auto& p : res.problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  if (args.trace) {
    if (!args.out_dir.empty()) {
      auto doc = telemetry::Json::object();
      doc["workload"] = args.workload;
      doc["host"] = host_block(args);
      doc["metrics"] = metrics_json(res.layers);
      std::ofstream f{args.out_dir + "/" + args.workload + "-seed" +
                      std::to_string(args.seed) + ".layers.json"};
      f << doc.dump(2) << "\n";
    }
  }
  auto out = telemetry::Json::object();
  out["correct"] = res.correct;
  out["attempted"] = res.attempted;
  out["failed"] = res.failed;
  out["metrics"] = metrics_json(args.trace ? res.layers : res.end_to_end);
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}
