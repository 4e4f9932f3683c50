#include "core/experiment.h"

#include <chrono>
#include <future>
#include <stdexcept>

#include "approx/dataset.h"
#include "approx/evaluation.h"
#include "core/engine.h"
#include "telemetry/trace.h"
#include "workload/generator.h"

namespace esim::core {

namespace {

void accumulate(stats::PacketCounter& into, const net::Link* link) {
  if (link == nullptr) return;
  into.sent += link->counter().sent;
  into.delivered += link->counter().delivered;
  into.dropped += link->counter().dropped;
}

RegionCounters collect_regions(const BuiltNetwork& network) {
  RegionCounters r;
  for (const auto* l : network.host_uplinks) accumulate(r.host_uplinks, l);
  for (const auto* l : network.host_downlinks) {
    accumulate(r.host_downlinks, l);
  }
  for (const auto& [cluster, l] : network.intra_fabric_links) {
    accumulate(r.intra_fabric, l);
  }
  for (const auto& att : network.core_links) {
    accumulate(r.core, att.up);
    accumulate(r.core, att.down);
  }
  return r;
}

std::unique_ptr<workload::FlowSizeDistribution> make_sizes(
    WorkloadScale scale) {
  if (scale == WorkloadScale::FullWebSearch) {
    return workload::web_search_distribution();
  }
  return workload::mini_web_distribution();
}

net::ClosSpec resolve_train_spec(const ExperimentConfig& config) {
  net::ClosSpec spec = config.train_spec;
  if (spec.clusters == 0) {
    spec = config.net.spec;
    spec.clusters = 2;
    if (spec.cores == 0) spec.cores = 2;
  }
  spec.validate();
  if (spec.clusters < 2) {
    throw std::invalid_argument(
        "train_cluster_models: training topology needs >= 2 clusters");
  }
  return spec;
}

/// The traffic body every experiment run shares, on a sequential engine
/// (the paper's accuracy and speed comparisons are): RTT collection on
/// cluster 0's hosts, the experiment's generators (arrivals until
/// `stop_at`, behind `admit` when set), the timed run to `end` and the
/// FCT summary. The size distribution, traffic matrix and RTT collector
/// are locals here, so `engine` must not run again afterwards.
RunResult run_traffic(const ExperimentConfig& config, Engine& engine,
                      const BuiltNetwork& network, sim::SimTime stop_at,
                      sim::SimTime end, Engine::Admit admit) {
  RunResult result;
  const net::ClosSpec& spec = network.spec;
  stats::LatencyCollector rtt;
  for (net::HostId h = 0; h < spec.total_hosts(); ++h) {
    if (spec.cluster_of_host(h) == 0) {
      network.hosts[h]->set_rtt_collector(&rtt);
    }
  }

  auto sizes = make_sizes(config.workload);
  workload::ClusterMixTraffic matrix{spec, config.intra_fraction};
  workload::TrafficGenerator::Config gcfg;
  gcfg.load = config.load;
  gcfg.host_bandwidth_bps = config.net.host_uplink.bandwidth_bps;
  gcfg.stop_at = stop_at;
  const auto gens = engine.start_generators(network, sizes.get(), &matrix,
                                            gcfg, std::move(admit));

  const auto start = std::chrono::steady_clock::now();
  engine.run_until(end);
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  const EngineCounters counters = engine.counters();
  result.events_executed = counters.events_executed;
  result.events_scheduled = counters.events_scheduled;
  result.rtt_cdf = rtt.cdf();
  double sum = 0;
  for (const workload::TrafficGenerator* gen : gens) {
    result.flows_launched += gen->launched();
    result.flows_completed += gen->flows().completed_count();
    for (const auto& r : gen->flows().records()) {
      if (!r.completed) continue;
      sum += r.fct().to_seconds();
      result.fct_cdf.add(r.fct().to_seconds());
    }
  }
  if (result.flows_completed > 0) {
    result.mean_fct_seconds =
        sum / static_cast<double>(result.flows_completed);
  }
  return result;
}

}  // namespace

approx::BoundaryTaps make_boundary_taps(const BuiltNetwork& network,
                                        std::uint32_t cluster) {
  approx::BoundaryTaps taps;
  const auto& spec = network.spec;
  for (net::HostId h = 0; h < spec.total_hosts(); ++h) {
    if (spec.cluster_of_host(h) != cluster) continue;
    taps.host_uplinks.push_back(network.host_uplinks[h]);
    taps.host_downlinks.push_back(network.host_downlinks[h]);
    taps.drop_links.push_back(network.host_downlinks[h]);
  }
  for (const auto& att : network.core_links) {
    if (att.cluster != cluster) continue;
    taps.agg_core_up.push_back(att.up);
    taps.core_agg_down.push_back(att.down);
    taps.drop_links.push_back(att.up);
  }
  for (const auto& [c, link] : network.intra_fabric_links) {
    if (c == cluster) taps.drop_links.push_back(link);
  }
  return taps;
}

BoundaryTrace record_boundary_trace(const ExperimentConfig& config) {
  telemetry::Span phase{"experiment.record_trace"};
  const net::ClosSpec spec = resolve_train_spec(config);

  Engine engine{{.num_partitions = 0, .seed = config.seed}};
  NetworkConfig net_cfg = config.net;
  net_cfg.spec = spec;
  auto network = engine.build_full(net_cfg);

  constexpr std::uint32_t kModeledCluster = 1;
  const auto taps = make_boundary_taps(network, kModeledCluster);
  approx::TraceRecorder recorder{spec, kModeledCluster, taps};

  // Let in-flight traffic drain a little past the arrival cutoff so late
  // boundary crossings complete.
  run_traffic(config, engine, network, config.train_duration,
              config.train_duration + sim::SimTime::from_ms(20), {});
  recorder.finalize();

  BoundaryTrace trace;
  trace.spec = spec;
  trace.cluster = kModeledCluster;
  trace.records = recorder.records();
  return trace;
}

TrainedModels train_from_trace(const ExperimentConfig& config,
                               const BoundaryTrace& trace) {
  telemetry::Span phase{"experiment.train"};
  TrainedModels out;
  out.boundary_records = trace.records.size();

  approx::Dataset ingress_ds =
      approx::build_dataset(trace.spec, trace.cluster,
                            approx::Direction::Ingress, trace.records,
                            config.macro);
  approx::Dataset egress_ds =
      approx::build_dataset(trace.spec, trace.cluster,
                            approx::Direction::Egress, trace.records,
                            config.macro);

  // Optional held-out split (chronological tail) for post-training eval.
  const bool eval = config.eval_holdout > 0.0;
  if (config.eval_holdout < 0.0 || config.eval_holdout >= 1.0) {
    throw std::invalid_argument(
        "train_from_trace: eval_holdout must be in [0, 1)");
  }
  approx::Dataset ingress_test, egress_test;
  if (eval) {
    const double train_fraction = 1.0 - config.eval_holdout;
    std::tie(ingress_ds, ingress_test) =
        approx::split_dataset(ingress_ds, train_fraction);
    std::tie(egress_ds, egress_test) =
        approx::split_dataset(egress_ds, train_fraction);
  }

  approx::MicroModel::Config mcfg = config.model;
  out.ingress = std::make_unique<approx::MicroModel>(mcfg);
  mcfg.seed += 1;
  out.egress = std::make_unique<approx::MicroModel>(mcfg);

  // The two directions share nothing mutable — each has its own model,
  // datasets and batch-sampling Rng — so egress trains on a second thread
  // while ingress trains on this one; every weight comes out as it would
  // sequentially. The future's destructor joins the worker if ingress
  // throws, and get() rethrows a worker exception.
  const auto train = [&config, eval](approx::MicroModel& model,
                                     const approx::Dataset& train_ds,
                                     const approx::Dataset& test_ds,
                                     approx::EvalMetrics& metrics) {
    approx::TrainReport report =
        approx::train_micro_model(model, train_ds, config.train);
    if (eval) metrics = approx::evaluate_micro_model(model, test_ds);
    return report;
  };
  auto egress = std::async(std::launch::async, [&] {
    return train(*out.egress, egress_ds, egress_test, out.egress_eval);
  });
  out.ingress_report =
      train(*out.ingress, ingress_ds, ingress_test, out.ingress_eval);
  out.egress_report = egress.get();
  out.has_eval = eval;
  return out;
}

TrainedModels train_cluster_models(const ExperimentConfig& config) {
  return train_from_trace(config, record_boundary_trace(config));
}

RunResult run_full_simulation(const ExperimentConfig& config,
                              const net::ClosSpec& spec) {
  telemetry::Span phase{"experiment.run_full"};
  telemetry::Registry registry;  // outlives the engine publishing into it
  Engine engine{{.num_partitions = 0, .seed = config.seed + 1}};
  if (config.telemetry) engine.set_telemetry(&registry);
  NetworkConfig net_cfg = config.net;
  net_cfg.spec = spec;
  auto network = engine.build_full(net_cfg);

  RunResult result = run_traffic(config, engine, network, config.duration,
                                 config.duration, {});
  result.regions = collect_regions(network);
  if (config.telemetry) result.metrics = registry.snapshot();
  return result;
}

RunResult run_hybrid_simulation(const ExperimentConfig& config,
                                const net::ClosSpec& spec,
                                const TrainedModels& models) {
  telemetry::Span phase{"experiment.run_hybrid"};
  telemetry::Registry registry;  // outlives the engine publishing into it
  Engine engine{{.num_partitions = 0, .seed = config.seed + 1}};
  if (config.telemetry) engine.set_telemetry(&registry);
  HybridConfig hcfg;
  hcfg.net = config.net;
  hcfg.net.spec = spec;
  hcfg.full_cluster = 0;
  hcfg.approx = config.approx;
  hcfg.approx.macro = config.macro;
  std::unique_ptr<telemetry::FidelitySink> fidelity;
  if (config.fidelity.enabled) {
    fidelity = std::make_unique<telemetry::FidelitySink>(config.fidelity);
    hcfg.approx.fidelity = fidelity.get();
  }
  auto network = engine.build_hybrid(hcfg, *models.ingress, *models.egress);

  // Elide traffic entirely between approximated clusters (paper §6.2):
  // it cannot affect measurements taken in the full-fidelity cluster.
  RunResult result = run_traffic(
      config, engine, network, config.duration, config.duration,
      [&spec](net::HostId src, net::HostId dst) {
        return spec.cluster_of_host(src) == 0 ||
               spec.cluster_of_host(dst) == 0;
      });
  for (auto* cluster : network.clusters) {
    if (cluster == nullptr) continue;
    // The stats snapshot is a flush barrier: a duration cutoff can land
    // inside a batch window, leaving admitted packets whose flush timer
    // is past the cutoff. Their outcomes are fully determined at
    // admission (features, drop draw), and batch_window < min_latency_s
    // guarantees their deliveries would not have executed before the
    // cutoff either way — so flushing here makes the counters match the
    // unbatched run exactly instead of undercounting the final window.
    cluster->flush_batch();
    cluster->finalize_fidelity();
    result.approx_stats.egress_packets += cluster->stats().egress_packets;
    result.approx_stats.ingress_packets += cluster->stats().ingress_packets;
    result.approx_stats.intra_packets += cluster->stats().intra_packets;
    result.approx_stats.predicted_drops += cluster->stats().predicted_drops;
    result.approx_stats.conflicts_resolved +=
        cluster->stats().conflicts_resolved;
    result.approx_stats.backlog_drops += cluster->stats().backlog_drops;
    for (std::size_t t = 0; t < kClusterTierCount; ++t) {
      result.approx_stats.tier_packets[t] += cluster->stats().tier_packets[t];
    }
    result.approx_stats.tier_transitions += cluster->stats().tier_transitions;
  }
  result.regions = collect_regions(network);
  if (config.telemetry) result.metrics = registry.snapshot();
  if (fidelity) result.fidelity = fidelity->report_section();
  return result;
}

}  // namespace esim::core
