#include "core/engine.h"

#include <string>
#include <utility>

#include "core/pdes_builder.h"

namespace esim::core {

Engine::Engine(const sim::ParallelEngine::Config& config) {
  if (config.num_partitions == 0) {
    parts_.push_back(&sequential_.emplace(config.seed));
    return;
  }
  sim::ParallelEngine& eng = pdes_.emplace(config);
  for (std::uint32_t p = 0; p < eng.num_partitions(); ++p) {
    parts_.push_back(&eng.partition(p).sim());
  }
}

void Engine::set_telemetry(telemetry::Registry* registry) {
  if (pdes_) {
    pdes_->set_telemetry(registry);
  } else {
    sequential_->set_telemetry(registry);
  }
}

BuiltNetwork Engine::build_full(const NetworkConfig& config,
                                PlacementPolicy policy) {
  if (pdes_) return build_clos_partitioned(*pdes_, config, policy);
  return build_full_network(*sequential_, config);
}

BuiltNetwork Engine::build_hybrid(const HybridConfig& config,
                                  const approx::MicroModel& ingress,
                                  const approx::MicroModel& egress) {
  if (pdes_) {
    return build_hybrid_network_partitioned(*pdes_, config, ingress, egress);
  }
  return build_hybrid_network(*sequential_, config, ingress, egress);
}

std::vector<workload::TrafficGenerator*> Engine::start_generators(
    const BuiltNetwork& net, const workload::FlowSizeDistribution* sizes,
    const workload::TrafficMatrix* matrix,
    const workload::TrafficGenerator::Config& config, Admit admit) {
  std::vector<workload::TrafficGenerator*> gens;
  for (std::uint32_t p = 0; p < parts_.size(); ++p) {
    auto* gen = parts_[p]->add_component<workload::TrafficGenerator>(
        pdes_ ? "gen" + std::to_string(p) : "gen", net.hosts, sizes, matrix,
        config);
    if (pdes_) {
      gen->admission_filter = [&net, p, admit](net::HostId src,
                                               net::HostId dst) {
        return net.partition_of_host[src] == p && (!admit || admit(src, dst));
      };
    } else {
      gen->admission_filter = admit;
    }
    gen->start();
    gens.push_back(gen);
  }
  return gens;
}

void Engine::schedule_flows(const BuiltNetwork& net,
                            const std::vector<FlowSpec>& flows,
                            FlowDone on_complete) {
  const FlowDone* done = &flow_done_.emplace_back(std::move(on_complete));
  for (std::uint32_t p = 0; p < parts_.size(); ++p) {
    for (const FlowSpec& f : flows) {
      if (net.partition_of_host[f.src] != p) continue;
      tcp::Host* host = net.hosts[f.src];
      parts_[p]->schedule_at(sim::SimTime::from_ns(f.start_ns),
                             [host, f, done] {
                               auto* conn =
                                   host->open_flow(f.dst, f.bytes, f.flow_id);
                               conn->on_complete = [host, f, done] {
                                 (*done)(f, host->sim().now());
                               };
                             });
    }
  }
}

void Engine::run_until(sim::SimTime end) {
  if (pdes_) {
    pdes_->run_until(end);
  } else {
    sequential_->run_until(end);
  }
}

EngineCounters Engine::counters() const {
  EngineCounters c;
  for (const sim::Simulator* part : parts_) {
    c.events_executed += part->events_executed();
    c.events_scheduled += part->events_scheduled();
  }
  if (pdes_) {
    const sim::ParallelEngine::Stats& st = pdes_->stats();
    c.sync_rounds = st.sync_rounds;
    c.cross_messages = st.cross_messages;
    c.sync_wait_seconds = st.sync_wait_seconds;
    for (std::uint32_t p = 0; p < pdes_->num_partitions(); ++p) {
      c.overflow_posts += pdes_->partition(p).overflow_posts();
    }
  }
  return c;
}

}  // namespace esim::core
