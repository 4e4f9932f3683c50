#include "check/engine.h"

#include "check/digest.h"
#include "core/pdes_builder.h"

namespace esim::check {

std::string EngineSpec::label() const {
  std::string s = partitions == 0
                      ? "sequential"
                      : "pdes(" + std::to_string(partitions) + ")";
  if (invert_tiebreak) s += "+inverted-tiebreak";
  return s;
}

Engine::Engine(const EngineSpec& spec, std::uint64_t seed,
               sim::SimTime lookahead,
               sim::ParallelEngine::WindowMode window_mode) {
  if (spec.partitions == 0) {
    parts_.push_back(&sequential_.emplace(seed));
  } else {
    sim::ParallelEngine::Config cfg;
    cfg.num_partitions = spec.partitions;
    cfg.lookahead = lookahead;
    cfg.window_mode = window_mode;
    cfg.seed = seed;
    sim::ParallelEngine& eng = pdes_.emplace(cfg);
    for (std::uint32_t p = 0; p < eng.num_partitions(); ++p) {
      parts_.push_back(&eng.partition(p).sim());
    }
  }
  // Before anything is scheduled: the FES refuses a tie-break change once
  // events are queued.
  if (spec.invert_tiebreak) {
    for (sim::Simulator* part : parts_) part->debug_invert_fes_tiebreak(true);
  }
}

core::BuiltNetwork Engine::build_full(const core::NetworkConfig& config) {
  if (pdes_) {
    return core::build_clos_partitioned(*pdes_, config,
                                        core::PlacementPolicy::graph_cut);
  }
  return core::build_full_network(*sequential_, config);
}

core::BuiltNetwork Engine::build_hybrid(const core::HybridConfig& config,
                                        const approx::MicroModel& ingress,
                                        const approx::MicroModel& egress) {
  if (pdes_) {
    return core::build_hybrid_network_partitioned(*pdes_, config, ingress,
                                                  egress);
  }
  return core::build_hybrid_network(*sequential_, config, ingress, egress);
}

void Engine::attach(StateDigest& digest) {
  for (sim::Simulator* part : parts_) digest.attach(*part);
}

void Engine::run_until(sim::SimTime end) {
  if (pdes_) {
    pdes_->run_until(end);
  } else {
    sequential_->run_until(end);
  }
}

void inject_flows(Engine& engine, const std::vector<FlowSpec>& flows,
                  const core::BuiltNetwork& net, StateDigest& digest) {
  for (std::uint32_t p = 0; p < engine.parts().size(); ++p) {
    sim::Simulator& sim = *engine.parts()[p];
    for (const FlowSpec& f : flows) {
      if (net.partition_of_host[f.src] != p) continue;
      tcp::Host* host = net.hosts[f.src];
      sim.schedule_at(sim::SimTime::from_ns(f.start_ns), [host, f, &digest] {
        auto* conn = host->open_flow(f.dst, f.bytes, f.flow_id);
        const sim::SimTime start = host->sim().now();
        conn->on_complete = [host, f, start, &digest] {
          digest.on_flow_complete(f.flow_id, f.src, f.dst, f.bytes, start,
                                  host->sim().now());
        };
      });
    }
  }
}

}  // namespace esim::check
