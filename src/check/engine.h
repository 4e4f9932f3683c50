// One engine handle for every check harness (DiffRunner, run_hybrid,
// MemoRunner). check::Engine owns the sequential Simulator or the PDES
// ParallelEngine an EngineSpec names, inverts the tie-break of every part
// before anything is scheduled, builds either network kind into itself,
// and runs. A harness is then one straight line for both engine kinds:
// build, attach the digest in partition order, inject flows, run_until.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "approx/micro_model.h"
#include "check/scenario.h"
#include "core/full_builder.h"
#include "core/hybrid_builder.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace esim::check {

class StateDigest;

/// Which engine to run a scenario under.
struct EngineSpec {
  /// 0 = sequential Simulator; >= 1 = ParallelEngine with this many
  /// partitions.
  std::uint32_t partitions = 0;
  /// Injected ordering bug: invert the FES same-time tie-break in every
  /// engine/partition of this run (see EventQueue::debug_set_invert_
  /// tiebreak). Used to prove the harness catches ordering regressions.
  bool invert_tiebreak = false;

  bool operator==(const EngineSpec&) const = default;

  std::string label() const;
};

/// The engine an EngineSpec names. Not copyable: parts() points into it.
class Engine {
 public:
  /// `lookahead` and `window_mode` configure a PDES engine, whose
  /// partition i is seeded seed + i.
  Engine(const EngineSpec& spec, std::uint64_t seed, sim::SimTime lookahead,
         sim::ParallelEngine::WindowMode window_mode);

  /// The leaf-spine harnesses' engine: a 1 us lookahead (the link
  /// propagation) and per-pair windows, so the gates exercise the
  /// scale-out path.
  Engine(const EngineSpec& spec, std::uint64_t seed)
      : Engine(spec, seed, sim::SimTime::from_us(1),
               sim::ParallelEngine::WindowMode::per_pair) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The full network; a PDES build uses graph-cut placement.
  core::BuiltNetwork build_full(const core::NetworkConfig& config);

  /// The hybrid network; a PDES build places clusters as islands.
  core::BuiltNetwork build_hybrid(const core::HybridConfig& config,
                                  const approx::MicroModel& ingress,
                                  const approx::MicroModel& egress);

  /// Hooks `digest` into every part, in partition order.
  void attach(StateDigest& digest);

  /// The sequential simulator, or one per partition.
  const std::vector<sim::Simulator*>& parts() const { return parts_; }

  void run_until(sim::SimTime end);

 private:
  std::optional<sim::Simulator> sequential_;
  std::optional<sim::ParallelEngine> pdes_;
  std::vector<sim::Simulator*> parts_;
};

/// Schedules every flow on the part owning its source host, partition by
/// partition: open_flow at its start time, completion wired into `digest`.
void inject_flows(Engine& engine, const std::vector<FlowSpec>& flows,
                  const core::BuiltNetwork& net, StateDigest& digest);

}  // namespace esim::check
