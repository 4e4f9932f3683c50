// One engine handle for every run. core::Engine owns either the
// sequential Simulator or the PDES ParallelEngine its configuration
// names, builds either network kind into itself, starts traffic on the
// right partitions and runs. A run is then one straight line for both
// engine kinds: construct, build, start generators or schedule a flow
// list, run_until, read counters(). This is the only place that knows
// which kind of engine it is.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "approx/micro_model.h"
#include "core/full_builder.h"
#include "core/hybrid_builder.h"
#include "core/partitioner.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "workload/generator.h"

namespace esim::telemetry {
class Registry;
}

namespace esim::core {

/// One pre-planned TCP flow.
struct FlowSpec {
  net::HostId src = 0;
  net::HostId dst = 0;
  std::uint64_t bytes = 0;
  std::int64_t start_ns = 0;
  std::uint64_t flow_id = 0;

  bool operator==(const FlowSpec&) const = default;
};

/// Engine accounting of the runs so far. The PDES fields stay zero on the
/// sequential engine.
struct EngineCounters {
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t sync_rounds = 0;
  std::uint64_t cross_messages = 0;
  /// Cross-partition messages that spilled past a full ring.
  std::uint64_t overflow_posts = 0;
  /// Barrier wait summed over partitions, wall-clock seconds.
  double sync_wait_seconds = 0.0;
};

/// The engine a ParallelEngine::Config names. Not copyable: parts() and
/// the scheduled flows point into it.
class Engine {
 public:
  /// `config.num_partitions == 0` selects the sequential
  /// Simulator{config.seed}, which ignores every other field; otherwise a
  /// ParallelEngine with that many partitions (partition i seeded
  /// seed + i).
  explicit Engine(const sim::ParallelEngine::Config& config);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Installs a metrics registry on every part. Call before the build;
  /// the registry must outlive the engine.
  void set_telemetry(telemetry::Registry* registry);

  /// The full network; a PDES build places switches by `policy`.
  BuiltNetwork build_full(
      const NetworkConfig& config,
      PlacementPolicy policy = PlacementPolicy::graph_cut);

  /// The hybrid network; a PDES build places clusters as islands.
  BuiltNetwork build_hybrid(const HybridConfig& config,
                            const approx::MicroModel& ingress,
                            const approx::MicroModel& egress);

  /// The sequential simulator, or one per partition.
  const std::vector<sim::Simulator*>& parts() const { return parts_; }

  using Admit = std::function<bool(net::HostId src, net::HostId dst)>;

  /// Creates and starts one TrafficGenerator per part over `net`'s hosts:
  /// the sequential "gen" behind `admit`, or per partition p a "gen<p>"
  /// admitting the flows whose source is on p and that `admit` accepts.
  /// An empty `admit` accepts every flow. `net`, `sizes` and `matrix`
  /// must outlive the run.
  std::vector<workload::TrafficGenerator*> start_generators(
      const BuiltNetwork& net, const workload::FlowSizeDistribution* sizes,
      const workload::TrafficMatrix* matrix,
      const workload::TrafficGenerator::Config& config, Admit admit = {});

  using FlowDone = std::function<void(const FlowSpec& flow, sim::SimTime end)>;

  /// Schedules every flow on the part owning its source host, part by
  /// part and in list order within a part: open_flow at its start time,
  /// then `on_complete` when it finishes (called on the flow's part).
  void schedule_flows(const BuiltNetwork& net,
                      const std::vector<FlowSpec>& flows,
                      FlowDone on_complete);

  /// Runs every part to virtual time `end`; may be called repeatedly.
  void run_until(sim::SimTime end);

  EngineCounters counters() const;

 private:
  std::optional<sim::Simulator> sequential_;
  std::optional<sim::ParallelEngine> pdes_;
  std::vector<sim::Simulator*> parts_;
  /// Completion callbacks of schedule_flows, kept at stable addresses for
  /// the flows that call them.
  std::deque<FlowDone> flow_done_;
};

}  // namespace esim::core
