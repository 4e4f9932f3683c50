// Conservative parallel discrete-event simulation (PDES).
//
// This reproduces the *mechanism* whose cost Figure 1 of the paper
// measures: the network is split into partitions, each with its own event
// queue and worker thread, synchronized with a window-barrier ("YAWNS")
// algorithm. Two window policies are supported (Config::window_mode):
//
//   * WindowMode::global — the paper-faithful baseline. Events in
//     [window_start, window_end) are causally independent across
//     partitions because every cross-partition interaction carries at
//     least `lookahead` (the minimum over ALL partition pairs), so
//     window_end = min(next event time over all partitions) + lookahead.
//     Every partition executes the same window; the slowest-coupled pair
//     throttles everyone.
//
//   * WindowMode::per_pair — the scale-out policy. Each ordered partition
//     pair (j, i) carries its own lookahead L[j][i] (the minimum delay of
//     any j->i link; "infinite" when no such link exists). The engine
//     closes L under composition — D = all-pairs shortest paths over the
//     L graph, so D[j][i] is the minimum total delay of ANY causal chain
//     j -> ... -> i, including chains through currently idle partitions
//     and round-trip cycles back to i itself — and each partition computes
//     its own horizon per round:
//         window_end[i] = min over j of (next_event_time[j] + D[j][i])
//     Safety: every event anywhere descends from some partition j's
//     currently pending events (times >= next_event_time[j]), and each
//     cross hop k->m on the way to i adds at least L[k][m]; so nothing
//     can arrive at i before window_end[i]. Loosely coupled partitions
//     advance past tightly coupled ones' horizon instead of marching in
//     lockstep (DESIGN.md §10 gives the full argument).
//
// Cross-partition messages travel through bounded lock-free SPSC rings,
// one per (source, dest) pair (sim/spsc_queue.h), allocated lazily on
// first use: post() is wait-free on the steady state and drain_inbox()
// merges the per-source streams instead of re-sorting one shared inbox.
//
// Each sync round crosses one RoundBarrier. Before it, every partition
// publishes its FES next-event time, and the completion step folds in the
// count and earliest delivery time of the messages each partition posted
// to each other one during its last window — which together give every
// partition's post-drain next-event time without draining first. After
// it, each partition drains exactly the published counts (the producers
// may already be posting into their next window) and runs its window.
//
// The paper ran OMNeT++'s MPI-based PDES across 1–4 physical machines. We
// have threads, not a cluster, so inter-machine messaging cost is *modeled*:
// each sync round pays a configurable overhead (base cost per round plus a
// per-cross-message cost), either spun on the coordinator thread's wall
// clock (legacy, Figure 1) or accounted deterministically without spinning
// (Config::deterministic_overhead — scaling benches use this so host
// scheduling jitter cannot distort the curves). With the overhead set to
// zero the engine is a plain shared-memory PDES. DESIGN.md §1 documents
// this substitution.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sim/simulator.h"
#include "sim/spsc_queue.h"
#include "sim/time.h"

namespace esim::telemetry {
class Counter;
class Gauge;
class Histogram;
class Registry;
}

namespace esim::sim {

/// A timestamped closure crossing a partition boundary.
struct CrossMessage {
  SimTime deliver_at;
  /// FES same-time priority key, preserved into the target partition's
  /// event queue (packet id for link deliveries; see event_queue.h).
  std::uint64_t key = 0;
  std::uint32_t source_partition = 0;
  std::uint64_t source_seq = 0;  // per-source counter; makes drains sortable
  EventFn fn;
};

/// One partition of a parallel run: a full sequential Simulator plus
/// per-source-partition SPSC inbound rings for messages arriving from
/// other partitions.
class Partition {
 public:
  /// Creates partition `index` with RNG seed `seed`, receiving from up to
  /// `num_sources` source partitions through rings of `ring_capacity`.
  Partition(std::uint32_t index, std::uint64_t seed,
            std::uint32_t num_sources, std::size_t ring_capacity);

  /// This partition's index within the engine.
  std::uint32_t index() const { return index_; }

  /// The sequential engine that owns this partition's components.
  Simulator& sim() { return sim_; }

  /// What one source posted to this partition in one window.
  struct InboxCount {
    std::uint64_t messages = 0;  ///< all posts, spills included
    std::uint64_t spilled = 0;   ///< of which went to the overflow list
  };

  /// Enqueues a message from another partition (called by
  /// ParallelEngine::send_cross on the source partition's worker thread).
  /// Wait-free on the steady state: one SPSC push into the
  /// (source, this) ring. A full ring spills to a mutexed overflow list —
  /// counted, never dropped, and drained into the same deterministic
  /// order. Returns true when the message spilled.
  bool post(CrossMessage m);

  /// Drains exactly `published[s]` messages from each source s — the
  /// oldest ones on its ring plus its oldest `spilled` overflow entries —
  /// into the local event queue in deterministic order: by (deliver
  /// time, source partition, per-source sequence), sorting each source's
  /// small batch and merging the per-source streams. Returns the number
  /// of messages drained. Sources may post concurrently (their later
  /// messages queue behind the drained ones, untouched), but every
  /// counted message must have been posted before the call — the engine
  /// publishes the counts through the round barrier.
  std::size_t drain_inbox(std::span<const InboxCount> published);

  /// Messages that bypassed the rings because one was full (cumulative).
  std::uint64_t overflow_posts() const {
    return overflow_posts_.load(std::memory_order_relaxed);
  }

  /// Installs telemetry instruments (all null when telemetry is off):
  /// `ring_high_water` — max per-source backlog observed at any drain,
  /// `drained` — total messages drained, `overflow` — ring-full spills.
  void set_telemetry(telemetry::Gauge* ring_high_water,
                     telemetry::Counter* drained,
                     telemetry::Counter* overflow) {
    ring_high_water_gauge_ = ring_high_water;
    drained_ = drained;
    overflow_counter_ = overflow;
  }

 private:
  SpscQueue<CrossMessage>* ring_for(std::uint32_t source);

  std::uint32_t index_;
  Simulator sim_;
  std::size_t ring_capacity_;

  // rings_[s] is written once by source partition s's thread (lazy
  // creation under rings_mu_, published with a release store) and read by
  // this partition's thread at drains.
  std::vector<std::atomic<SpscQueue<CrossMessage>*>> rings_;
  std::vector<std::unique_ptr<SpscQueue<CrossMessage>>> ring_storage_;
  std::mutex rings_mu_;

  // Rare path: messages posted while the pair's ring was full.
  std::mutex overflow_mu_;
  std::vector<CrossMessage> overflow_;
  std::atomic<std::uint64_t> overflow_posts_{0};

  // Drain scratch, reused across rounds (no steady-state allocation).
  std::vector<std::vector<CrossMessage>> drain_runs_;
  std::int64_t ring_high_water_ = 0;

  // Sender side, touched only by this partition's worker (and by the
  // round barrier's completion step while every worker waits): the
  // sequence of this partition's outgoing messages and, per destination,
  // what it posted since the last barrier.
  struct Outbox {
    InboxCount count;
    std::int64_t min_deliver_ns = std::numeric_limits<std::int64_t>::max();
  };
  std::uint64_t send_seq_ = 0;
  std::vector<Outbox> outbox_;

  telemetry::Gauge* ring_high_water_gauge_ = nullptr;
  telemetry::Counter* drained_ = nullptr;
  telemetry::Counter* overflow_counter_ = nullptr;

  friend class ParallelEngine;
};

/// Sense-reversing barrier for PDES sync rounds. The last of `parties`
/// arrivers runs the completion step while the others wait, then releases
/// them: every arriver's writes before arrive_and_wait() are visible to the
/// completion step, and the completion step's writes to every released
/// waiter. A waiter spins — `pause`, then yielding the core — for at most
/// spin_budget_ns(), then sleeps on the phase word (std::atomic::wait).
/// The spin limit adapts: waits that outlast the budget (peers descheduled
/// by other jobs, long imbalanced windows) halve it down to "sleep at
/// once", and waits that end within the budget double it back. When the
/// parties outnumber the hardware threads a spinning waiter could only
/// take the core an unfinished peer needs, so waiters always sleep.
class RoundBarrier {
 public:
  explicit RoundBarrier(std::uint32_t parties);

  RoundBarrier(const RoundBarrier&) = delete;
  RoundBarrier& operator=(const RoundBarrier&) = delete;

  /// Arrives and waits for the other parties; the last arriver runs
  /// `completion()` (which must not throw) before releasing everyone.
  template <typename Completion>
  void arrive_and_wait(Completion&& completion) {
    const std::uint32_t phase = phase_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 < parties_) {
      wait_past(phase);
      return;
    }
    arrived_.store(0, std::memory_order_relaxed);
    completion();
    release(phase + 1);
  }

  /// Whether waiters may spin before sleeping (parties <= hardware
  /// threads).
  bool spins() const { return spin_; }

  /// The longest a waiter spins before it sleeps: about what sleeping
  /// costs (see parallel.cc).
  static constexpr std::int64_t spin_budget_ns() { return 50'000; }

 private:
  void wait_past(std::uint32_t phase);
  void release(std::uint32_t next_phase);

  const std::uint32_t parties_;
  const bool spin_;
  alignas(kCacheLineSize) std::atomic<std::uint32_t> arrived_{0};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> phase_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  /// When the last phase was released (steady clock, ns; spinning only).
  std::atomic<std::int64_t> released_ns_{0};
  /// Current spin limit, shared by the waiters; 0 = sleep at once.
  std::atomic<std::int64_t> spin_limit_ns_;
};

/// Window-barrier conservative PDES engine.
class ParallelEngine {
 public:
  /// Window synchronization policy; see the file comment.
  enum class WindowMode : std::uint8_t {
    global,    ///< one window from the global minimum (paper-faithful)
    per_pair,  ///< per-partition horizons from per-pair lookahead
  };

  struct Config {
    /// Number of partitions (= worker threads).
    std::uint32_t num_partitions = 2;
    /// Minimum latency of any cross-partition interaction, and the default
    /// for every pair until set_pair_lookahead raises it. Correctness
    /// requires every cross-partition send to be delivered at least the
    /// pair's lookahead in the future; send_cross enforces it.
    SimTime lookahead = SimTime::from_us(1);
    /// Window policy. `global` reproduces the paper's YAWNS barrier;
    /// `per_pair` lets loosely coupled partitions run ahead.
    WindowMode window_mode = WindowMode::global;
    /// Capacity of each (source, dest) SPSC ring; a full ring spills to a
    /// mutexed overflow list (correct but slower).
    std::size_t ring_capacity = 1024;
    /// Modeled inter-machine synchronization cost added once per sync
    /// round. Zero for shared-memory runs.
    double round_overhead_us = 0.0;
    /// Modeled cost per cross-partition message (serialization + wire),
    /// added per round multiplied by the number of messages that round.
    double per_message_overhead_us = 0.0;
    /// When false (legacy), the modeled overhead is spun on the wall
    /// clock, so it shows up in wall-clock figures (Figure 1's model).
    /// When true, it is accounted into stats().modeled_overhead_seconds
    /// deterministically without spinning — scaling benches use this so
    /// host scheduling jitter cannot distort events/s.
    bool deterministic_overhead = false;
    /// RNG seed; partition i uses seed + i.
    std::uint64_t seed = 1;
  };

  /// Aggregate statistics of a run, for benchmarking.
  struct Stats {
    std::uint64_t sync_rounds = 0;
    std::uint64_t cross_messages = 0;
    std::uint64_t events_executed = 0;
    double modeled_overhead_seconds = 0.0;  // wall time spent in the model
    /// Wall-clock seconds summed over all partitions spent waiting at the
    /// round barrier (always accounted; the scaling bench reports
    /// sync_wait_seconds / (num_partitions * wall) as the sync fraction).
    double sync_wait_seconds = 0.0;
  };

  explicit ParallelEngine(Config config);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Accessor for partition `i` (valid for the engine's lifetime).
  Partition& partition(std::uint32_t i) { return *partitions_[i]; }
  const Partition& partition(std::uint32_t i) const {
    return *partitions_[i];
  }

  /// Number of partitions.
  std::uint32_t num_partitions() const {
    return static_cast<std::uint32_t>(partitions_.size());
  }

  /// The conservative lookahead this engine was configured with (the
  /// global minimum / per-pair default).
  SimTime lookahead() const { return config_.lookahead; }

  /// The lookahead of the ordered pair (from, to).
  SimTime pair_lookahead(std::uint32_t from, std::uint32_t to) const;

  /// Declares the minimum delay of any from->to interaction. Builders call
  /// this with the minimum propagation delay over the pair's actual links,
  /// which is >= the configured global lookahead; larger values widen the
  /// pair's windows under WindowMode::per_pair. Use `infinite_lookahead()`
  /// for pairs with no links at all (the pair then never constrains a
  /// window, and any send on it throws). Must not be called during
  /// run_until. Values below the configured global lookahead throw.
  void set_pair_lookahead(std::uint32_t from, std::uint32_t to, SimTime min_delay);

  /// Sentinel accepted by set_pair_lookahead for unconnected pairs.
  static constexpr SimTime infinite_lookahead() { return SimTime::max(); }

  /// Sends `fn` for execution in partition `to` at virtual time
  /// `deliver_at`. Must satisfy deliver_at >= sender's now + the pair's
  /// lookahead; violations throw (they would break conservative
  /// causality).
  void send_cross(std::uint32_t from, std::uint32_t to, SimTime deliver_at,
                  EventFn fn) {
    send_cross(from, to, deliver_at, 0, std::move(fn));
  }

  /// As above, carrying an FES same-time priority key into the target
  /// partition's event queue (packet id for link deliveries).
  void send_cross(std::uint32_t from, std::uint32_t to, SimTime deliver_at,
                  std::uint64_t key, EventFn fn);

  /// Runs all partitions to virtual time `end` using worker threads.
  /// Blocking; may be called repeatedly to extend a run.
  void run_until(SimTime end);

  /// Statistics accumulated across run_until calls.
  const Stats& stats() const { return stats_; }

  /// Installs a metrics registry (or nullptr to disable). Publishes the
  /// engine aggregates (`pdes.sync_rounds`, `.cross_messages`,
  /// `.events_executed`, `.modeled_overhead_us`, `.overflow_posts`) via a
  /// snapshot flusher, a log2 histogram of per-partition virtual-time
  /// advance per window (`pdes.window_advance_ns`), per-pair cross-message
  /// counters (`pdes.pair.p<from>_p<to>.messages`, created lazily on first
  /// traffic), and per-partition engine metrics under `pdes.p<i>.*` (event
  /// accounting, ring high-water, messages drained, overflow spills, wall
  /// nanoseconds spent waiting at the round barrier). While a telemetry
  /// TraceSession is active it also emits one `pdes.window` span per
  /// partition per sync round plus a `pdes.sync_round` instant per round.
  /// Call before building components in the partitions.
  void set_telemetry(telemetry::Registry* registry);

  /// The installed registry, or nullptr.
  telemetry::Registry* telemetry() const { return telemetry_; }

 private:
  void spin_overhead(double microseconds);
  telemetry::Counter* pair_counter(std::uint32_t from, std::uint32_t to);
  /// Rebuilds pair_reach_ns_ (the shortest-path closure of the pair
  /// lookahead graph) after set_pair_lookahead edits. Floyd–Warshall over
  /// at most 64x64 entries; runs once per run_until when dirty.
  void recompute_pair_reach();

  Config config_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  /// Row-major [from * P + to] minimum delay in ns; SimTime::max().ns()
  /// means "no such channel".
  std::vector<std::int64_t> pair_lookahead_ns_;
  /// Shortest-path closure of pair_lookahead_ns_ (paths of >= 1 hop, so
  /// the diagonal holds the shortest cycle, not 0). Drives per-pair
  /// windows; see the file comment.
  std::vector<std::int64_t> pair_reach_ns_;
  bool pair_reach_dirty_ = true;
  Stats stats_;
  std::atomic<std::uint64_t> sync_wait_ns_total_{0};
  telemetry::Registry* telemetry_ = nullptr;
  std::vector<telemetry::Counter*> sync_wait_ns_;  ///< per partition
  telemetry::Histogram* window_advance_ = nullptr;
  /// Lazily created per-pair counters, row-major like pair_lookahead_ns_.
  std::vector<std::atomic<telemetry::Counter*>> pair_messages_;
};

}  // namespace esim::sim
