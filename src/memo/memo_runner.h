// Phase-memoizing execution: run a periodic scenario phase by phase,
// recording each phase's state delta on first occurrence and
// fast-forwarding over verified repeats (DESIGN.md §13).
//
// The runner runs on the same core::Engine handle as check::DiffRunner
// — same engine settings, same build, same digest hookup — but chunks
// the run at workload phase boundaries (workload::PhasePattern). At every
// boundary it recomputes a rolling per-phase counter summary, then, when
// memoization is enabled and both boundary ends are quiescent (nothing
// pending but future injections), it computes the phase signature and
// either applies a verified cached delta (hit: jump virtual time past the
// phase) or records the phase while simulating it live (miss). Any
// verification failure — pattern mismatch, route divergence, predicted
// ephemeral-port wrap, stale-connection collision — is a near-miss: the
// phase falls back to live simulation, never an unsound fast-forward.
//
// Comparison contract (verified by tools/esim_diffcheck memo):
//   * memo-on vs memo-off under the SAME engine spec, both chunked at
//     phase boundaries: FULL digest equality, order lane included.
//   * memo-off (chunked) vs check::DiffRunner (unchunked): full equality
//     sequential; engine-invariant lanes under PDES (chunking changes
//     drain-round seq assignment, not behaviour).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "check/digest.h"
#include "check/scenario.h"
#include "memo/phase_cache.h"
#include "workload/phases.h"

namespace esim::memo {

/// Memoization knobs for one MemoRunner.
struct MemoConfig {
  bool enabled = true;
  PhaseCache::Limits limits{};
  /// Rolling-summary window (trailing per-phase counter summaries in the
  /// signature).
  std::uint32_t window_phases = 1;
  /// TEST-ONLY: collapse every phase signature to a constant, so *only*
  /// hit-time verification separates phases. Property tests use this to
  /// prove a signature collision can never cause a false hit.
  bool debug_collide_signatures = false;
};

/// Everything one memoized (or memo-off) run produced.
struct MemoRunOutcome {
  /// Full digest; meaningful only when the run was digest-attached.
  check::Digest digest;
  bool digest_attached = false;
  /// Engine-invariant end-of-run component fingerprint (always computed;
  /// the aggregate-only equivalence check).
  std::uint64_t final_state_fp = 0;
  std::uint64_t flows_completed = 0;
  MemoStats stats;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
};

/// Executes periodic scenarios phase by phase with memoization.
class MemoRunner {
 public:
  explicit MemoRunner(const MemoConfig& memo)
      : memo_{memo}, cache_{memo.limits} {}

  /// Runs `scenario` (whose flow list must be pattern.expand(1) — throws
  /// otherwise) under `spec`, chunked at pattern boundaries. The phase
  /// cache persists across run() calls on one MemoRunner, so a second run
  /// of the same scenario can hit from the first's recordings.
  ///
  /// `with_digest` picks the recording granularity: true attaches a
  /// StateDigest and records/replays full pop and packet streams (the
  /// equivalence-harness mode); false records aggregates only and leaves
  /// MemoRunOutcome::digest zero (the speedup mode).
  MemoRunOutcome run(const check::Scenario& scenario,
                     const workload::PhasePattern& pattern,
                     const check::EngineSpec& spec, bool with_digest);

  /// Accumulated cache accounting across all run() calls.
  const MemoStats& stats() const { return stats_; }
  const PhaseCache& cache() const { return cache_; }

 private:
  MemoConfig memo_;
  PhaseCache cache_;
  MemoStats stats_;
};

}  // namespace esim::memo
