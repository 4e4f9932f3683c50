// Differential execution: one scenario, several engines, digest compare,
// and first-divergence localization.
//
// The runner executes a Scenario under any EngineSpec (sequential
// Simulator, or PDES with N partitions) on the shared check::Engine,
// wiring a StateDigest into it, injecting the scenario's flow list, and
// reducing the run to a Digest. diff() compares two engines; on mismatch
// it bisects over the virtual-time horizon to the earliest end time at
// which the digests already differ, then reruns both sides with record
// capture to name the first divergent per-link packet event with context.
//
// Comparison relation:
//   * different engine configs  -> Digest::engine_invariant_equal
//     (packet/flow/final lanes; pop order is engine-specific)
//   * identical engine configs  -> full Digest equality, pop order
//     included (rerun determinism).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/digest.h"
#include "check/engine.h"
#include "check/scenario.h"
#include "sim/time.h"

namespace esim::check {

/// Everything one engine run produced.
struct RunOutcome {
  Digest digest;
  std::uint64_t flows_completed = 0;
  /// Captured per-link packet logs (only when the runner asked for them).
  std::map<std::string, std::vector<PacketRecord>> records;
};

/// The first observable difference between two runs, localized to one
/// link's packet stream.
struct FirstDivergence {
  bool found = false;
  std::string link;        ///< link whose streams diverge earliest
  std::size_t index = 0;   ///< record index within that link's stream
  std::int64_t time_ns = 0;
  std::string base_record;   ///< "<end of stream>" when one side is short
  std::string other_record;
  std::vector<std::string> context;  ///< records preceding the divergence

  std::string to_string() const;
};

/// Result of one differential comparison.
struct DiffReport {
  bool equivalent = false;
  bool full_compare = false;  ///< identical specs: order lane included
  EngineSpec base;
  EngineSpec other;
  Digest base_digest;
  Digest other_digest;
  /// Bisected earliest horizon (ns) at which digests already differ; 0
  /// when equivalent.
  std::int64_t divergence_window_ns = 0;
  FirstDivergence first;

  std::string to_string() const;
};

/// Executes scenarios under engines and compares digests.
class DiffRunner {
 public:
  /// Runs `scenario` under `spec` until `end` (<= scenario duration),
  /// returning the digest (and captured records when `capture`).
  RunOutcome run(const Scenario& scenario, const EngineSpec& spec,
                 sim::SimTime end, bool capture = false) const;

  /// Full-duration run.
  RunOutcome run(const Scenario& scenario, const EngineSpec& spec) const {
    return run(scenario, spec, sim::SimTime::from_ns(scenario.duration_ns));
  }

  /// Compares `base` and `other` on `scenario`; localizes on mismatch.
  DiffReport diff(const Scenario& scenario, const EngineSpec& base,
                  const EngineSpec& other) const;

  /// The standing gate: sequential vs PDES at each partition count, plus
  /// a rerun-determinism check of the widest PDES config against itself.
  /// Returns one report per comparison.
  std::vector<DiffReport> check_all(
      const Scenario& scenario,
      const std::vector<std::uint32_t>& partition_counts,
      bool inject_tiebreak_bug = false) const;
};

}  // namespace esim::check
