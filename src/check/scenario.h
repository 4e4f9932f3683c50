// A differential-test scenario: one leaf-spine topology plus an explicit,
// pre-materialized flow list.
//
// Scenarios deliberately carry *no* live randomness: the fuzzer samples
// everything (dimensions, TCP variant, flow endpoints/sizes/start times)
// from its own seeded generator ahead of time, so the simulation itself is
// a pure function of the scenario and the engine under test. That is what
// makes sequential and PDES runs comparable at digest granularity — a
// workload generator drawing from per-partition RNG streams would differ
// across partition counts by construction, not by bug.
//
// Start times must be unique per source host (Scenario::validate enforces
// it): two same-instant open_flow calls on one host would make its port
// assignment depend on injection order, an ambiguity the determinism
// contract does not cover. The fuzzer goes further and draws globally
// unique start times; the crafted self-test scenarios instead align starts
// across *different* hosts on purpose, to manufacture FES ties.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/full_builder.h"
#include "net/clos.h"

namespace esim::check {

/// One pre-planned TCP flow (the engine handle's flow-list type).
using FlowSpec = core::FlowSpec;

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

  /// The core::Engine configuration of this spec; partition i is seeded
  /// seed + i. The defaults are the leaf-spine harnesses': a 1 us
  /// lookahead (the link propagation) and per-pair windows, so the gates
  /// exercise the scale-out path.
  sim::ParallelEngine::Config engine_config(
      std::uint64_t seed, sim::SimTime lookahead = sim::SimTime::from_us(1),
      sim::ParallelEngine::WindowMode window_mode =
          sim::ParallelEngine::WindowMode::per_pair) const;

  /// Applies invert_tiebreak to every part of `engine`. Call right after
  /// construction: the FES refuses a tie-break change once events are
  /// queued.
  void apply_tiebreak(const core::Engine& engine) const;
};

/// TCP stack variant exercised by a scenario.
enum class TcpVariant : std::uint8_t { NewReno = 0, DelayedAck = 1, Dctcp = 2 };

const char* tcp_variant_name(TcpVariant v);

/// A complete, self-describing differential-test input.
struct Scenario {
  std::uint64_t seed = 1;  ///< engine seed (components fork from it)
  std::uint32_t tors = 2;
  std::uint32_t spines = 2;
  std::uint32_t hosts_per_tor = 2;
  /// Fabric queue capacity; small values provoke drops.
  std::uint32_t queue_bytes = 150'000;
  /// ECN marking threshold (0 = off; set for Dctcp scenarios).
  std::uint32_t ecn_threshold = 0;
  TcpVariant tcp = TcpVariant::NewReno;
  std::int64_t duration_ns = 2'000'000;
  /// Per-flow 5-tuple ECMP (true, the default) vs host-pair ECMP (false):
  /// see core::NetworkConfig::ecmp_port_sensitive. Memo scenarios disable
  /// it so repeated phases are path-identical despite fresh ephemeral
  /// ports.
  bool ecmp_port_sensitive = true;
  std::vector<FlowSpec> flows;

  bool operator==(const Scenario&) const = default;

  std::uint32_t total_hosts() const { return tors * hosts_per_tor; }

  /// The leaf-spine ClosSpec this scenario runs on.
  net::ClosSpec clos() const;

  /// Link/TCP parameters for the builders.
  core::NetworkConfig network_config() const;

  /// Short human-readable summary, e.g. "4x2 spines, 8 hosts, 12 flows,
  /// dctcp, 3ms".
  std::string summary() const;

  /// Replayable config-file form (line-oriented key=value, '#' comments).
  std::string serialize() const;

  /// Parses serialize() output; throws std::invalid_argument on malformed
  /// input. Round-trips exactly.
  static Scenario parse(const std::string& text);

  /// Throws std::invalid_argument when dimensions or the flow list are
  /// inconsistent (out-of-range endpoints, src==dst, duplicate start
  /// times, duplicate flow ids, flows past the horizon).
  void validate() const;
};

/// File helpers used by the CLI and tests.
void save_scenario(const Scenario& sc, const std::string& path);
Scenario load_scenario(const std::string& path);

}  // namespace esim::check
