// Tests for the differential determinism harness (src/check): digest
// lanes, scenario serialization/validation, the fuzzer's determinism and
// shrinker, and DiffRunner engine comparisons including the injected
// tie-break bug.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "check/diff_runner.h"
#include "check/digest.h"
#include "check/fuzzer.h"
#include "check/scenario.h"

namespace esim::check {
namespace {

Scenario small_scenario() {
  Scenario sc;
  sc.seed = 99;
  sc.tors = 2;
  sc.spines = 2;
  sc.hosts_per_tor = 2;
  sc.duration_ns = 2'000'000;
  sc.flows = {
      FlowSpec{0, 2, 30'000, 5'000, 1},
      FlowSpec{1, 3, 20'000, 7'000, 2},
      FlowSpec{3, 0, 15'000, 9'000, 3},
  };
  sc.validate();
  return sc;
}

// Two same-instant flows from different hosts under one ToR, both to the
// same destination: their SYNs collide at the ToR at the same nanosecond,
// so same-time event ordering alone decides the forwarding order.
Scenario tie_scenario() {
  Scenario sc;
  sc.seed = 42;
  sc.tors = 2;
  sc.spines = 1;
  sc.hosts_per_tor = 2;
  sc.duration_ns = 2'000'000;
  sc.flows = {
      FlowSpec{0, 2, 40'000, 10'000, 1},
      FlowSpec{1, 2, 40'000, 10'000, 2},
  };
  sc.validate();
  return sc;
}

TEST(Hash64, OrderSensitive) {
  Hash64 ab, ba;
  ab.absorb(1);
  ab.absorb(2);
  ba.absorb(2);
  ba.absorb(1);
  EXPECT_NE(ab.value(), ba.value());
}

TEST(Hash64, DeterministicAcrossInstances) {
  Hash64 a, b;
  for (std::uint64_t v : {7u, 11u, 13u}) {
    a.absorb(v);
    b.absorb(v);
  }
  EXPECT_EQ(a.value(), b.value());
}

TEST(PacketRecordTest, HashCoversFields) {
  PacketRecord base;
  base.time_ns = 100;
  base.packet_id = 5;
  base.flow_id = 2;
  base.seq = 1460;
  const std::uint64_t h = base.hash();

  PacketRecord r = base;
  r.time_ns = 101;
  EXPECT_NE(r.hash(), h);
  r = base;
  r.dropped = true;
  EXPECT_NE(r.hash(), h);
  r = base;
  r.flags = 0x2;
  EXPECT_NE(r.hash(), h);
  EXPECT_EQ(base.hash(), h);  // hash() has no hidden state
}

TEST(DigestTest, EngineInvariantEqualityIgnoresOrderLane) {
  Digest a, b;
  a.packet_lane = b.packet_lane = 1;
  a.flow_lane = b.flow_lane = 2;
  a.final_lane = b.final_lane = 3;
  a.packets = b.packets = 10;
  a.order_lane = 111;
  b.order_lane = 222;  // engine-specific lane may differ
  a.events = 50;
  b.events = 60;  // per-engine bookkeeping may differ
  EXPECT_TRUE(a.engine_invariant_equal(b));
  EXPECT_FALSE(a == b);

  b.packet_lane = 99;  // behavioural lane must not
  EXPECT_FALSE(a.engine_invariant_equal(b));
}

TEST(ScenarioTest, SerializeParseRoundTrip) {
  const Scenario sc = small_scenario();
  const Scenario back = Scenario::parse(sc.serialize());
  EXPECT_EQ(back, sc);
}

TEST(ScenarioTest, SaveLoadRoundTrip) {
  const Scenario sc = small_scenario();
  const std::string path =
      testing::TempDir() + "/check_test_scenario.scenario";
  save_scenario(sc, path);
  EXPECT_EQ(load_scenario(path), sc);
  std::remove(path.c_str());
}

TEST(ScenarioTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(Scenario::parse("seed=1\n"), std::invalid_argument);  // header
  const std::string header = "# esim_diffcheck scenario v1\n";
  EXPECT_THROW(Scenario::parse(header + "bogus_key=1\n"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse(header + "seed=notanumber\n"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse(header + "flow=1,2,3\n"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse(header + "tcp=cubic\n"),
               std::invalid_argument);
}

TEST(ScenarioTest, ValidateRejectsInconsistentFlows) {
  Scenario sc = small_scenario();
  sc.flows[0].dst = sc.flows[0].src;
  EXPECT_THROW(sc.validate(), std::invalid_argument);

  sc = small_scenario();
  sc.flows[0].src = sc.total_hosts();
  EXPECT_THROW(sc.validate(), std::invalid_argument);

  sc = small_scenario();
  sc.flows[1].flow_id = sc.flows[0].flow_id;
  EXPECT_THROW(sc.validate(), std::invalid_argument);

  sc = small_scenario();
  sc.flows[1].start_ns = sc.duration_ns;
  EXPECT_THROW(sc.validate(), std::invalid_argument);

  // Same-instant starts on ONE host are ambiguous (port assignment order);
  // on different hosts they are allowed (and used by the selftest).
  sc = small_scenario();
  sc.flows.push_back(FlowSpec{1, 3, 1000, sc.flows[0].start_ns, 9});
  EXPECT_NO_THROW(sc.validate());
  sc.flows.back().src = sc.flows[0].src;  // now same host, same instant
  EXPECT_THROW(sc.validate(), std::invalid_argument);
}

TEST(FuzzerTest, SameSeedSameSequence) {
  ScenarioFuzzer a{2024}, b{2024};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(a.next(), b.next());
  ScenarioFuzzer c{2025};
  EXPECT_NE(ScenarioFuzzer{2024}.next(), c.next());
}

TEST(FuzzerTest, GeneratedScenariosAreValidWithUniqueStarts) {
  ScenarioFuzzer fuzzer{7};
  for (int i = 0; i < 20; ++i) {
    const Scenario sc = fuzzer.next();
    EXPECT_NO_THROW(sc.validate());
    std::set<std::int64_t> starts;
    for (const FlowSpec& f : sc.flows) {
      EXPECT_TRUE(starts.insert(f.start_ns).second)
          << "fuzzer must draw globally unique start times";
    }
  }
}

TEST(FuzzerTest, ShrinkMinimizesAgainstPredicate) {
  ScenarioFuzzer fuzzer{11};
  Scenario sc = fuzzer.next();
  ASSERT_GE(sc.flows.size(), 4u);
  const std::uint64_t keep_id = sc.flows[2].flow_id;

  // Synthetic failure: "still fails" while flow `keep_id` is present.
  const Scenario shrunk =
      fuzzer.shrink(sc, [keep_id](const Scenario& cand) {
        for (const FlowSpec& f : cand.flows) {
          if (f.flow_id == keep_id) return true;
        }
        return false;
      });
  ASSERT_EQ(shrunk.flows.size(), 1u);
  EXPECT_EQ(shrunk.flows[0].flow_id, keep_id);
  EXPECT_LT(shrunk.duration_ns, sc.duration_ns);
  EXPECT_NO_THROW(shrunk.validate());
}

TEST(DiffRunnerTest, SequentialRunIsReproducible) {
  DiffRunner runner;
  const Scenario sc = small_scenario();
  const auto a = runner.run(sc, EngineSpec{});
  const auto b = runner.run(sc, EngineSpec{});
  EXPECT_EQ(a.digest, b.digest);  // full equality, order lane included
  EXPECT_EQ(a.flows_completed, sc.flows.size());
  EXPECT_GT(a.digest.packets, 0u);
}

TEST(DiffRunnerTest, SequentialMatchesPdesAcrossPartitionCounts) {
  DiffRunner runner;
  const Scenario sc = small_scenario();
  const auto reports = runner.check_all(sc, {1, 2, 4});
  ASSERT_EQ(reports.size(), 4u);  // 3 cross-engine + 1 rerun determinism
  for (const auto& r : reports) {
    EXPECT_TRUE(r.equivalent) << r.to_string();
  }
  EXPECT_TRUE(reports.back().full_compare);
}

TEST(DiffRunnerTest, InjectedTiebreakBugIsCaughtAndLocalized) {
  DiffRunner runner;
  const Scenario sc = tie_scenario();
  EngineSpec inverted;
  inverted.invert_tiebreak = true;

  const DiffReport report = runner.diff(sc, EngineSpec{}, inverted);
  ASSERT_FALSE(report.equivalent);
  EXPECT_GT(report.divergence_window_ns, 0);
  EXPECT_LE(report.divergence_window_ns, sc.duration_ns);
  ASSERT_TRUE(report.first.found);
  EXPECT_FALSE(report.first.link.empty());
  EXPECT_NE(report.first.base_record, report.first.other_record);
}

TEST(DiffRunnerTest, CheckAllFlagsInjectedBugOnPdes) {
  DiffRunner runner;
  const Scenario sc = tie_scenario();
  const auto reports =
      runner.check_all(sc, {2}, /*inject_tiebreak_bug=*/true);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_FALSE(reports[0].equivalent)
      << "sequential vs bugged pdes(2) must diverge";
}

TEST(StateDigestTest, CaptureIsBoundedAndKeyedByLink) {
  DiffRunner runner;
  const Scenario sc = small_scenario();
  const auto out = runner.run(
      sc, EngineSpec{}, sim::SimTime::from_ns(sc.duration_ns),
      /*capture=*/true);
  ASSERT_FALSE(out.records.empty());
  std::uint64_t total = 0;
  for (const auto& [link, records] : out.records) {
    EXPECT_FALSE(link.empty());
    for (std::size_t i = 1; i < records.size(); ++i) {
      EXPECT_LE(records[i - 1].time_ns, records[i].time_ns)
          << "per-link record streams are time-ordered";
    }
    total += records.size();
  }
  EXPECT_EQ(total, out.digest.packets + out.digest.drops);
}

}  // namespace
}  // namespace esim::check
