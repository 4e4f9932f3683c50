#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "sim/component.h"
#include "sim/logger.h"

namespace esim::sim {
namespace {

ParallelEngine::Config basic_config(std::uint32_t parts) {
  ParallelEngine::Config cfg;
  cfg.num_partitions = parts;
  cfg.lookahead = SimTime::from_us(1);
  cfg.seed = 9;
  return cfg;
}

TEST(ParallelEngine, RejectsBadConfig) {
  auto cfg = basic_config(0);
  EXPECT_THROW(ParallelEngine{cfg}, std::invalid_argument);
  cfg = basic_config(2);
  cfg.lookahead = SimTime{};
  EXPECT_THROW(ParallelEngine{cfg}, std::invalid_argument);
}

TEST(ParallelEngine, RunsIndependentPartitions) {
  ParallelEngine eng{basic_config(4)};
  std::vector<std::atomic<int>> counts(4);
  for (std::uint32_t p = 0; p < 4; ++p) {
    auto& sim = eng.partition(p).sim();
    for (int i = 1; i <= 10; ++i) {
      sim.schedule_at(SimTime::from_us(i),
                      [&counts, p] { counts[p].fetch_add(1); });
    }
  }
  eng.run_until(SimTime::from_ms(1));
  for (auto& c : counts) EXPECT_EQ(c.load(), 10);
  EXPECT_EQ(eng.stats().events_executed, 40u);
  EXPECT_GT(eng.stats().sync_rounds, 0u);
}

TEST(ParallelEngine, CrossMessagesDeliverAtRequestedTime) {
  ParallelEngine eng{basic_config(2)};
  SimTime delivered_at;
  auto& s0 = eng.partition(0).sim();
  s0.schedule_at(SimTime::from_us(5), [&] {
    eng.send_cross(0, 1, s0.now() + SimTime::from_us(2), [&] {
      delivered_at = eng.partition(1).sim().now();
    });
  });
  eng.run_until(SimTime::from_ms(1));
  EXPECT_EQ(delivered_at, SimTime::from_us(7));
  EXPECT_EQ(eng.stats().cross_messages, 1u);
}

TEST(ParallelEngine, LookaheadViolationThrows) {
  ParallelEngine eng{basic_config(2)};
  auto& s0 = eng.partition(0).sim();
  s0.schedule_at(SimTime::from_us(5), [&] {
    // Delivery only 0.5us ahead with 1us lookahead: must throw, and the
    // engine must surface it after the run instead of deadlocking.
    eng.send_cross(0, 1, s0.now() + SimTime::from_ns(500), [] {});
  });
  EXPECT_THROW(eng.run_until(SimTime::from_ms(1)), std::logic_error);
}

TEST(ParallelEngine, PingPongAcrossPartitions) {
  // Messages bounce 0 -> 1 -> 0 -> ... each hop adding exactly lookahead;
  // checks windows never execute an event early.
  ParallelEngine eng{basic_config(2)};
  std::vector<std::int64_t> hops;
  std::function<void(std::uint32_t, int)> bounce = [&](std::uint32_t at,
                                                       int remaining) {
    auto& sim = eng.partition(at).sim();
    hops.push_back(sim.now().ns());
    if (remaining == 0) return;
    const std::uint32_t next = 1 - at;
    eng.send_cross(at, next, sim.now() + SimTime::from_us(1),
                   [&, next, remaining] { bounce(next, remaining - 1); });
  };
  eng.partition(0).sim().schedule_at(SimTime::from_us(1),
                                     [&] { bounce(0, 20); });
  eng.run_until(SimTime::from_ms(1));
  ASSERT_EQ(hops.size(), 21u);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i], 1000 * static_cast<std::int64_t>(i + 1));
  }
  EXPECT_EQ(eng.stats().cross_messages, 20u);
}

TEST(ParallelEngine, ManyToOneDrainsDeterministically) {
  // All partitions fire messages into partition 0 at the same virtual time;
  // execution order must be deterministic across runs (sorted by source).
  auto run_once = [] {
    ParallelEngine eng{basic_config(4)};
    std::vector<int> order;
    for (std::uint32_t p = 1; p < 4; ++p) {
      auto& sim = eng.partition(p).sim();
      sim.schedule_at(SimTime::from_us(1), [&eng, &order, p, &sim] {
        eng.send_cross(p, 0, sim.now() + SimTime::from_us(3),
                       [&order, p] { order.push_back(static_cast<int>(p)); });
      });
    }
    eng.run_until(SimTime::from_ms(1));
    return order;
  };
  const auto a = run_once();
  ASSERT_EQ(a.size(), 3u);
  for (int trial = 0; trial < 5; ++trial) EXPECT_EQ(run_once(), a);
  EXPECT_EQ(a, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelEngine, EquivalentToSequentialForPartitionLocalWork) {
  // A computation confined to one partition must produce the same result
  // under the parallel engine as under a plain Simulator.
  auto sequential = [] {
    Simulator sim{77};
    std::uint64_t acc = 0;  // unsigned: the hash wraps by design
    std::function<void(int)> step = [&](int n) {
      acc = acc * 31 + static_cast<std::uint64_t>(sim.now().ns()) +
            sim.rng().uniform_int(100);
      if (n > 0) {
        sim.schedule_in(SimTime::from_us(1 + sim.rng().uniform_int(5)),
                        [&step, n] { step(n - 1); });
      }
    };
    sim.schedule_in(SimTime::from_us(1), [&step] { step(30); });
    sim.run();
    return acc;
  };
  auto parallel = [] {
    auto cfg = basic_config(3);
    cfg.seed = 77;  // partition 0 gets seed 77
    ParallelEngine eng{cfg};
    auto& sim = eng.partition(0).sim();
    std::uint64_t acc = 0;
    std::function<void(int)> step = [&](int n) {
      acc = acc * 31 + static_cast<std::uint64_t>(sim.now().ns()) +
            sim.rng().uniform_int(100);
      if (n > 0) {
        sim.schedule_in(SimTime::from_us(1 + sim.rng().uniform_int(5)),
                        [&step, n] { step(n - 1); });
      }
    };
    sim.schedule_in(SimTime::from_us(1), [&step] { step(30); });
    eng.run_until(SimTime::from_sec(1));
    return acc;
  };
  EXPECT_EQ(sequential(), parallel());
}

TEST(ParallelEngine, ModeledOverheadAccumulates) {
  auto cfg = basic_config(2);
  cfg.round_overhead_us = 5.0;
  ParallelEngine eng{cfg};
  auto& sim = eng.partition(0).sim();
  for (int i = 1; i <= 5; ++i) sim.schedule_at(SimTime::from_us(i), [] {});
  eng.run_until(SimTime::from_ms(1));
  EXPECT_GT(eng.stats().modeled_overhead_seconds, 0.0);
  EXPECT_GT(eng.stats().sync_rounds, 0u);
}

// Regression: the terminating sync round (the one that discovers there is
// no next window) used to increment sync_rounds and spin the modeled MPI
// overhead even though no window executes, inflating the Figure 1 overhead
// model by one round per run_until call.
TEST(ParallelEngine, TerminatingRoundIsNotCharged) {
  auto cfg = basic_config(2);
  cfg.round_overhead_us = 50.0;
  ParallelEngine eng{cfg};
  // No events at all: run_until's only round is the terminating one.
  eng.run_until(SimTime::from_ms(1));
  EXPECT_EQ(eng.stats().sync_rounds, 0u);
  EXPECT_EQ(eng.stats().modeled_overhead_seconds, 0.0);
}

TEST(ParallelEngine, SyncRoundCountIsExact) {
  ParallelEngine eng{basic_config(2)};
  auto& sim = eng.partition(0).sim();
  // With 1us lookahead each window advances past exactly one of these
  // events, so 10 window rounds run; the terminating round adds nothing.
  for (int i = 1; i <= 10; ++i) sim.schedule_at(SimTime::from_us(3 * i), [] {});
  eng.run_until(SimTime::from_ms(1));
  EXPECT_EQ(eng.stats().sync_rounds, 10u);
  // A second run with nothing left must not charge any further rounds.
  eng.run_until(SimTime::from_ms(2));
  EXPECT_EQ(eng.stats().sync_rounds, 10u);
}

TEST(ParallelEngine, ConcurrentLoggingFromAllPartitionsIsSerialized) {
  // Every partition logs from its worker thread into one shared sink.
  // Logger serializes emission under a process-wide mutex, so the shared
  // vector needs no locking of its own — this is the case TSan checks.
  constexpr std::uint32_t kParts = 4;
  constexpr int kPerPartition = 25;
  ParallelEngine eng{basic_config(kParts)};
  std::vector<std::string> lines;
  for (std::uint32_t p = 0; p < kParts; ++p) {
    auto& logger = eng.partition(p).sim().logger();
    logger.set_level(LogLevel::Info);
    logger.set_sink([&lines](const std::string& line) {
      lines.push_back(line);
    });
  }
  for (std::uint32_t p = 0; p < kParts; ++p) {
    auto& sim = eng.partition(p).sim();
    auto* c = sim.add_component<Component>("part" + std::to_string(p));
    for (int i = 1; i <= kPerPartition; ++i) {
      sim.schedule_at(SimTime::from_us(i), [c, i] {
        ESIM_LOG(*c, LogLevel::Info, "event " + std::to_string(i));
      });
    }
  }
  eng.run_until(SimTime::from_ms(1));
  ASSERT_EQ(lines.size(), kParts * kPerPartition);
  for (std::uint32_t p = 0; p < kParts; ++p) {
    const std::string tag = "part" + std::to_string(p);
    const auto n = std::count_if(
        lines.begin(), lines.end(), [&tag](const std::string& line) {
          return line.find(tag) != std::string::npos;
        });
    EXPECT_EQ(n, kPerPartition) << tag;
  }
}

TEST(ParallelEngine, PairLookaheadDefaultsToGlobal) {
  ParallelEngine eng{basic_config(3)};
  for (std::uint32_t a = 0; a < 3; ++a) {
    for (std::uint32_t b = 0; b < 3; ++b) {
      if (a == b) continue;
      EXPECT_EQ(eng.pair_lookahead(a, b), SimTime::from_us(1));
    }
  }
}

TEST(ParallelEngine, SetPairLookaheadBelowGlobalThrows) {
  ParallelEngine eng{basic_config(2)};
  EXPECT_THROW(eng.set_pair_lookahead(0, 1, SimTime::from_ns(500)),
               std::invalid_argument);
  // At or above the global floor is fine.
  eng.set_pair_lookahead(0, 1, SimTime::from_us(1));
  eng.set_pair_lookahead(0, 1, SimTime::from_us(8));
  EXPECT_EQ(eng.pair_lookahead(0, 1), SimTime::from_us(8));
}

TEST(ParallelEngine, PerPairWideLookaheadReducesRounds) {
  // Same workload as SyncRoundCountIsExact, but the pair lookaheads are
  // 8x the global one. Global mode must still step 1us windows; per-pair
  // mode's windows follow the 8us pair bound (the self-window is the
  // 16us shortest cycle through the other partition), so it needs
  // strictly fewer rounds for identical results.
  auto run_mode = [](ParallelEngine::WindowMode mode) {
    auto cfg = basic_config(2);
    cfg.window_mode = mode;
    ParallelEngine eng{cfg};
    eng.set_pair_lookahead(0, 1, SimTime::from_us(8));
    eng.set_pair_lookahead(1, 0, SimTime::from_us(8));
    auto& sim = eng.partition(0).sim();
    std::vector<std::int64_t> fired;
    for (int i = 1; i <= 10; ++i) {
      sim.schedule_at(SimTime::from_us(3 * i),
                      [&fired, &sim] { fired.push_back(sim.now().ns()); });
    }
    eng.run_until(SimTime::from_ms(1));
    return std::pair{eng.stats().sync_rounds, fired};
  };
  const auto [global_rounds, global_fired] =
      run_mode(ParallelEngine::WindowMode::global);
  const auto [pair_rounds, pair_fired] =
      run_mode(ParallelEngine::WindowMode::per_pair);
  EXPECT_EQ(pair_fired, global_fired);
  ASSERT_EQ(pair_fired.size(), 10u);
  EXPECT_LT(pair_rounds, global_rounds);
}

TEST(ParallelEngine, PerPairManyToOneMatchesGlobalOrder) {
  // The ManyToOneDrainsDeterministically scenario under per-pair windows:
  // delivery order must be the same deterministic (time, source, seq)
  // order the global window produces.
  auto cfg = basic_config(4);
  cfg.window_mode = ParallelEngine::WindowMode::per_pair;
  ParallelEngine eng{cfg};
  std::vector<int> order;
  for (std::uint32_t p = 1; p < 4; ++p) {
    auto& sim = eng.partition(p).sim();
    sim.schedule_at(SimTime::from_us(1), [&eng, &order, p, &sim] {
      eng.send_cross(p, 0, sim.now() + SimTime::from_us(3),
                     [&order, p] { order.push_back(static_cast<int>(p)); });
    });
  }
  eng.run_until(SimTime::from_ms(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelEngine, SendAcrossInfinitePairThrows) {
  // An infinite pair lookahead declares "no channel exists"; sending on
  // one is a builder wiring bug and must fail loudly, not corrupt the
  // window math.
  auto cfg = basic_config(2);
  cfg.window_mode = ParallelEngine::WindowMode::per_pair;
  ParallelEngine eng{cfg};
  eng.set_pair_lookahead(0, 1, ParallelEngine::infinite_lookahead());
  auto& s0 = eng.partition(0).sim();
  s0.schedule_at(SimTime::from_us(1), [&] {
    eng.send_cross(0, 1, s0.now() + SimTime::from_ms(1), [] {});
  });
  EXPECT_THROW(eng.run_until(SimTime::from_ms(10)), std::logic_error);
}

TEST(ParallelEngine, PairLookaheadViolationThrows) {
  // The pair bound (3us) is tighter than what the message honors (2us):
  // send_cross must validate against the pair matrix, not just the
  // global lookahead.
  auto cfg = basic_config(2);
  cfg.window_mode = ParallelEngine::WindowMode::per_pair;
  ParallelEngine eng{cfg};
  eng.set_pair_lookahead(0, 1, SimTime::from_us(3));
  auto& s0 = eng.partition(0).sim();
  s0.schedule_at(SimTime::from_us(1), [&] {
    eng.send_cross(0, 1, s0.now() + SimTime::from_us(2), [] {});
  });
  EXPECT_THROW(eng.run_until(SimTime::from_ms(1)), std::logic_error);
}

TEST(ParallelEngine, PerPairChainedWakeupsDeliverOnTime) {
  // Transitive chain 2 -> 1 -> 0 where partition 0 is otherwise idle:
  // the closure (not just direct pair bounds) must keep partition 0 from
  // running past the relayed message. Delivery times prove no event ran
  // early or was dropped.
  auto cfg = basic_config(3);
  cfg.window_mode = ParallelEngine::WindowMode::per_pair;
  ParallelEngine eng{cfg};
  // Loose direct bounds everywhere except the tight relay path.
  for (std::uint32_t a = 0; a < 3; ++a) {
    for (std::uint32_t b = 0; b < 3; ++b) {
      if (a != b) eng.set_pair_lookahead(a, b, SimTime::from_us(100));
    }
  }
  eng.set_pair_lookahead(2, 1, SimTime::from_us(1));
  eng.set_pair_lookahead(1, 0, SimTime::from_us(1));
  SimTime delivered;
  auto& s2 = eng.partition(2).sim();
  s2.schedule_at(SimTime::from_us(5), [&] {
    eng.send_cross(2, 1, s2.now() + SimTime::from_us(1), [&] {
      auto& s1 = eng.partition(1).sim();
      eng.send_cross(1, 0, s1.now() + SimTime::from_us(1), [&] {
        delivered = eng.partition(0).sim().now();
      });
    });
  });
  eng.run_until(SimTime::from_ms(1));
  EXPECT_EQ(delivered, SimTime::from_us(7));
  EXPECT_EQ(eng.stats().cross_messages, 2u);
}

TEST(ParallelEngine, RepeatedRunUntilExtends) {
  ParallelEngine eng{basic_config(2)};
  std::atomic<int> count{0};
  auto& sim = eng.partition(0).sim();
  sim.schedule_at(SimTime::from_us(10), [&] { count.fetch_add(1); });
  sim.schedule_at(SimTime::from_ms(2), [&] { count.fetch_add(1); });
  eng.run_until(SimTime::from_ms(1));
  EXPECT_EQ(count.load(), 1);
  eng.run_until(SimTime::from_ms(5));
  EXPECT_EQ(count.load(), 2);
}

// drain_inbox takes exactly the published counts: the oldest ring
// entries and the oldest overflow spills of each source. Messages posted
// after them — here a second window's, one of which spills behind the
// first window's spills — stay for the next drain.
TEST(Partition, DrainTakesExactlyThePublishedCounts) {
  Partition part{0, 1, 3, /*ring_capacity=*/2};
  std::vector<int> order;
  std::uint64_t seq1 = 0;
  std::uint64_t seq2 = 0;
  auto post = [&](std::uint32_t source, std::int64_t at_ns, int tag) {
    std::uint64_t& seq = source == 1 ? seq1 : seq2;
    return part.post(CrossMessage{SimTime::from_ns(at_ns), 0, source, seq++,
                                  [&order, tag] { order.push_back(tag); }});
  };
  // First window: source 1 fills its ring and spills two; source 2 posts
  // one.
  EXPECT_FALSE(post(1, 400, 11));
  EXPECT_FALSE(post(1, 100, 12));
  EXPECT_TRUE(post(1, 300, 13));
  EXPECT_TRUE(post(1, 100, 14));
  EXPECT_FALSE(post(2, 100, 21));
  // Second window, before the first is drained: source 1 spills again,
  // source 2's ring still has room.
  EXPECT_TRUE(post(1, 200, 15));
  EXPECT_FALSE(post(2, 200, 22));

  const std::vector<Partition::InboxCount> first{{0, 0}, {4, 2}, {1, 0}};
  EXPECT_EQ(part.drain_inbox(first), 5u);
  EXPECT_EQ(part.sim().events_pending(), 5u);
  const std::vector<Partition::InboxCount> second{{0, 0}, {1, 1}, {1, 0}};
  EXPECT_EQ(part.drain_inbox(second), 2u);
  part.sim().run();
  // By (deliver time, source, per-source sequence) within each drain;
  // the second drain's messages sort after the first's only where their
  // times do.
  EXPECT_EQ(order, (std::vector<int>{12, 14, 21, 15, 22, 13, 11}));
  EXPECT_EQ(part.overflow_posts(), 3u);
}

// A message posted in a run's last window but due after its end must be
// drained by the terminating round and delivered by the next run_until.
TEST(ParallelEngine, CrossMessageSpanningRunUntilCallsIsDelivered) {
  ParallelEngine eng{basic_config(2)};
  auto& s0 = eng.partition(0).sim();
  std::vector<std::int64_t> delivered;
  s0.schedule_at(SimTime::from_us(900), [&] {
    eng.send_cross(0, 1, SimTime::from_us(1500), [&] {
      delivered.push_back(eng.partition(1).sim().now().ns());
    });
  });
  s0.schedule_at(SimTime::from_us(1700), [&] {
    eng.send_cross(0, 1, SimTime::from_us(1800), [&] {
      delivered.push_back(eng.partition(1).sim().now().ns());
    });
  });
  eng.run_until(SimTime::from_ms(1));
  EXPECT_TRUE(delivered.empty());
  eng.run_until(SimTime::from_ms(2));
  EXPECT_EQ(delivered, (std::vector<std::int64_t>{1'500'000, 1'800'000}));
  EXPECT_EQ(eng.stats().cross_messages, 2u);
}

// Every arriver writes its own slot before arriving; the completion step
// must run once per phase, see all of those writes, and publish a value
// every released waiter reads.
TEST(RoundBarrier, CompletionRunsOncePerPhaseAndSeesEveryArrival) {
  constexpr std::uint32_t kParties = 4;
  constexpr std::uint64_t kPhases = 2000;
  RoundBarrier barrier{kParties};
  std::vector<std::uint64_t> slot(kParties, 0);  // plain, barrier-ordered
  std::uint64_t completions = 0;
  std::uint64_t published = 0;
  std::atomic<std::uint64_t> mismatches{0};
  auto worker = [&](std::uint32_t idx) {
    for (std::uint64_t phase = 1; phase <= kPhases; ++phase) {
      slot[idx] = phase * kParties + idx;
      barrier.arrive_and_wait([&]() noexcept {
        ++completions;
        std::uint64_t sum = 0;
        for (std::uint32_t i = 0; i < kParties; ++i) {
          if (slot[i] != phase * kParties + i) mismatches.fetch_add(1);
          sum += slot[i];
        }
        published = sum;
      });
      const std::uint64_t want =
          phase * kParties * kParties + kParties * (kParties - 1) / 2;
      if (published != want) mismatches.fetch_add(1);
      if (completions != phase) mismatches.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < kParties; ++i) threads.emplace_back(worker, i);
  for (auto& t : threads) t.join();
  EXPECT_EQ(completions, kPhases);
  EXPECT_EQ(mismatches.load(), 0u);
}

// 1e5 phases at every party count from 2 to the core count, then at
// twice the core count: oversubscribed waiters must sleep rather than
// spin, or the runnable peers they displace would stall every phase.
TEST(RoundBarrier, HundredThousandPhasesUpToTwiceTheCores) {
  constexpr std::uint64_t kPhases = 100'000;
  const std::uint32_t cores =
      std::max(2u, std::thread::hardware_concurrency());
  std::vector<std::uint32_t> counts;
  for (std::uint32_t p = 2; p <= cores; ++p) counts.push_back(p);
  counts.push_back(2 * cores);
  for (const std::uint32_t parties : counts) {
    RoundBarrier barrier{parties};
    EXPECT_EQ(barrier.spins(), parties <= std::thread::hardware_concurrency())
        << parties;
    std::uint64_t completions = 0;
    std::vector<std::uint64_t> arrivals(parties, 0);
    std::uint64_t arrivals_seen = 0;
    auto worker = [&](std::uint32_t idx) {
      for (std::uint64_t phase = 0; phase < kPhases; ++phase) {
        ++arrivals[idx];
        barrier.arrive_and_wait([&]() noexcept {
          ++completions;
          for (const std::uint64_t a : arrivals) arrivals_seen += a;
        });
      }
    };
    std::vector<std::thread> threads;
    for (std::uint32_t i = 0; i < parties; ++i) {
      threads.emplace_back(worker, i);
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(completions, kPhases) << parties;
    // Phase k's completion sees k arrivals from every party.
    EXPECT_EQ(arrivals_seen, parties * kPhases * (kPhases + 1) / 2) << parties;
  }
}

TEST(RoundBarrier, SinglePartyRunsCompletionInline) {
  RoundBarrier barrier{1};
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    barrier.arrive_and_wait([&]() noexcept { ++completions; });
  }
  EXPECT_EQ(completions, 3);
}

// One partition throws mid-run while its peers keep posting to it and to
// each other: the others must finish their windows, the barrier must
// keep turning, and run_until must surface the error.
TEST(ParallelEngine, ThrowingPartitionWindsTheRunDown) {
  ParallelEngine eng{basic_config(3)};
  std::atomic<int> delivered{0};
  std::function<void(std::uint32_t)> chatter = [&](std::uint32_t p) {
    auto& sim = eng.partition(p).sim();
    for (std::uint32_t to = 0; to < 3; ++to) {
      if (to == p) continue;
      eng.send_cross(p, to, sim.now() + SimTime::from_us(1),
                     [&delivered] { delivered.fetch_add(1); });
    }
    if (sim.now() < SimTime::from_us(400)) {
      sim.schedule_in(SimTime::from_ns(300), [&chatter, p] { chatter(p); });
    }
  };
  for (std::uint32_t p = 0; p < 3; ++p) {
    eng.partition(p).sim().schedule_at(SimTime::from_ns(100 + p),
                                       [&chatter, p] { chatter(p); });
  }
  eng.partition(2).sim().schedule_at(SimTime::from_us(50), [] {
    throw std::runtime_error("partition 2 failed");
  });
  EXPECT_THROW(eng.run_until(SimTime::from_ms(1)), std::runtime_error);
  EXPECT_GT(delivered.load(), 0);
  // The healthy partitions ran to the end of the run.
  EXPECT_EQ(eng.partition(0).sim().now(), SimTime::from_ms(1));
  EXPECT_EQ(eng.partition(1).sim().now(), SimTime::from_ms(1));
}

// Two-slot rings force most posts into the overflow list while the
// destination drains the previous window concurrently; delivery order
// must still be the (deliver time, source, per-source sequence) order,
// exactly as with rings that never fill.
TEST(ParallelEngine, RingOverflowKeepsMergeOrder) {
  using Delivery = std::tuple<std::int64_t, std::uint32_t, int>;
  auto run_with = [](std::size_t ring_capacity, std::uint64_t* overflow) {
    auto cfg = basic_config(4);
    cfg.ring_capacity = ring_capacity;
    ParallelEngine eng{cfg};
    std::vector<Delivery> order;
    for (std::uint32_t p = 1; p < 4; ++p) {
      auto& sim = eng.partition(p).sim();
      for (int burst = 0; burst < 20; ++burst) {
        sim.schedule_at(SimTime::from_us(1 + 2 * burst),
                        [&eng, &order, &sim, p, burst] {
          for (int n = 0; n < 40; ++n) {
            // Deliver times are not monotone within a source's burst.
            const SimTime at = sim.now() + SimTime::from_us(1) +
                               SimTime::from_ns(100 * ((n * 7 + p) % 5));
            const int tag = burst * 40 + n;
            eng.send_cross(p, 0, at, [&eng, &order, p, tag] {
              order.emplace_back(eng.partition(0).sim().now().ns(), p, tag);
            });
          }
        });
      }
    }
    eng.run_until(SimTime::from_ms(1));
    *overflow = eng.partition(0).overflow_posts();
    return order;
  };
  std::uint64_t big_overflow = 0;
  std::uint64_t tiny_overflow = 0;
  const auto roomy = run_with(1024, &big_overflow);
  const auto tiny = run_with(2, &tiny_overflow);
  EXPECT_EQ(big_overflow, 0u);
  EXPECT_GT(tiny_overflow, 0u);
  ASSERT_EQ(tiny.size(), 3u * 20 * 40);
  EXPECT_EQ(tiny, roomy);
  // Tags grow with the per-source sequence, so the expected order is a
  // plain sort of the deliveries.
  auto expected = tiny;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(tiny, expected);
}

}  // namespace
}  // namespace esim::sim
