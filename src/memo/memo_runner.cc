#include "memo/memo_runner.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>
#include <utility>

#include "core/engine.h"
#include "net/clos.h"

namespace esim::memo {
namespace {

using check::Hash64;
using check::mix64;

constexpr std::uint64_t kSigTag = 0x4D454D4F50484153ULL;  // "MEMOPHAS"
constexpr std::uint64_t kLow40 = (std::uint64_t{1} << 40) - 1;

/// One scheduled phase injection with the bookkeeping replay needs.
struct InjectionRec {
  workload::PhasePattern::Injection inj;
  std::uint32_t part = 0;
  sim::EventHandle handle;
  std::uint64_t seq = 0;  ///< FES insertion seq of the injection event
};

struct CompletionEvent {
  std::uint64_t flow_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Pop-stream recorder wrapped around the digest's lane observer during a
/// recorded phase. Appended only from the owning partition's thread.
struct PopRecorder : sim::PopObserver {
  sim::PopObserver* inner = nullptr;
  std::vector<std::pair<std::int64_t, std::uint64_t>> log;
  void on_event_pop(sim::SimTime time, std::uint64_t seq) override {
    log.emplace_back(time.ns(), seq);
    if (inner != nullptr) inner->on_event_pop(time, seq);
  }
};

/// One engine's worth of run state, independent of engine kind.
struct Session {
  Session(core::Engine& e, const core::BuiltNetwork& n,
          check::StateDigest* d)
      : engine{e}, network{n}, digest{d} {}

  core::Engine& engine;
  const core::BuiltNetwork& network;
  check::StateDigest* digest;     // null in aggregate-only runs
  std::vector<net::Link*> links;  // discovery (attach) order

  std::vector<InjectionRec> injections;

  std::mutex mu;
  bool recording = false;
  std::vector<CompletionEvent> completion_log;
  std::uint64_t flows_completed = 0;

  const std::vector<sim::Simulator*>& parts() const { return engine.parts(); }

  void on_completion(const workload::PhasePattern::Injection& inj,
                     sim::SimTime start, sim::SimTime end) {
    if (digest != nullptr) {
      digest->on_flow_complete(inj.flow_id, inj.src, inj.dst, inj.bytes,
                               start, end);
    }
    std::lock_guard<std::mutex> lock(mu);
    ++flows_completed;
    if (recording) {
      completion_log.push_back({inj.flow_id, start.ns(), end.ns()});
    }
  }
};

void discover_components(Session& s) {
  for (sim::Simulator* sim : s.parts()) {
    for (const auto& c : sim->components()) {
      if (auto* link = dynamic_cast<net::Link*>(c.get())) {
        s.links.push_back(link);
      }
    }
  }
  if (s.digest != nullptr) {
    if (s.digest->num_probes() != s.links.size()) {
      throw std::logic_error("MemoRunner: probe/link discovery mismatch");
    }
    for (std::size_t i = 0; i < s.links.size(); ++i) {
      if (s.digest->probe_link(i) != s.links[i]) {
        throw std::logic_error("MemoRunner: probe order != link order");
      }
    }
  }
}

void schedule_injections(Session& s, const workload::PhasePattern& pattern) {
  Session* sp = &s;
  for (const auto& inj : pattern.expand(1)) {
    const std::uint32_t part = s.network.partition_of_host[inj.src];
    sim::Simulator* sim = s.parts()[part];
    tcp::Host* host = s.network.hosts[inj.src];
    InjectionRec rec;
    rec.inj = inj;
    rec.part = part;
    rec.handle =
        sim->schedule_at(sim::SimTime::from_ns(inj.start_ns), [sp, host, inj] {
          auto* conn = host->open_flow(inj.dst, inj.bytes, inj.flow_id);
          const sim::SimTime start = host->sim().now();
          conn->on_complete = [sp, host, inj, start] {
            sp->on_completion(inj, start, host->sim().now());
          };
        });
    rec.seq = sim->event_seq_of(rec.handle);
    s.injections.push_back(rec);
  }
}

std::vector<stats::PacketCounter> snapshot_counters(const Session& s) {
  std::vector<stats::PacketCounter> out;
  out.reserve(s.links.size() + s.network.switches.size() +
              s.network.hosts.size());
  for (const net::Link* l : s.links) out.push_back(l->counter());
  for (const net::Switch* sw : s.network.switches) {
    out.push_back(sw->counter());
  }
  for (const tcp::Host* h : s.network.hosts) out.push_back(h->counter());
  return out;
}

/// Drives the phase loop for one engine session. Holds references to the
/// runner's cache/stats so MemoRunner::run stays engine-setup only.
struct PhaseDriver {
  PhaseCache& cache;
  MemoStats& stats;
  const MemoConfig& memo;
  Session& s;
  const check::Scenario& scenario;
  const workload::PhasePattern& pattern;
  const check::EngineSpec& spec;
  bool with_digest;

  std::vector<RelFlow> rel_flows;
  /// Pattern indices sorted by (offset, src, dst): the order phase flows
  /// consume ephemeral ports.
  std::vector<std::size_t> by_offset;
  std::vector<std::uint32_t> opens_per_host;
  std::deque<std::uint64_t> summaries;
  std::vector<stats::PacketCounter> prev_counters;

  void init() {
    for (const auto& f : pattern.pattern) {
      rel_flows.push_back({f.src, f.dst, f.bytes, f.offset_ns});
    }
    by_offset.resize(pattern.pattern.size());
    for (std::size_t i = 0; i < by_offset.size(); ++i) by_offset[i] = i;
    std::sort(by_offset.begin(), by_offset.end(),
              [this](std::size_t a, std::size_t b) {
                const auto& fa = pattern.pattern[a];
                const auto& fb = pattern.pattern[b];
                return std::tie(fa.offset_ns, fa.src, fa.dst) <
                       std::tie(fb.offset_ns, fb.src, fb.dst);
              });
    opens_per_host.assign(s.network.hosts.size(), 0);
    for (const auto& f : pattern.pattern) ++opens_per_host[f.src];
  }

  const InjectionRec& injection(std::uint32_t phase, std::uint32_t index)
      const {
    return s.injections[static_cast<std::size_t>(phase) *
                            pattern.pattern.size() +
                        index];
  }

  std::uint64_t live_injections_in(std::uint32_t part) const {
    std::uint64_t n = 0;
    for (const InjectionRec& r : s.injections) {
      if (r.part == part && s.parts()[part]->event_live(r.handle)) ++n;
    }
    return n;
  }

  /// Quiescent at a boundary: every partition's pending set is exactly
  /// its live future-injection events — no timers, no packets in flight.
  bool quiescent() const {
    for (std::uint32_t p = 0; p < s.parts().size(); ++p) {
      if (s.parts()[p]->events_pending() != live_injections_in(p)) {
        return false;
      }
    }
    return true;
  }

  /// Predicts the phase's ECMP paths from the hosts' current ephemeral
  /// port allocators (both directions of every flow) and collects the
  /// predicted 4-tuples for the stale-connection check. Sets `wrap` when
  /// any host's allocation would cross the port-space wrap, which breaks
  /// the translation arithmetic — the phase is then not memoizable.
  std::uint64_t route_fingerprint(std::vector<net::FlowKey>* tuples,
                                  bool* wrap) const {
    *wrap = false;
    std::vector<std::uint32_t> port(s.network.hosts.size());
    for (std::size_t h = 0; h < s.network.hosts.size(); ++h) {
      port[h] = s.network.hosts[h]->next_port();
      if (opens_per_host[h] != 0 &&
          port[h] + opens_per_host[h] - 1 > 60'000) {
        *wrap = true;
      }
    }
    Hash64 h;
    for (std::size_t i : by_offset) {
      const auto& f = pattern.pattern[i];
      net::FlowKey key;
      key.src_host = f.src;
      key.dst_host = f.dst;
      key.src_port = static_cast<std::uint16_t>(port[f.src]++);
      key.dst_port = 80;
      if (tuples != nullptr) tuples->push_back(key);
      net::FlowKey hashed = key;
      if (!scenario.ecmp_port_sensitive) {
        hashed.src_port = 0;
        hashed.dst_port = 0;
      }
      for (const net::FlowKey& dir : {hashed, hashed.reversed()}) {
        const net::ClosPath path = net::compute_path(s.network.spec, dir);
        h.absorb(path.len);
        for (std::uint32_t j = 0; j < path.len; ++j) h.absorb(path.hops[j]);
      }
    }
    return h.value();
  }

  std::uint64_t signature(std::int64_t t_ns, std::int64_t tn_ns,
                          std::uint64_t route_fp) const {
    if (memo.debug_collide_signatures) return kSigTag;
    Hash64 h;
    h.absorb(kSigTag);
    h.absorb((with_digest ? 1u : 0u) |
             (spec.invert_tiebreak ? 2u : 0u) |
             (static_cast<std::uint64_t>(spec.partitions) << 2));
    h.absorb(scenario.seed);
    h.absorb((static_cast<std::uint64_t>(scenario.tors) << 32) |
             scenario.spines);
    h.absorb(scenario.hosts_per_tor);
    h.absorb((static_cast<std::uint64_t>(scenario.queue_bytes) << 32) |
             scenario.ecn_threshold);
    h.absorb(static_cast<std::uint64_t>(scenario.tcp));
    h.absorb(scenario.ecmp_port_sensitive ? 1 : 0);
    h.absorb(static_cast<std::uint64_t>(pattern.period_ns));
    h.absorb(pattern.pattern.size());
    for (const RelFlow& f : rel_flows) {
      h.absorb((static_cast<std::uint64_t>(f.src) << 32) | f.dst);
      h.absorb(f.bytes);
      h.absorb(static_cast<std::uint64_t>(f.offset_ns));
    }
    // Pending-event-set signature, windowed to the phase: only events
    // that can fire inside [T, Tn) participate, in phase-relative form.
    // Commutative over partitions and events.
    std::uint64_t pending = 0;
    for (const sim::Simulator* part : s.parts()) {
      part->for_each_pending([&](sim::SimTime t, std::uint64_t key) {
        if (t.ns() < tn_ns) {
          pending += mix64(static_cast<std::uint64_t>(t.ns() - t_ns) ^
                           mix64(key));
        }
      });
    }
    h.absorb(pending);
    h.absorb(route_fp);
    h.absorb(summaries.size());
    for (std::uint64_t v : summaries) h.absorb(v);
    return h.value();
  }

  bool verify(const PhaseEntry& entry, std::uint64_t route_fp,
              const std::vector<net::FlowKey>& tuples) const {
    if (entry.with_digest != with_digest) return false;
    if (entry.flows != rel_flows) return false;
    if (entry.route_fp != route_fp) return false;
    if (entry.partitions.size() != s.parts().size()) return false;
    // Stale-connection guard: a replayed phase never materializes its
    // connections, so an earlier port wrap could leave a live run finding
    // a stale connection under a reused 4-tuple where the replayed run
    // had none. Refuse the hit if any predicted tuple already exists.
    for (const net::FlowKey& t : tuples) {
      const auto& hosts = s.network.hosts;
      if (hosts[t.src_host]->has_connection(t)) return false;
      if (hosts[t.dst_host]->has_connection(t.reversed())) return false;
    }
    return true;
  }

  void apply(const PhaseEntry& entry, std::uint32_t phase, std::int64_t t_ns,
             std::int64_t tn_ns) {
    const std::uint64_t base_flow_id =
        1 + static_cast<std::uint64_t>(phase) * pattern.pattern.size();

    // Per-host translation bases: recorded (entry) -> current.
    std::vector<std::int64_t> port_delta(s.network.hosts.size(), 0);
    std::vector<std::uint64_t> rec_pkt_base(s.network.hosts.size(), 0);
    std::vector<std::uint64_t> cur_pkt_base(s.network.hosts.size(), 0);
    for (const HostIdentity& hi : entry.identities) {
      port_delta[hi.host] =
          static_cast<std::int64_t>(s.network.hosts[hi.host]->next_port()) -
          static_cast<std::int64_t>(hi.port_base);
      rec_pkt_base[hi.host] = hi.pkt_seq_base;
      cur_pkt_base[hi.host] = s.network.hosts[hi.host]->next_packet_seq();
    }

    std::vector<std::uint64_t> base_seq(s.parts().size());
    for (std::size_t p = 0; p < s.parts().size(); ++p) {
      base_seq[p] = s.parts()[p]->fes_next_seq();
    }

    // Retire this phase's injection events: a live run would pop them,
    // the replay cancels them (same live-count effect; the executed-count
    // delta below accounts for the pops).
    for (std::size_t i = 0; i < pattern.pattern.size(); ++i) {
      const InjectionRec& r =
          injection(phase, static_cast<std::uint32_t>(i));
      s.parts()[r.part]->cancel(r.handle);
    }

    if (s.digest != nullptr) {
      for (std::size_t p = 0; p < entry.partitions.size(); ++p) {
        for (const RelPop& pop : entry.partitions[p].pops) {
          const std::uint64_t seq =
              pop.injection
                  ? injection(phase, static_cast<std::uint32_t>(pop.dseq)).seq
                  : base_seq[p] + pop.dseq;
          s.digest->replay_event_pop(
              p, sim::SimTime::from_ns(t_ns + pop.rel_ns), seq);
        }
      }
      for (const RelPacket& rp : entry.packets) {
        check::PacketRecord r = rp.rec;
        r.time_ns += t_ns;
        if (rp.flow_index >= 0) {
          r.flow_id = base_flow_id + static_cast<std::uint64_t>(rp.flow_index);
        }
        const auto sender = static_cast<std::uint32_t>(r.packet_id >> 40);
        const std::uint64_t low = r.packet_id & kLow40;
        r.packet_id = (static_cast<std::uint64_t>(sender) << 40) |
                      ((low - rec_pkt_base[sender] + cur_pkt_base[sender]) &
                       kLow40);
        if (r.src_port != 80) {
          r.src_port = static_cast<std::uint16_t>(r.src_port +
                                                  port_delta[r.src_host]);
        } else if (r.dst_port != 80) {
          r.dst_port = static_cast<std::uint16_t>(r.dst_port +
                                                  port_delta[r.dst_host]);
        }
        s.digest->replay_link_record(rp.probe, r);
      }
    }

    for (const RelCompletion& c : entry.completions) {
      const workload::PhaseFlow& f = pattern.pattern[c.flow_index];
      if (s.digest != nullptr) {
        s.digest->on_flow_complete(
            base_flow_id + c.flow_index, f.src, f.dst, f.bytes,
            sim::SimTime::from_ns(t_ns + c.start_rel_ns),
            sim::SimTime::from_ns(t_ns + c.end_rel_ns));
      }
      ++s.flows_completed;
    }

    for (const CounterDelta& d : entry.link_deltas) {
      s.links[d.index]->memo_apply_counter_delta(d.delta);
    }
    for (const CounterDelta& d : entry.switch_deltas) {
      s.network.switches[d.index]->memo_apply_counter_delta(d.delta);
    }
    for (const CounterDelta& d : entry.host_deltas) {
      s.network.hosts[d.index]->memo_apply_counter_delta(d.delta);
    }
    for (const HostIdentity& hi : entry.identities) {
      s.network.hosts[hi.host]->memo_advance_identity(hi.flows_opened,
                                              hi.packets_sent);
    }
    for (std::size_t p = 0; p < s.parts().size(); ++p) {
      s.parts()[p]->fes_advance(entry.partitions[p].scheduled);
      s.parts()[p]->advance_executed_accounting(entry.partitions[p].executed);
      s.parts()[p]->fast_forward_to(sim::SimTime::from_ns(tn_ns));
    }

    ++stats.hits;
    ++stats.fast_forwarded_phases;
    stats.fast_forwarded_ns += tn_ns - t_ns;
  }

  /// Runs phase `phase` live while recording its delta; stores the entry
  /// under `sig` unless any non-memoizable condition shows up.
  void record(std::uint64_t sig, std::uint64_t route_fp, std::uint32_t phase,
              std::int64_t t_ns, std::int64_t tn_ns) {
    const std::size_t nparts = s.parts().size();
    std::vector<std::uint64_t> base_seq(nparts), base_sched(nparts),
        base_exec(nparts);
    for (std::size_t p = 0; p < nparts; ++p) {
      base_seq[p] = s.parts()[p]->fes_next_seq();
      base_sched[p] = s.parts()[p]->events_scheduled();
      base_exec[p] = s.parts()[p]->events_executed();
    }
    const std::vector<stats::PacketCounter> base_counters =
        snapshot_counters(s);
    std::vector<std::uint16_t> port_base(s.network.hosts.size());
    std::vector<std::uint64_t> pkt_base(s.network.hosts.size());
    for (std::size_t h = 0; h < s.network.hosts.size(); ++h) {
      port_base[h] = s.network.hosts[h]->next_port();
      pkt_base[h] = s.network.hosts[h]->next_packet_seq();
    }

    // Digest mode: wrap the pop observers and link observers so the
    // phase's streams are logged while still reaching the digest.
    std::vector<PopRecorder> pop_recorders(nparts);
    std::vector<std::function<void(const net::Packet&, sim::SimTime)>>
        saved_transmit(s.links.size());
    std::vector<std::function<void(const net::Packet&)>> saved_drop(
        s.links.size());
    std::vector<std::vector<check::PacketRecord>> link_logs(s.links.size());
    if (s.digest != nullptr) {
      for (std::size_t p = 0; p < nparts; ++p) {
        pop_recorders[p].inner = s.parts()[p]->pop_observer();
        s.parts()[p]->set_pop_observer(&pop_recorders[p]);
      }
      for (std::size_t i = 0; i < s.links.size(); ++i) {
        net::Link* link = s.links[i];
        saved_transmit[i] = std::move(link->on_transmit);
        saved_drop[i] = std::move(link->on_drop);
        auto* fwd_t = &saved_transmit[i];
        auto* fwd_d = &saved_drop[i];
        auto* log = &link_logs[i];
        link->on_transmit = [fwd_t, log](const net::Packet& pkt,
                                         sim::SimTime arrive_at) {
          log->push_back(
              check::make_packet_record(pkt, arrive_at.ns(), false));
          if (*fwd_t) (*fwd_t)(pkt, arrive_at);
        };
        link->on_drop = [fwd_d, log, link](const net::Packet& pkt) {
          log->push_back(
              check::make_packet_record(pkt, link->now().ns(), true));
          if (*fwd_d) (*fwd_d)(pkt);
        };
      }
    }
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.recording = true;
      s.completion_log.clear();
    }

    s.engine.run_until(sim::SimTime::from_ns(tn_ns));

    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.recording = false;
    }
    if (s.digest != nullptr) {
      for (std::size_t p = 0; p < nparts; ++p) {
        s.parts()[p]->set_pop_observer(pop_recorders[p].inner);
      }
      for (std::size_t i = 0; i < s.links.size(); ++i) {
        s.links[i]->on_transmit = std::move(saved_transmit[i]);
        s.links[i]->on_drop = std::move(saved_drop[i]);
      }
    }

    // The phase must end quiescent to be replayable: anything still
    // pending (an unfinished flow's timer, an in-flight packet) would
    // need live state a fast-forward cannot reconstruct.
    if (!quiescent()) {
      ++stats.store_aborts;
      return;
    }

    PhaseEntry entry;
    entry.with_digest = with_digest;
    entry.flows = rel_flows;
    entry.route_fp = route_fp;

    for (std::size_t p = 0; p < nparts; ++p) {
      PartitionDelta pd;
      pd.scheduled = s.parts()[p]->events_scheduled() - base_sched[p];
      pd.executed = s.parts()[p]->events_executed() - base_exec[p];
      // This partition's injection seqs for this phase, for classifying
      // pre-phase pops. Seq numbering is per-partition, so injections on
      // other partitions must not participate — their seqs can collide.
      std::vector<std::pair<std::uint64_t, std::uint32_t>> inj_seqs;
      for (std::size_t i = 0; i < pattern.pattern.size(); ++i) {
        const InjectionRec& r =
            injection(phase, static_cast<std::uint32_t>(i));
        if (r.part == p) {
          inj_seqs.emplace_back(r.seq, static_cast<std::uint32_t>(i));
        }
      }
      std::sort(inj_seqs.begin(), inj_seqs.end());
      if (s.digest != nullptr) {
        for (const auto& [t, seq] : pop_recorders[p].log) {
          RelPop pop;
          pop.rel_ns = t - t_ns;
          if (seq >= base_seq[p]) {
            pop.dseq = seq - base_seq[p];
          } else {
            const auto it = std::lower_bound(
                inj_seqs.begin(), inj_seqs.end(),
                std::make_pair(seq, std::uint32_t{0}));
            if (it == inj_seqs.end() || it->first != seq) {
              // A pre-phase event that is not one of this phase's
              // injections fired inside the phase — not memoizable.
              ++stats.store_aborts;
              return;
            }
            pop.injection = true;
            pop.dseq = it->second;
          }
          pd.pops.push_back(pop);
        }
      }
      entry.partitions.push_back(std::move(pd));
    }

    // Flow-id -> pattern index for this phase.
    const std::uint64_t base_flow_id =
        1 + static_cast<std::uint64_t>(phase) * pattern.pattern.size();
    auto flow_index_of = [&](std::uint64_t flow_id) -> std::int32_t {
      if (flow_id < base_flow_id ||
          flow_id >= base_flow_id + pattern.pattern.size()) {
        return -2;  // not this phase's flow
      }
      return static_cast<std::int32_t>(flow_id - base_flow_id);
    };

    if (s.digest != nullptr) {
      for (std::size_t i = 0; i < link_logs.size(); ++i) {
        for (const check::PacketRecord& raw : link_logs[i]) {
          RelPacket rp;
          rp.probe = static_cast<std::uint32_t>(i);
          rp.rec = raw;
          rp.rec.time_ns -= t_ns;
          if (raw.flow_id != 0) {
            rp.flow_index = flow_index_of(raw.flow_id);
            if (rp.flow_index < 0) {
              ++stats.store_aborts;
              return;
            }
          }
          const auto sender = static_cast<std::uint32_t>(raw.packet_id >> 40);
          if (sender >= s.network.hosts.size() ||
              (raw.packet_id & kLow40) <= pkt_base[sender]) {
            // A packet minted before this phase surfaced inside it; the
            // identity translation would be wrong.
            ++stats.store_aborts;
            return;
          }
          entry.packets.push_back(std::move(rp));
        }
      }
    }

    for (const CompletionEvent& c : s.completion_log) {
      const std::int32_t idx = flow_index_of(c.flow_id);
      if (idx < 0) {
        ++stats.store_aborts;
        return;
      }
      entry.completions.push_back({static_cast<std::uint32_t>(idx),
                                   c.start_ns - t_ns, c.end_ns - t_ns});
    }

    const std::vector<stats::PacketCounter> end_counters =
        snapshot_counters(s);
    auto push_deltas = [&](std::size_t from, std::size_t count,
                           std::vector<CounterDelta>& out) {
      for (std::size_t i = 0; i < count; ++i) {
        const stats::PacketCounter& a = base_counters[from + i];
        const stats::PacketCounter& b = end_counters[from + i];
        if (a.sent == b.sent && a.delivered == b.delivered &&
            a.dropped == b.dropped) {
          continue;
        }
        CounterDelta d;
        d.index = static_cast<std::uint32_t>(i);
        d.delta = {b.sent - a.sent, b.delivered - a.delivered,
                   b.dropped - a.dropped};
        out.push_back(d);
      }
    };
    push_deltas(0, s.links.size(), entry.link_deltas);
    push_deltas(s.links.size(), s.network.switches.size(),
                entry.switch_deltas);
    push_deltas(s.links.size() + s.network.switches.size(),
                s.network.hosts.size(), entry.host_deltas);

    for (std::size_t h = 0; h < s.network.hosts.size(); ++h) {
      const std::uint64_t sent =
          s.network.hosts[h]->next_packet_seq() - pkt_base[h];
      if (opens_per_host[h] == 0 && sent == 0) continue;
      HostIdentity hi;
      hi.host = static_cast<std::uint32_t>(h);
      hi.port_base = port_base[h];
      hi.pkt_seq_base = pkt_base[h];
      hi.flows_opened = opens_per_host[h];
      hi.packets_sent = sent;
      entry.identities.push_back(hi);
    }

    cache.insert(sig, std::move(entry));
    ++stats.stores;
  }

  void run_all() {
    init();
    prev_counters = snapshot_counters(s);
    for (std::uint32_t k = 0; k < pattern.phases; ++k) {
      const std::int64_t t_ns = pattern.boundary_ns(k);
      const std::int64_t tn_ns = pattern.boundary_ns(k + 1);

      // Rolling per-phase counter summary, recomputed uniformly at every
      // boundary (hit or miss: replay reproduces the counters exactly,
      // so the summaries — and therefore later signatures — agree with a
      // memo-off run bit for bit).
      if (k > 0) {
        const std::vector<stats::PacketCounter> cur = snapshot_counters(s);
        Hash64 h;
        for (std::size_t i = 0; i < cur.size(); ++i) {
          h.absorb(cur[i].sent - prev_counters[i].sent);
          h.absorb(cur[i].delivered - prev_counters[i].delivered);
          h.absorb(cur[i].dropped - prev_counters[i].dropped);
        }
        summaries.push_back(h.value());
        while (summaries.size() > memo.window_phases) summaries.pop_front();
        prev_counters = cur;
      }

      if (!memo.enabled || !quiescent()) {
        s.engine.run_until(sim::SimTime::from_ns(tn_ns));
        continue;
      }
      std::vector<net::FlowKey> tuples;
      bool wrap = false;
      const std::uint64_t route_fp = route_fingerprint(&tuples, &wrap);
      if (wrap) {
        // Port-space wrap inside the phase: identity translation is
        // undefined, so neither hit nor store.
        s.engine.run_until(sim::SimTime::from_ns(tn_ns));
        continue;
      }
      const std::uint64_t sig = signature(t_ns, tn_ns, route_fp);
      ++stats.lookups;
      const PhaseEntry* entry = cache.find(sig);
      if (entry != nullptr && verify(*entry, route_fp, tuples)) {
        apply(*entry, k, t_ns, tn_ns);
        continue;
      }
      if (entry != nullptr) {
        ++stats.near_misses;
      } else {
        ++stats.misses;
      }
      record(sig, route_fp, k, t_ns, tn_ns);
    }
    if (scenario.duration_ns > pattern.total_duration_ns()) {
      s.engine.run_until(sim::SimTime::from_ns(scenario.duration_ns));
    }
  }
};

}  // namespace

MemoRunOutcome MemoRunner::run(const check::Scenario& scenario,
                               const workload::PhasePattern& pattern,
                               const check::EngineSpec& spec,
                               bool with_digest) {
  scenario.validate();
  pattern.validate();
  {
    const auto injections = pattern.expand(1);
    if (scenario.flows.size() != injections.size()) {
      throw std::invalid_argument(
          "MemoRunner: scenario flows != pattern expansion");
    }
    for (std::size_t i = 0; i < injections.size(); ++i) {
      const check::FlowSpec& f = scenario.flows[i];
      const auto& inj = injections[i];
      if (f.src != inj.src || f.dst != inj.dst || f.bytes != inj.bytes ||
          f.start_ns != inj.start_ns || f.flow_id != inj.flow_id) {
        throw std::invalid_argument(
            "MemoRunner: scenario flows != pattern expansion");
      }
    }
  }
  if (scenario.duration_ns < pattern.total_duration_ns()) {
    throw std::invalid_argument(
        "MemoRunner: scenario duration shorter than the phase span");
  }

  MemoRunOutcome out;
  check::StateDigest digest;
  core::Engine engine{spec.engine_config(scenario.seed)};
  spec.apply_tiebreak(engine);
  const auto net = engine.build_full(scenario.network_config());
  Session s{engine, net, with_digest ? &digest : nullptr};
  if (with_digest) {
    for (sim::Simulator* part : engine.parts()) digest.attach(*part);
  }
  discover_components(s);
  schedule_injections(s, pattern);
  PhaseDriver driver{cache_, stats_,      memo_, s,  scenario, pattern,
                     spec,   with_digest, {},    {}, {},       {},
                     {}};
  driver.run_all();
  if (with_digest) {
    out.digest = digest.finalize();
    out.digest_attached = true;
  }
  const std::vector<const sim::Simulator*> sims(s.parts().begin(),
                                                s.parts().end());
  out.final_state_fp = check::final_state_fingerprint(sims);
  out.flows_completed = s.flows_completed;

  stats_.evictions = cache_.evictions();
  out.stats = stats_;
  out.cache_entries = cache_.entries();
  out.cache_bytes = cache_.resident_bytes();
  return out;
}

}  // namespace esim::memo
