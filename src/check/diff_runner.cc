#include "check/diff_runner.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace esim::check {
namespace {

/// Bisection stops when the diverged window is this tight.
constexpr std::int64_t kBisectResolutionNs = 1000;
/// Record-capture cap during localization reruns.
constexpr std::size_t kMaxCapture = std::size_t{1} << 20;

}  // namespace

void inject_flows(core::Engine& engine, const std::vector<FlowSpec>& flows,
                  const core::BuiltNetwork& net, StateDigest& digest) {
  engine.schedule_flows(
      net, flows, [&digest](const FlowSpec& f, sim::SimTime end) {
        digest.on_flow_complete(f.flow_id, f.src, f.dst, f.bytes,
                                sim::SimTime::from_ns(f.start_ns), end);
      });
}

std::string FirstDivergence::to_string() const {
  if (!found) return "(no packet-level divergence localized)";
  std::ostringstream os;
  os << "first divergence on link '" << link << "' at record #" << index
     << " (t=" << time_ns << "ns):\n";
  for (const auto& c : context) os << "    ... " << c << "\n";
  os << "    base:  " << base_record << "\n";
  os << "    other: " << other_record;
  return os.str();
}

std::string DiffReport::to_string() const {
  std::ostringstream os;
  os << base.label() << " vs " << other.label() << ": "
     << (equivalent ? "EQUIVALENT" : "DIVERGED")
     << (full_compare ? " (full digest incl. pop order)"
                      : " (engine-invariant lanes)")
     << "\n";
  os << "  base:  " << base_digest.to_string() << "\n";
  os << "  other: " << other_digest.to_string();
  if (!equivalent) {
    os << "\n  earliest diverged horizon: " << divergence_window_ns << "ns\n";
    os << "  " << first.to_string();
  }
  return os.str();
}

RunOutcome DiffRunner::run(const Scenario& scenario, const EngineSpec& spec,
                           sim::SimTime end, bool capture) const {
  scenario.validate();
  RunOutcome out;
  StateDigest digest;
  if (capture) digest.enable_capture(kMaxCapture);
  core::Engine engine{spec.engine_config(scenario.seed)};
  spec.apply_tiebreak(engine);
  const auto net = engine.build_full(scenario.network_config());
  for (sim::Simulator* part : engine.parts()) digest.attach(*part);
  inject_flows(engine, scenario.flows, net, digest);
  engine.run_until(end);
  out.digest = digest.finalize();
  // Records reference link names owned by the engine; copy them out
  // before it (and its components) goes out of scope.
  if (capture) out.records = digest.captured();
  out.flows_completed = out.digest.flows;
  return out;
}

DiffReport DiffRunner::diff(const Scenario& scenario, const EngineSpec& base,
                            const EngineSpec& other) const {
  DiffReport report;
  report.base = base;
  report.other = other;
  report.full_compare = base == other;

  auto equal = [&report](const Digest& a, const Digest& b) {
    return report.full_compare ? a == b : a.engine_invariant_equal(b);
  };

  const auto duration = sim::SimTime::from_ns(scenario.duration_ns);
  report.base_digest = run(scenario, base, duration).digest;
  report.other_digest = run(scenario, other, duration).digest;
  report.equivalent = equal(report.base_digest, report.other_digest);
  if (report.equivalent) return report;

  // Bisect the horizon: find the earliest end time (to within
  // kBisectResolutionNs) at which the two engines' digests already
  // differ. Digests at a shorter horizon cover a prefix of the run, so
  // divergence is monotone in the horizon.
  std::int64_t lo = 0;  // digests match when nothing has run
  std::int64_t hi = scenario.duration_ns;
  while (hi - lo > kBisectResolutionNs) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    const auto a = run(scenario, base, sim::SimTime::from_ns(mid)).digest;
    const auto b = run(scenario, other, sim::SimTime::from_ns(mid)).digest;
    if (equal(a, b)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  report.divergence_window_ns = hi;

  // Rerun the diverged horizon with capture and name the earliest
  // differing per-link record.
  const auto end = sim::SimTime::from_ns(hi);
  auto base_run = run(scenario, base, end, /*capture=*/true);
  auto other_run = run(scenario, other, end, /*capture=*/true);

  std::vector<std::string> links;
  for (const auto& [name, _] : base_run.records) links.push_back(name);
  for (const auto& [name, _] : other_run.records) {
    if (!base_run.records.count(name)) links.push_back(name);
  }

  bool have = false;
  std::int64_t best_time = 0;
  for (const std::string& name : links) {
    static const std::vector<PacketRecord> kEmpty;
    const auto& a = base_run.records.count(name)
                        ? base_run.records.at(name)
                        : kEmpty;
    const auto& b = other_run.records.count(name)
                        ? other_run.records.at(name)
                        : kEmpty;
    const std::size_t n = std::min(a.size(), b.size());
    std::size_t i = 0;
    while (i < n && a[i] == b[i]) ++i;
    if (i == a.size() && i == b.size()) continue;  // streams identical
    std::int64_t t = std::numeric_limits<std::int64_t>::max();
    if (i < a.size()) t = std::min(t, a[i].time_ns);
    if (i < b.size()) t = std::min(t, b[i].time_ns);
    if (have && t >= best_time) continue;
    have = true;
    best_time = t;
    report.first.found = true;
    report.first.link = name;
    report.first.index = i;
    report.first.time_ns = t;
    report.first.base_record =
        i < a.size() ? a[i].to_string() : "<end of stream>";
    report.first.other_record =
        i < b.size() ? b[i].to_string() : "<end of stream>";
    report.first.context.clear();
    const std::size_t from = i >= 3 ? i - 3 : 0;
    for (std::size_t k = from; k < i; ++k) {
      report.first.context.push_back(a[k].to_string());
    }
  }
  return report;
}

std::vector<DiffReport> DiffRunner::check_all(
    const Scenario& scenario, const std::vector<std::uint32_t>& partition_counts,
    bool inject_tiebreak_bug) const {
  std::vector<DiffReport> reports;
  const EngineSpec sequential{};
  for (std::uint32_t p : partition_counts) {
    EngineSpec pdes;
    pdes.partitions = p;
    pdes.invert_tiebreak = inject_tiebreak_bug;
    reports.push_back(diff(scenario, sequential, pdes));
  }
  if (!partition_counts.empty()) {
    // Rerun determinism: the widest PDES config against itself must match
    // on the FULL digest, pop order included.
    EngineSpec widest;
    widest.partitions =
        *std::max_element(partition_counts.begin(), partition_counts.end());
    reports.push_back(diff(scenario, widest, widest));
  }
  return reports;
}

}  // namespace esim::check
