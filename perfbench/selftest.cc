// Self-test of the benchmark's flow-list and matched-accuracy helpers.
// Exits 0 when every check holds; prints the failed checks otherwise.
#include <cmath>
#include <cstdio>

#include "workloads.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

using perfbench::Flow;
using perfbench::RunOutput;

RunOutput complete_all(const std::vector<Flow>& flows) {
  RunOutput out;
  out.flows = flows;
  for (const Flow& f : flows) {
    out.fct_ns.push_back(10'000 + static_cast<std::int64_t>(f.bytes / 8));
  }
  for (int i = 1; i <= 50; ++i) out.rtt_s.push_back(1e-6 * i);
  return out;
}

}  // namespace

int main() {
  const auto spec = perfbench::websearch_spec(4);
  const auto horizon = esim::sim::SimTime::from_ms(2);
  const auto flows =
      perfbench::make_websearch_flows(spec, 0.3, 0.3, horizon, 11);
  check(!flows.empty(), "flow list is non-empty");
  check(flows == perfbench::make_websearch_flows(spec, 0.3, 0.3, horizon, 11),
        "same seed gives the same flow list");
  const auto other =
      perfbench::make_websearch_flows(spec, 0.3, 0.3, horizon, 12);
  check(flows != other, "another seed gives another flow list");
  check(flows.size() == other.size(), "every seed gets the same flow count");
  double offered_bits = 0.0;
  for (const Flow& f : flows) offered_bits += 8.0 * static_cast<double>(f.bytes);
  const double target_bits = 0.3 * spec.total_hosts() * 10e9 * 2e-3;
  check(std::abs(offered_bits / target_bits - 1.0) < 0.02,
        "offered load is within 2% of the 30% target");
  bool ordered = true;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    ordered = ordered && flows[i].id == i + 1 && flows[i].src != flows[i].dst &&
              flows[i].start_ns < horizon.ns() &&
              (i == 0 || flows[i - 1].start_ns <= flows[i].start_ns);
  }
  check(ordered, "flows are numbered, distinct-endpoint, in start order");

  const auto kept = perfbench::without_approx_pairs(spec, flows, 0);
  bool all_touch = !kept.empty() && kept.size() < flows.size();
  for (const Flow& f : kept) {
    all_touch = all_touch && perfbench::touches_cluster(spec, f, 0);
  }
  check(all_touch, "elision keeps exactly the flows touching cluster 0");

  const RunOutput ref = complete_all(flows);
  const auto same = perfbench::matched_accuracy(spec, ref, ref);
  check(same.fct_ks == 0.0 && same.rtt_ks == 0.0 && same.fct_p99_err == 0.0,
        "identical inputs give zero distance");
  check(perfbench::identical_outputs(ref, ref), "identical outputs compare equal");

  // The hybrid side lacks approx<->approx flows; the reference side gets
  // absurd FCTs on exactly those flows. Neither may move the metrics.
  RunOutput skewed = ref;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!perfbench::touches_cluster(spec, flows[i], 0)) {
      skewed.fct_ns[i] = 1'000'000'000;
    }
  }
  const RunOutput hybrid = complete_all(kept);
  const auto elided = perfbench::matched_accuracy(spec, skewed, hybrid);
  check(elided.fct_ks == 0.0 && elided.fct_p99_err == 0.0,
        "approx<->approx flows are excluded from the matched population");
  check(elided.matched_flows == kept.size(),
        "matched population is the cluster-0 flows");

  // A real difference on a cluster-0 flow must show.
  RunOutput slower = hybrid;
  for (auto& v : slower.fct_ns) v *= 2;
  check(perfbench::matched_accuracy(spec, ref, slower).fct_ks > 0.5,
        "a slowdown of every matched flow is detected");
  RunOutput unfinished = ref;
  unfinished.fct_ns[0] = -1;
  check(!perfbench::identical_outputs(ref, unfinished),
        "an unfinished flow breaks output identity");

  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
