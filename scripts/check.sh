#!/usr/bin/env bash
# Builds the default and asan-ubsan presets and runs the CTest tiers
# explicitly — unit, integration, slow — under both, then builds the
# tsan preset and runs the threaded tests (ParallelEngine, PDES
# networks, telemetry) under ThreadSanitizer. ASan catches lifetime bugs
# in the FES inline storage, UBSan misaligned placement-new and signed
# overflow, TSan races between PDES partitions — including concurrent
# logging and shared telemetry instruments. The default preset builds
# with -Werror; a UBSan finding aborts its test (asan-ubsan builds with
# -fno-sanitize-recover=undefined).
#
# Opt-in extras:
#   ESIM_CHECK_FUZZ=1      also run the differential fuzz tier
#                          (`ctest -L fuzz`: esim_diffcheck selftest +
#                          25-scenario engine-equivalence sweep) under
#                          default and asan-ubsan.
#   ESIM_CHECK_COVERAGE=1  also build the coverage preset, run the unit
#                          + integration tiers under it, and print the
#                          src/{sim,core,telemetry,approx,flowsim,memo}
#                          line-coverage summary
#                          (scripts/coverage_summary.sh).
#
# Usage: [ESIM_CHECK_FUZZ=1] [ESIM_CHECK_COVERAGE=1] scripts/check.sh [-jN]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="-j$(nproc)"
if [[ $# -ge 1 && $1 == -j* ]]; then
  jobs=$1
fi

tiers=(unit integration slow)
if [[ "${ESIM_CHECK_FUZZ:-0}" == "1" ]]; then
  tiers+=(fuzz)
fi

for preset in default asan-ubsan; do
  echo "=== preset: ${preset} — configure ==="
  # The default build stays warning-free: any new warning fails it.
  werror=OFF
  if [[ "${preset}" == "default" ]]; then
    werror=ON
  fi
  cmake --preset "${preset}" -DESIM_WERROR="${werror}"
  echo "=== preset: ${preset} — build ==="
  cmake --build --preset "${preset}" "${jobs}"
  for tier in "${tiers[@]}"; do
    echo "=== preset: ${preset} — test tier: ${tier} ==="
    ctest --preset "${preset}" "${jobs}" -L "${tier}"
  done
done

# The PDES scale-out path (graph-cut placement, per-pair lookahead
# windows, SPSC rings) must stay digest-identical to the sequential
# engine at the partition counts the scaling bench targets. Always run
# this — it is the determinism gate for the parallel engine, not an
# opt-in extra.
echo "=== default — esim_diffcheck scale-out fuzz (8/16 partitions) ==="
(cd build && ./tools/esim_diffcheck fuzz --n 15 --seed 23 --partitions 8,16)

# The inference bench doubles as a sanitizer workout for the packed
# SIMD kernels and the workspace plan. `--batch` runs the batched
# phases: the lanes/sequence sweep at N in {1,4,16,64} (bit-identity
# checked against independent single-lane sessions, exit 1 on mismatch)
# plus a hybrid run with the coalesced prediction queue on vs off.
echo "=== asan-ubsan — bench_inference --batch smoke ==="
(cd build-asan && ./bench/bench_inference --batch)

# Training on the packed kernels under the sanitizers: `--train` trains
# LSTM/GRU micro models at h16/32/64 on the kernels and on the scalar
# oracle and exits 1 unless the weights match bit for bit — the masked
# ragged-edge loads/stores and the per-thread packing scratch are the
# lifetime/overflow risks it drives.
echo "=== asan-ubsan — bench_inference --train smoke ==="
(cd build-asan && ./bench/bench_inference --train)

# Quick sweep of the PDES scaling bench under ASan/UBSan: drives the
# partitioner, per-pair windows, and SPSC rings at 1..8 partitions with
# real TCP traffic.
echo "=== asan-ubsan — bench_pdes_scaling smoke ==="
(cd build-asan && ESIM_BENCH_QUICK=1 ./bench/bench_pdes_scaling)

# Fidelity observatory digest-invariance under the sanitizers: shadow
# sampling + queue-truth peeks + JSONL streaming must not perturb the
# simulation (full digest equality, sequential and PDES) and must be
# clean of lifetime/overflow bugs in the probe's window bookkeeping.
echo "=== asan-ubsan — esim_diffcheck fidelity smoke ==="
(cd build-asan && ./tools/esim_diffcheck fidelity --n 10 --seed 7 --partitions 2,4)

# Adaptive tier switching under the sanitizers: the controller's
# drain-before-switch, the fluid backend's pending-mutation buffering,
# and the tier-trace digest lane must agree across engines with no
# lifetime/overflow bugs in the backend swap.
echo "=== asan-ubsan — esim_diffcheck granularity smoke ==="
(cd build-asan && ./tools/esim_diffcheck granularity --n 10 --seed 1 --partitions 2,4)

# Phase-memoization replay equivalence under the sanitizers: the delta
# recorder's observer wrapping, the LRU cache's eviction accounting, and
# the fast-forward's FES counter surgery must keep memo-on runs
# digest-identical to memo-off (DESIGN.md §13) with no lifetime bugs in
# the snapshot/restore path.
echo "=== asan-ubsan — esim_diffcheck memo smoke ==="
(cd build-asan && ./tools/esim_diffcheck memo --n 10 --seed 7 --partitions 2,4)

# Memo bench smoke: the aggregate fast-forward speedup path plus the
# digest-attached replay path end to end under ASan.
echo "=== asan-ubsan — bench_memo smoke ==="
(cd build-asan && ESIM_BENCH_QUICK=1 ./bench/bench_memo)

# Granularity bench smoke: trains tiny boundary models, runs the
# all-packet reference plus fixed/adaptive tier variants and the
# quiescent corpus — the fluid backend's full lifecycle under ASan.
echo "=== asan-ubsan — bench_granularity smoke ==="
(cd build-asan && ESIM_BENCH_QUICK=1 ./bench/bench_granularity)

# The benches that are the only non-test callers of the partitioned
# hybrid build (fig5_parallel: ApproxCluster islands on PDES partitions
# with cross-partition egress) and of the partitioned leaf-spine
# (fig1_pdes_scaling), under ASan/UBSan at smoke scale.
echo "=== asan-ubsan — fig5_parallel smoke ==="
(cd build-asan && ESIM_BENCH_QUICK=1 ./bench/fig5_parallel)
echo "=== asan-ubsan — fig1_pdes_scaling smoke ==="
(cd build-asan && ESIM_BENCH_QUICK=1 ./bench/fig1_pdes_scaling)

echo "=== preset: tsan — configure ==="
cmake --preset tsan
echo "=== preset: tsan — build ==="
cmake --build --preset tsan "${jobs}"
echo "=== preset: tsan — test (threaded suites) ==="
# BatchCluster / HybridPdesBatch cover the coalesced prediction queue's
# flush timers interleaving with the telemetry flusher and with
# cross-partition deliveries.
# Fidelity suites exercise the shared FidelitySink from concurrent PDES
# partition threads (window closes append rows under the sink mutex).
# Granularity / FluidCluster cover adaptive tier switches and the fluid
# backend's deferred mutations racing cross-partition deliveries.
# Memo / PhaseCache cover the PDES memo runner: delta recording across
# partition threads (the completion log mutex) and replay between
# engine windows.
# TrainKernels covers train_from_trace training the ingress and egress
# models on two threads (per-thread packing scratch, shared read-only
# trace and config).
# RoundBarrier covers the PDES round barrier on its own: completion-step
# visibility, spin-then-sleep hand-off, oversubscribed party counts.
# Partition covers count-bounded inbox drains (ring + overflow spills).
# GoldenResults runs the partitioned hybrid build and the memo runner at
# two partitions and the PDES leaf-spine at two and four. CoreEngine
# builds, starts generators, schedules flows and runs a PDES engine
# through core::Engine.
ctest --preset tsan "${jobs}" -R \
  'ParallelEngine|PdesBuilder|PdesNetwork|HybridPdes|TelemetryIntegration|Trace|SpscQueue|Partitioner|BatchCluster|Fidelity|Granularity|FluidCluster|Memo|PhaseCache|TrainKernels|RoundBarrier|Partition\.|GoldenResults|CoreEngine'

if [[ "${ESIM_CHECK_COVERAGE:-0}" == "1" ]]; then
  echo "=== preset: coverage — configure ==="
  cmake --preset coverage
  echo "=== preset: coverage — build ==="
  cmake --build --preset coverage "${jobs}"
  find build-coverage -name '*.gcda' -delete
  for tier in unit integration; do
    echo "=== preset: coverage — test tier: ${tier} ==="
    ctest --preset coverage "${jobs}" -L "${tier}"
  done
  echo "=== coverage summary (src/sim, src/core, src/telemetry, src/approx, src/flowsim, src/memo) ==="
  scripts/coverage_summary.sh build-coverage
fi

echo "All presets passed."
