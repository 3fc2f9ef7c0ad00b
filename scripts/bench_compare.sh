#!/usr/bin/env bash
# CI perf-regression guard: runs the quick `mtp bench` profile and diffs
# it against the newest committed BENCH_*.json baseline.
#
#   scripts/bench_compare.sh                  compare against the newest
#                                             BENCH_*.json, tolerance 10x
#   scripts/bench_compare.sh BENCH_4.json     explicit baseline
#   TOLERANCE=25 scripts/bench_compare.sh     override the gate
#
# The tolerance is deliberately generous: quick-profile numbers on shared
# CI runners are noisy, and the gate exists to catch order-of-magnitude
# regressions (a hot path accidentally falling off its fast path), not to
# police percent-level drift. The committed baselines are measured with
# the full profile on a quiet host, which adds its own constant factor —
# both effects stay far inside a 10x gate.
#
# Since PR 5 the suite includes batch entries (batched simulator runs
# and the batched deep sweep), so this guard also catches the batching
# subsystem falling off its request-level periodicity fast path —
# BENCH_5.json is the first baseline carrying them; against older
# baselines they are reported as "not in baseline" and skipped.
#
# Since PR 6 the suite also includes the queued link-regime entries
# (sim/8chip_ar_block_qinf and sim/8chip_ar_block_q1m), guarding the
# affine hot path against the packet-level arbitration work: the affine
# entries must not slow down, and the queued entries bound the cost of
# the queue bookkeeping itself. BENCH_6.json is the first baseline
# carrying them.
#
# Since PR 8 the suite includes backend/dtype kernel entries (scalar
# GEMM, f16, int8, fused attention) and `--check` marks every row
# explicitly — `ok (within Nx)` or `REGRESSION` — so a pass is visibly
# a judgment on each entry, not an absence of output. Kernel entries
# run at a higher best-of-N since PR 8 to tame shared-runner noise.
# BENCH_8.json is the first baseline carrying the new entries; against
# older baselines they are reported as "not in baseline" and skipped.
#
# The suite also times the decode shapes (one output row: the
# 32000-word LM head, kernel/gemv_t_1x512x32000, and the per-chip FFN
# projection, kernel/gemv_1x512x256) next to scalar-backend twins run in
# the same process. On the SIMD backend `--check` fails when a decode
# entry is not faster than its twin: host speed cancels out of that
# ratio, so this gate needs no baseline and no tolerance. Under
# MTP_BACKEND=scalar both sides run the same kernel and the twin check
# is skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-}"
if [ -z "$baseline" ]; then
  baseline=$(ls BENCH_*.json | sort -V | tail -1)
fi
tolerance="${TOLERANCE:-10}"

echo "== perf-regression guard: quick profile vs $baseline (gate ${tolerance}x) =="
cargo run --release --bin mtp -- bench --quick --compare "$baseline" --check "$tolerance"
