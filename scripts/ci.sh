#!/usr/bin/env bash
# Staged CI pipeline: fail-fast, one banner per stage.
#
#   scripts/ci.sh            # run everything
#   CI_OFFLINE=1 scripts/ci.sh   # pass --offline to every cargo call
#
# Stages:
#   1. fmt       cargo fmt --check        (skipped if rustfmt is absent)
#   2. lint      cargo run -p xtask -- check
#   3. audit     xtask audit --json twice, reports byte-diffed, gated on
#                the ratchet baseline, report validated by check-audit
#   4. doc       cargo doc --no-deps --workspace with warnings denied
#   5. build     cargo build --workspace --release
#   6. test      cargo test -q --workspace
#   7. sanitize  cargo test -q --features saccs-nn/sanitize
#   8. bench-obs SACCS_OBS=json table3 + xtask check-bench on the snapshot
#   9. perf      SACCS_OBS=json matmul microbench + xtask check-bench
#  10. chaos     seeded fault suite + double chaos-bin run, exports diffed
#  11. serve     concurrent-serving suite + double serve-bin run, exports
#                AND normalized flight-recorder reports diffed,
#                BENCH_serve.json + the recorder report validated
#  12. trace     request-tracing suite (five-stage coverage, fault events
#                in the owning trace, recorder-on/off bitwise equality)
#  13. probe     ANN equality suite + double probe-bin run on a reduced
#                synthetic corpus, deterministic exports byte-diffed,
#                BENCH_probe.json validated
#  14. ingest    segmented-index suites (proptests, ingest-while-serving
#                equivalence, crash recovery) + double ingest-bin run,
#                deterministic exports byte-diffed, BENCH_ingest.json
#                validated
#  15. query     query-language suites (planner proptests, filtered
#                serving equivalence) + double query-bin run, match-set
#                exports byte-diffed, BENCH_query.json validated

set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if [[ "${CI_OFFLINE:-0}" == "1" ]]; then
    OFFLINE=(--offline)
fi

stage() {
    printf '\n=== [%s] %s ===\n' "$1" "$2"
}

fail() {
    printf '\n*** CI FAILED at stage [%s] ***\n' "$1" >&2
    exit 1
}

if command -v rustfmt >/dev/null 2>&1; then
    stage fmt "cargo fmt --all -- --check"
    cargo fmt --all -- --check || fail fmt
else
    stage fmt "skipped: rustfmt not installed"
fi

stage lint "cargo run -p xtask -- check"
cargo run "${OFFLINE[@]}" -q -p xtask -- check || fail lint

# Determinism & concurrency hazard audit: all 14 passes gated on the
# ratcheted baseline (per-pass counts may only go down), run twice with
# the JSON report byte-diffed — the analyzer itself must be as
# deterministic as the code it audits — and the report schema validated.
stage audit "xtask audit --json x2, reports diffed + validated"
rm -f AUDIT_a.json AUDIT_b.json
cargo run "${OFFLINE[@]}" -q -p xtask -- audit --json AUDIT_a.json || fail audit
cargo run "${OFFLINE[@]}" -q -p xtask -- audit --json AUDIT_b.json >/dev/null || fail audit
diff AUDIT_a.json AUDIT_b.json || fail audit
cargo run "${OFFLINE[@]}" -q -p xtask -- check-audit AUDIT_a.json || fail audit
rm -f AUDIT_a.json AUDIT_b.json

# Rustdoc gate: every intra-doc link resolves and no doc comment
# warns, so the rendered API docs cannot silently rot.
stage doc "cargo doc --no-deps --workspace, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc "${OFFLINE[@]}" --no-deps --workspace || fail doc

stage build "cargo build --workspace --release"
cargo build "${OFFLINE[@]}" --workspace --release || fail build

stage test "cargo test -q --workspace"
cargo test "${OFFLINE[@]}" -q --workspace || fail test

stage sanitize "cargo test -q --features saccs-nn/sanitize"
cargo test "${OFFLINE[@]}" -q --features saccs-nn/sanitize || fail sanitize

# Observability round-trip: run the cheapest bench bin with the JSON
# exporter and validate the snapshot it writes (syntax + required keys).
stage bench-obs "SACCS_OBS=json table3 -> xtask check-bench"
rm -f BENCH_table3.json
SACCS_OBS=json cargo run "${OFFLINE[@]}" -q --release -p saccs-bench --bin table3 \
    >/dev/null || fail bench-obs
cargo run "${OFFLINE[@]}" -q -p xtask -- check-bench BENCH_table3.json || fail bench-obs

# Kernel perf gate: the blocked matmul vs the seed's naive kernel,
# interleaved best-of-N (GFLOP/s, thread count and speedup land in the
# headline; nn.matmul span histograms in the snapshot).
stage perf "SACCS_OBS=json matmul -> xtask check-bench"
rm -f BENCH_matmul.json
SACCS_OBS=json SACCS_THREADS="${SACCS_THREADS:-8}" \
    cargo run "${OFFLINE[@]}" -q --release -p saccs-bench --bin matmul \
    || fail perf
cargo run "${OFFLINE[@]}" -q -p xtask -- check-bench BENCH_matmul.json || fail perf

# Chaos gate: the seeded fault-injection suite, then the chaos bin run
# twice with the same (seed, scenario) — the JSON-lines exports (rankings
# as score bits, degradation events, fault.* counter deltas; no timings)
# must be byte-identical or the schedules are not deterministic.
stage chaos "fault suite + double chaos run, exports diffed"
cargo test "${OFFLINE[@]}" -q --features fault --test chaos || fail chaos
rm -f CHAOS_a.jsonl CHAOS_b.jsonl
SACCS_CHAOS_OUT=CHAOS_a.jsonl \
    cargo run "${OFFLINE[@]}" -q --release -p saccs-bench --features fault --bin chaos \
    || fail chaos
SACCS_CHAOS_OUT=CHAOS_b.jsonl \
    cargo run "${OFFLINE[@]}" -q --release -p saccs-bench --features fault --bin chaos \
    >/dev/null || fail chaos
diff CHAOS_a.jsonl CHAOS_b.jsonl || fail chaos
rm -f CHAOS_a.jsonl CHAOS_b.jsonl

# Serving gate: the concurrent-serving suite (bitwise equality at every
# width/batch, exact shed accounting, chaos through the server), then
# the serve bin run twice — its JSON-lines export (rankings as score
# bits plus the server counters; no timings) AND its normalized
# flight-recorder report (per-stage counts and event sequences,
# timestamps stripped) must both be byte-identical — and the QPS/A-B
# snapshot plus the recorder report validated.
stage serve "serve suite + double serve run, exports + reports diffed"
cargo test "${OFFLINE[@]}" -q --features fault --test serve || fail serve
rm -f SERVE_a.jsonl SERVE_b.jsonl SERVE_obsreport_a.json SERVE_obsreport_b.json BENCH_serve.json
SACCS_OBS=json SACCS_SERVE_OUT=SERVE_a.jsonl SACCS_SERVE_REPORT=SERVE_obsreport_a.json \
    cargo run "${OFFLINE[@]}" -q --release -p saccs-bench --features fault --bin serve \
    || fail serve
SACCS_SERVE_OUT=SERVE_b.jsonl SACCS_SERVE_REPORT=SERVE_obsreport_b.json \
    cargo run "${OFFLINE[@]}" -q --release -p saccs-bench --features fault --bin serve \
    >/dev/null || fail serve
diff SERVE_a.jsonl SERVE_b.jsonl || fail serve
diff SERVE_obsreport_a.json SERVE_obsreport_b.json || fail serve
cargo run "${OFFLINE[@]}" -q -p xtask -- check-report SERVE_obsreport_a.json || fail serve
rm -f SERVE_a.jsonl SERVE_b.jsonl SERVE_obsreport_a.json SERVE_obsreport_b.json
cargo run "${OFFLINE[@]}" -q -p xtask -- check-bench BENCH_serve.json || fail serve

# Tracing gate: the request-tracing integration suite — every trace
# carries all five Algorithm-1 stages with queue wait attributed
# separately, fault events land in the owning request's trace, and
# rankings are bitwise identical with the recorder on and off.
stage trace "cargo test --features fault --test trace"
cargo test "${OFFLINE[@]}" -q --features fault --test trace || fail trace

# Probe gate: the ANN-vs-scan equality suite, then the probe bin run
# twice on a reduced synthetic corpus — its JSON-lines export (per-probe
# rankings as score bits and match counts; no timings) must be
# byte-identical or the candidate search is not deterministic — and the
# BENCH_probe snapshot validated. The full 100k acceptance run
# stays a manual `SACCS_PROBE_TAGS=100000` invocation (see README).
stage probe "ann suite + double probe run, exports diffed"
cargo test "${OFFLINE[@]}" -q -p saccs-index --test ann || fail probe
rm -f PROBE_a.jsonl PROBE_b.jsonl BENCH_probe.json
SACCS_OBS=json SACCS_PROBE_TAGS=20000 SACCS_PROBE_OUT=PROBE_a.jsonl \
    cargo run "${OFFLINE[@]}" -q --release -p saccs-bench --bin probe \
    || fail probe
SACCS_PROBE_TAGS=20000 SACCS_PROBE_OUT=PROBE_b.jsonl \
    cargo run "${OFFLINE[@]}" -q --release -p saccs-bench --bin probe \
    >/dev/null || fail probe
diff PROBE_a.jsonl PROBE_b.jsonl || fail probe
rm -f PROBE_a.jsonl PROBE_b.jsonl
cargo run "${OFFLINE[@]}" -q -p xtask -- check-bench BENCH_probe.json || fail probe

# Ingest gate: the segmented-index property suite, the ingest-while-
# serving equivalence suite, and the crash-recovery chaos tests; then
# the ingest bin run twice with one seed — its JSON-lines export
# (checkpoint rankings as score bits plus segment counts; no timings)
# must be byte-identical or live ingestion is not deterministic — and
# the reviews/sec + probe-latency snapshot validated.
stage ingest "ingest suites + double ingest run, exports diffed"
cargo test "${OFFLINE[@]}" -q -p saccs-index --test segment || fail ingest
cargo test "${OFFLINE[@]}" -q --test ingest || fail ingest
cargo test "${OFFLINE[@]}" -q --features fault --test chaos ingest_recovery || fail ingest
rm -f INGEST_a.jsonl INGEST_b.jsonl BENCH_ingest.json
SACCS_OBS=json SACCS_INGEST_OUT=INGEST_a.jsonl \
    cargo run "${OFFLINE[@]}" -q --release -p saccs-bench --bin ingest \
    || fail ingest
SACCS_INGEST_OUT=INGEST_b.jsonl \
    cargo run "${OFFLINE[@]}" -q --release -p saccs-bench --bin ingest \
    >/dev/null || fail ingest
diff INGEST_a.jsonl INGEST_b.jsonl || fail ingest
rm -f INGEST_a.jsonl INGEST_b.jsonl
cargo run "${OFFLINE[@]}" -q -p xtask -- check-bench BENCH_ingest.json || fail ingest

# Query gate: the planner property suite (plan == naive evaluator, join-
# order invariance) and the filtered-serving suite (bitwise stability
# across widths/ANN/ingest states, degradation + admission paths); then
# the query bin run twice — its JSON-lines export (match counts and
# entity sets per corpus size; no timings) must be byte-identical or the
# plans are not deterministic — and the planner-speedup snapshot
# validated.
stage query "query suites + double query run, exports diffed"
cargo test "${OFFLINE[@]}" -q -p saccs-query || fail query
cargo test "${OFFLINE[@]}" -q --test query || fail query
rm -f QUERY_a.jsonl QUERY_b.jsonl BENCH_query.json
SACCS_OBS=json SACCS_QUERY_OUT=QUERY_a.jsonl \
    cargo run "${OFFLINE[@]}" -q --release -p saccs-bench --bin query \
    || fail query
SACCS_QUERY_OUT=QUERY_b.jsonl \
    cargo run "${OFFLINE[@]}" -q --release -p saccs-bench --bin query \
    >/dev/null || fail query
diff QUERY_a.jsonl QUERY_b.jsonl || fail query
rm -f QUERY_a.jsonl QUERY_b.jsonl
cargo run "${OFFLINE[@]}" -q -p xtask -- check-bench BENCH_query.json || fail query

printf '\n=== CI green: all stages passed ===\n'
