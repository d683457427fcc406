#!/usr/bin/env bash
# Staged CI pipeline: fail-fast, one banner per stage.
#
#   scripts/ci.sh            # run everything
#   CI_OFFLINE=1 scripts/ci.sh   # pass --offline to every cargo call
#   CI_PARENT=<rev> scripts/ci.sh   # also run every bench bin built from
#                                   # <rev> and byte-diff its exports
#
# Stages:
#   1. fmt       cargo fmt --check        (skipped if rustfmt is absent)
#   2. clippy    cargo clippy --workspace --all-targets, warnings denied,
#                with and without the `fault` feature
#                (skipped if clippy is absent)
#   3. lint      cargo run -p xtask -- check (every hygiene and
#                determinism pass, zero unwaived violations)
#   4. doc       cargo doc --no-deps --workspace with warnings denied
#   5. build     cargo build --workspace --release
#   6. test      cargo test -q --workspace
#   7. benchmark the repository benchmark package (its own workspace
#                under crates/bench/src/bin/benchmark): build + unit tests,
#                then its catalog workloads once each (served rankings
#                must equal serial ones; `--check` on the output)
#   8. sanitize  cargo test -q --features saccs-nn/sanitize
#   9. bench-obs table3 once, its BENCH_table3.json validated
#  10. perf      matmul microbench once, its BENCH_matmul.json validated
#  11. chaos     fault suite + serving suite, then the chaos bin twice
#  12. trace     request-tracing suite
#  13. probe     the probe bin twice
#  14. ingest    the ingest bin twice
#  15. query     the query bin twice
#  16. models    the table5, figure4_ablation and similarity_ablation
#                bins twice each, at a small scale
#
# Every bench bin runs through `bench`: each run in its own directory
# under target/ci/<bin>/, so no stage touches the working tree. With
# CI_PARENT set, `bench` also runs the bin built from that revision
# (a `git archive` under target/ci/parent/, its own target directory)
# and its exports must be byte-identical to this tree's first run (an
# export the parent does not write yet is reported and skipped); the
# parent's benchmark runs the same catalog workloads, and each
# workload's `check.rankings_digest` must equal this tree's. Each
# test suite runs once per feature set: `test` runs every suite with
# default features, `chaos` and `trace` the `fault` ones.

set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if [[ "${CI_OFFLINE:-0}" == "1" ]]; then
    OFFLINE=(--offline)
fi

PARENT=$PWD/target/ci/parent
if [[ -n "${CI_PARENT:-}" ]]; then
    rm -rf "$PARENT/src"
    mkdir -p "$PARENT/src"
    git archive "$CI_PARENT" | tar -x -C "$PARENT/src"
fi

stage() {
    printf '\n=== [%s] %s ===\n' "$1" "$2"
}

fail() {
    printf '\n*** CI FAILED at stage [%s] ***\n' "$1" >&2
    exit 1
}

xtask() {
    cargo run "${OFFLINE[@]}" -q -p xtask -- "$@"
}

# parent_diff <stage> <export> <parent dir>
#
# The parent build's copy of <export> must match byte for byte. An
# export the parent build does not write is new in this tree and has
# nothing to match.
parent_diff() {
    local parent=$3/${2##*/}
    if [[ -e "$parent" ]]; then
        diff "$2" "$parent" || fail "$1"
    else
        echo "${2##*/}: new in this tree, no parent export to diff"
    fi
}

# bench <stage> <bin> <runs> [cargo args...]
#
# Run a bench bin <runs> times (1 or 2), each in a fresh directory under
# target/ci/<bin>/ with its stdout in <run>.log there, the first under
# SACCS_OBS=json. Every export of the first run (`<BIN>_*.json[l]`, a
# pure function of the build) must be byte-identical in the second, a
# flight-recorder report (`*_obsreport.json`) must pass check-report,
# and the first run's BENCH_<bin>.json must pass check-bench. With
# CI_PARENT set, the bin built from that revision runs once more, in
# <dir>/parent, and every export must match the first run's byte for
# byte.
bench() {
    local stage=$1 bin=$2 runs=$3 dir=target/ci/$2 obs=json run export
    shift 3
    rm -rf "$dir"
    for ((run = 1; run <= runs; run++)); do
        mkdir -p "$dir/$run"
        (cd "$dir/$run" && SACCS_OBS=$obs cargo run "${OFFLINE[@]}" -q --release \
            -p saccs-bench --bin "$bin" "$@") >"$dir/$run.log" \
            || { cat "$dir/$run.log"; fail "$stage"; }
        obs=''
    done
    if [[ -n "${CI_PARENT:-}" ]]; then
        mkdir -p "$dir/parent"
        (cd "$dir/parent" && SACCS_OBS=json cargo run "${OFFLINE[@]}" -q --release \
            --manifest-path "$PARENT/src/Cargo.toml" --target-dir "$PARENT/target" \
            -p saccs-bench --bin "$bin" "$@") >"$dir/parent.log" \
            || { cat "$dir/parent.log"; fail "$stage"; }
    fi
    cat "$dir/1.log"
    for export in "$dir"/1/*.json*; do
        case "${export##*/}" in
            BENCH_*) continue ;;
            *_obsreport.json) xtask check-report "$export" || fail "$stage" ;;
        esac
        ((runs == 1)) || diff "$export" "$dir/2/${export##*/}" || fail "$stage"
        [[ -z "${CI_PARENT:-}" ]] || parent_diff "$stage" "$export" "$dir/parent"
    done
    xtask check-bench "$dir/1/BENCH_$bin.json" || fail "$stage"
}

# benchmark_runs <binary> <dir>
#
# The repository benchmark's catalog workloads, one run each (seed 1,
# one second, `--out <dir>`), each printing into <dir>/<workload>.txt
# beside the index store it writes there. Before it
# measures, a run serves 64 seeded requests, half of them filtered, and
# exits non-zero unless their score bits equal serial `rank_request`'s;
# `--check` then requires every declared metric in the output. Run from
# the repository root, where the benchmark reads BENCHMARK.json.
benchmark_runs() {
    local bin=$1 dir=$2 workload
    rm -rf "$dir"
    mkdir -p "$dir"
    for workload in catalog_read catalog_mixed; do
        "$bin" --workload "$workload" --seed 1 --seconds 1 --out "$dir" \
            >"$dir/$workload.txt" || { cat "$dir/$workload.txt"; fail benchmark; }
        "$bin" --check "$dir/$workload.txt" || fail benchmark
    done
}

# digest <benchmark output>: its check.rankings_digest value.
digest() {
    grep -o '"metric":"check.rankings_digest","value":"[0-9a-f]*"' "$1" | cut -d'"' -f8
}

if command -v rustfmt >/dev/null 2>&1; then
    stage fmt "cargo fmt --all -- --check"
    cargo fmt --all -- --check || fail fmt
else
    stage fmt "skipped: rustfmt not installed"
fi

if cargo clippy --version >/dev/null 2>&1; then
    stage clippy "cargo clippy --workspace --all-targets [--features fault] -- -D warnings"
    cargo clippy "${OFFLINE[@]}" --workspace --all-targets -- -D warnings || fail clippy
    cargo clippy "${OFFLINE[@]}" --workspace --all-targets --features fault -- -D warnings \
        || fail clippy
else
    stage clippy "skipped: clippy not installed"
fi

# One lint gate: every hygiene and determinism/concurrency pass, each
# enforced at zero unwaived violations.
stage lint "cargo run -p xtask -- check, every pass"
xtask check || fail lint

# Rustdoc gate: every intra-doc link resolves and no doc comment
# warns, so the rendered API docs cannot silently rot.
stage doc "cargo doc --no-deps --workspace, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc "${OFFLINE[@]}" --no-deps --workspace || fail doc

stage build "cargo build --workspace --release"
cargo build "${OFFLINE[@]}" --workspace --release || fail build

stage test "cargo test -q --workspace"
cargo test "${OFFLINE[@]}" -q --workspace || fail test

# The repository benchmark compiles against the crates' public API
# from its own workspace, so the workspace build above does not cover
# it. Its catalog workloads then run once each; with CI_PARENT set, the
# parent's benchmark (built from its archive with its own target
# directory) runs them too, and each workload's rankings digest must
# equal this tree's.
BENCHMARK=(--manifest-path crates/bench/src/bin/benchmark/Cargo.toml
    --target-dir target/ci/benchmark)
stage benchmark "cargo build + test --release, benchmark package, catalog workloads"
cargo build "${OFFLINE[@]}" --release "${BENCHMARK[@]}" || fail benchmark
cargo test "${OFFLINE[@]}" -q --release "${BENCHMARK[@]}" || fail benchmark
benchmark_runs target/ci/benchmark/release/benchmark target/ci/benchmark/run
if [[ -n "${CI_PARENT:-}" ]]; then
    cargo build "${OFFLINE[@]}" -q --release \
        --manifest-path "$PARENT/src/crates/bench/src/bin/benchmark/Cargo.toml" \
        --target-dir "$PARENT/benchmark" || fail benchmark
    benchmark_runs "$PARENT/benchmark/release/benchmark" target/ci/benchmark/parent
    for workload in catalog_read catalog_mixed; do
        here=$(digest "target/ci/benchmark/run/$workload.txt") || fail benchmark
        there=$(digest "target/ci/benchmark/parent/$workload.txt") || fail benchmark
        echo "$workload check.rankings_digest: $here (parent $there)"
        [[ -n "$here" && "$here" == "$there" ]] || fail benchmark
    done
fi

stage sanitize "cargo test -q --features saccs-nn/sanitize"
cargo test "${OFFLINE[@]}" -q --features saccs-nn/sanitize || fail sanitize

# The cheapest bench bin under SACCS_OBS=json: its snapshot is
# validated (syntax + required keys).
stage bench-obs "table3 -> xtask check-bench"
bench bench-obs table3 1

# Kernel perf gate: the blocked matmul vs the seed's naive kernel,
# interleaved best-of-N (GFLOP/s, thread count and speedup land in the
# headline; nn.matmul span histograms in the snapshot).
stage perf "matmul -> xtask check-bench"
SACCS_THREADS="${SACCS_THREADS:-8}" bench perf matmul 1

# Chaos gate: the seeded fault suite and the concurrent-serving suite,
# then the chaos bin twice: its served pass must equal serial
# rank_request, and its served rankings, normalized recorder report and
# seeded fault replay must be byte-identical across the runs.
stage chaos "fault + serve suites, chaos bin x2"
cargo test "${OFFLINE[@]}" -q --features fault --test chaos || fail chaos
cargo test "${OFFLINE[@]}" -q --features fault --test serve || fail chaos
bench chaos chaos 2 --features fault

# Tracing gate: every trace carries all five Algorithm-1 stages with
# queue wait attributed separately, fault events land in the owning
# request's trace, and rankings are bitwise identical with the recorder
# on and off.
stage trace "cargo test --features fault --test trace"
cargo test "${OFFLINE[@]}" -q --features fault --test trace || fail trace

# Probe gate: the probe bin twice on a reduced corpus (the 100k
# acceptance run is a manual `SACCS_PROBE_TAGS=100000` invocation).
stage probe "probe bin x2"
SACCS_PROBE_TAGS=20000 bench probe probe 2

# Ingest gate: the ingest bin twice.
stage ingest "ingest bin x2"
bench ingest ingest 2

# Query gate: the query bin twice.
stage query "query bin x2"
bench query query 2

# Models gate: the tagger's evaluation and FGSM losses (figure4_ablation),
# the pairing fit's labeling functions, label models and classifier
# (table5), twice each at 1% of the paper's data and 2 epochs, and the
# conceptual-vs-embedding rankings (similarity_ablation: the one index
# that scores through a custom similarity) twice at 1%.
stage models "table5 + figure4_ablation + similarity_ablation bins x2"
SACCS_SCALE=0.01 SACCS_EPOCHS=2 bench models table5 2
SACCS_SCALE=0.01 SACCS_EPOCHS=2 bench models figure4_ablation 2
SACCS_SCALE=0.01 bench models similarity_ablation 2

printf '\n=== CI green: all stages passed ===\n'
