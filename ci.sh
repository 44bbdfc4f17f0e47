#!/usr/bin/env bash
# CI entry point. The GitHub workflow (.github/workflows/ci.yml) invokes
# this script one step at a time, so running it locally reproduces CI
# exactly:
#
#   ./ci.sh            # every step, in workflow order
#   ./ci.sh build      # one step (build|test|pool_stress|bracket_exhaustive|ledger|clippy|...)
#
# The workflow fans the gate steps (the GATES list below) out as a
# parallel matrix job; `all` runs the same steps serially in workflow
# order.
#
# Everything runs offline: the workspace path-maps all external
# dependencies to vendored shim crates, so no registry access is needed.
#
# Two knobs, both environment variables:
#   CI_NIGHTLY     non-empty: every gate runs with `--nightly` — the
#                  reference depth (zoo 8 'auto'-vs-explicit bitwise
#                  steps, cases sweep at scales 0.05/0.1/0.2) instead of
#                  PR depth
#                  (4 steps, scale 0.05 only) — and the committed-report
#                  byte check is skipped. The two sets live in one
#                  place, `wrf_gate::Depth`; ci.yml sets this on the
#                  nightly schedule event only. The pool stress tests
#                  read it too (300 scheme steps instead of 24, plus the
#                  lane-batch shuffle fuzz; 48 model steps instead of 8;
#                  40 clear-air scheme steps instead of 4),
#                  and the exhaustive bracket
#                  sweep runs only under it.
#   CI_DRIFT_BASE  diff base ref of the drift guards (default origin/$GITHUB_BASE_REF)
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true
export CARGO_TERM_COLOR="${CARGO_TERM_COLOR:-always}"

step_build() {
    cargo build --release --workspace
}

# Non-test lines of one crate: every `*.rs` under its src/ up to the
# file's `#[cfg(test)] mod tests` line; files a `#[cfg(test)] mod name;`
# declares, and tests/ directories, are left out.
non_test_lines() {
    find "$1/src" -name '*.rs' -exec awk '
        FNR == 1 { p = 0; skip = 0 }
        skip { next }
        p && /^mod tests/ { n[FILENAME]--; skip = 1; next }
        p && /^mod [a-z_0-9]+;/ {
            d = FILENAME; sub(/[^\/]*$/, "", d)
            m = $2; sub(/;.*/, "", m)
            gated[d m ".rs"] = 1
        }
        { p = /^#\[cfg\(test\)\]/; n[FILENAME]++ }
        END { for (f in n) if (!(f in gated)) c += n[f]; print c + 0 }' {} +
}

# `*.rs` lines per crate under crates/, with their non-test lines in
# parentheses, and the totals, on one line — reported, never gated:
# "least code" should be as visible in every change as the test count.
code_size() {
    local dir n t total=0 tests_out=0 out=""
    for dir in crates/*/; do
        n=$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)
        t=$(non_test_lines "$dir")
        total=$((total + n))
        tests_out=$((tests_out + t))
        out+="$(basename "$dir") $n ($t), "
    done
    printf '%stotal %s (%s non-test)\n' "$out" "$total" "$tests_out"
}

# `cargo test -q` at the root runs the whole workspace (the root
# manifest's default-members). The summed pass/fail counts land in the
# job summary, so a shrink of coverage back to the root package's 34
# tests is visible next to the timing table; the code-size row follows
# them.
step_test() {
    local log rc=0 passed failed size
    log=$(mktemp)
    cargo test -q 2>&1 | tee "$log" || rc=$?
    read -r passed failed < <(awk '/test result:/ {
            for (i = 2; i <= NF; i++) {
                if ($i == "passed;") p += $(i - 1)
                if ($i == "failed;") f += $(i - 1)
            }
        } END { printf "%d %d\n", p, f }' "$log")
    rm -f "$log"
    size=$(code_size)
    echo "==> ci.sh: test totals: $passed passed, $failed failed"
    echo "==> ci.sh: code size (*.rs lines, non-test in parentheses): $size"
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        summary_header
        printf '| test totals | %s passed, %s failed |\n' "$passed" "$failed" >> "$GITHUB_STEP_SUMMARY"
        printf '| code size (*.rs lines, non-test in parentheses) | %s |\n' "$size" >> "$GITHUB_STEP_SUMMARY"
    fi
    return "$rc"
}

# Launches on one persistent pool, back to back: 24 scheme steps (300
# under CI_NIGHTLY) at 2 and 3 workers, every step's digest compared with
# the one-worker run — five launches a step in the production
# configuration and in a tiled CPU version (three collision tiles between
# the same sweeps), then the static-tiles offloaded step's one collision
# launch of contiguous blocks. Release build, where a worker that
# wakes late for an epoch has the narrowest window to cross into the
# next one. Under CI_NIGHTLY the same run also takes the ignored
# `batch_shuffle_fuzz` (200 random memberships of both lane-batch lists,
# collision and condensation, three steps each, against the coherent
# batches: bits and statistics). Then two job shapes on one pool every
# step — the model's dynamics dispatch, then the scheme's five launches
# — for 8 model steps (48 under CI_NIGHTLY) at 2 and 3 workers against
# one; and the ledger's mostly clear sparse state for 4 scheme steps (40
# under CI_NIGHTLY) at 2 and 3 workers in lockstep with one, whole step
# statistics and state bits. Each run must report its passed count
# (release_tests_pass), so a rename cannot turn a filter into a green
# no-op.
step_pool_stress() {
    local filters="pool_stress_every_step_matches_one_worker" passed=1
    if [ -n "${CI_NIGHTLY:-}" ]; then
        filters+=" batch_shuffle_fuzz --include-ignored"
        passed=2
    fi
    # shellcheck disable=SC2086 # the filters are a word list on purpose
    release_tests_pass "$passed" -p fsbm-core --lib -- $filters &&
        release_tests_pass 2 -p miniwrf --lib -- pooled_dynamics_every_step_matches_one_worker \
            pool_stress_clear_air_matches_one_worker
}

# Runs `cargo test --release` with arguments $2... and fails unless its
# summary reads "ok. $1 passed". The output is printed and kept in a
# temporary file, which the grep reads: piping through `tee /dev/stderr`
# would reopen a redirected log with truncation and lose what came
# before.
release_tests_pass() {
    local want="$1" out rc=0
    shift
    out=$(mktemp)
    cargo test --release "$@" 2>&1 | tee "$out" || rc=$?
    grep -q "^test result: ok. $want passed" "$out" || rc=1
    rm -f "$out"
    return "$rc"
}

# The panel deposit reads its bin bracket from the float's exponent; the
# scalar searches for it with log2. Nightly only (seconds in release, a
# skip otherwise): every f32 between the grid's ends — 2^23 values an
# octave, 32 octaves — must give the same split both ways. Same passed
# count guard as the pool stress test.
step_bracket_exhaustive() {
    if [ -z "${CI_NIGHTLY:-}" ]; then
        echo "==> ci.sh: bracket_exhaustive: nightly only (set CI_NIGHTLY); skipping"
        return 0
    fi
    release_tests_pass 1 -p fsbm-core --lib -- --ignored bracket_exhaustive
}

# The benchmark harness is a package of its own (own workspace and
# lockfile) that path-depends on seven of these crates and calls them by
# name and signature. Building and testing it here turns a signature
# change into a red check rather than a broken benchmark run. It builds
# into benchmark/target (git-ignored) and edits nothing under benchmark/.
step_ledger() {
    cargo test --offline --manifest-path benchmark/Cargo.toml
}

# Every crate root says `#![warn(missing_docs)]`, so `-D warnings` makes
# an undocumented public item a failure here too: documentation coverage
# is part of this step for the whole workspace.
step_clippy() {
    cargo clippy --all-targets --workspace -- -D warnings \
        -D clippy::undocumented_unsafe_blocks
}

step_fmt() {
    cargo fmt --all --check
}

# This script is itself CI surface: lint it. Required on CI runners
# (shellcheck ships with the GitHub images); skipped with a warning on
# dev machines that don't have the binary.
step_shellcheck() {
    if ! command -v shellcheck >/dev/null 2>&1; then
        if [ "${CI:-}" = "true" ]; then
            echo "==> ci.sh: shellcheck is required on CI but not installed" >&2
            return 1
        fi
        echo "==> ci.sh: shellcheck not installed locally; skipping (required on CI)" >&2
        return 0
    fi
    shellcheck ci.sh
}

# The eight repro gates, one row each:
#   ci step ; repro arguments ; report file ; summary section
# `repro help` describes what each gate enforces. Every gate prints its
# report, writes it to the report file (the same JSON envelope for all
# eight), and exits nonzero on a violation. A committed report must come
# out byte-identical (report_drift), the way goldens/ must. The last
# field names the gate's headline table — the report section with that
# title lands in the job summary, so a green job explains itself as a
# red one does (summary_violations). Adding a gate is one row here, one
# row in the registry of crates/gate/src/bin/repro.rs, and one line in
# the ci.yml matrix — crates/gate/tests/cli.rs holds the three equal.
GATES=(
    "bench-exec;bench-exec;BENCH_executor.json;speedup work-stealing+compaction vs static tiles"
    "comm;comm;BENCH_comm.json;overlap bench: blocking comm vs overlapped exposed comm"
    "fault;fault;BENCH_fault.json;kill a rank mid-run, recover from the newest checkpoint set"
    "share;share;BENCH_share.json;memory-capped admission"
    "ensemble;ensemble;BENCH_ensemble.json;memory-capped packing"
    "zoo;zoo;BENCH_zoo.json;Table V version times per backend"
    "cases;cases;BENCH_cases.json;per-case digest table"
    "paper;paper;BENCH_paper.json;checks"
)

# Prints the GATES row of ci step $1 (nonzero when there is none).
gate_row() {
    local row
    for row in "${GATES[@]}"; do
        if [ "${row%%;*}" = "$1" ]; then
            printf '%s\n' "$row"
            return 0
        fi
    done
    return 1
}

# Fails when report file $1 is modified or newly created: every gate is
# a function of the tree, so a committed report that a run changed means
# the tree changed what it records — regenerate it and commit the diff.
# The diff goes to the log and, with its stat, to the job summary.
report_drift() {
    local status
    status=$(git status --porcelain -- "$1")
    [ -n "$status" ] || return 0
    echo "==> ci.sh: $1 differs from the committed copy ($status):" >&2
    git --no-pager diff -- "$1" >&2
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        {
            printf '\n### %s drifted\n\n```\n%s\n' "$1" "$status"
            git diff --stat -- "$1"
            git diff -- "$1" | sed -n '1,40p'
            printf '```\n'
        } >>"$GITHUB_STEP_SUMMARY"
    fi
    return 1
}

# Runs the gate of GATES row $1 and appends its summary material. At PR
# depth the gate must also leave its report file as committed; under
# CI_NIGHTLY the deeper arms write a report that is not the committed
# one, so the byte check is skipped.
run_gate() {
    local name args file title out rc=0
    IFS=';' read -r name args file title <<<"$1"
    out=$(mktemp)
    # shellcheck disable=SC2086 # the arguments are a word list on purpose
    cargo run --release -q -p wrf-gate --bin repro -- $args ${CI_NIGHTLY:+--nightly} |
        tee "$out" || rc=$?
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ] && [ -n "$title" ]; then
        {
            printf '\n### %s gate\n\n```\n' "$name"
            sed -n "/^=== repro [a-z-]*: $title/,/^\$/p" "$out"
            printf '```\n'
        } >>"$GITHUB_STEP_SUMMARY"
    fi
    rm -f "$out"
    if [ -z "${CI_NIGHTLY:-}" ] && ! report_drift "$file" && [ "$rc" -eq 0 ]; then
        rc=1
    fi
    return "$rc"
}

# The drift guards: some paths change only in a commit that says so.
#   drift_guard <name> <marker> <log format> <hint> <path>...
# Diffs the current HEAD against the PR base (or CI_DRIFT_BASE locally)
# and fails when any <path> changed without a commit in the range whose
# <log format> text (%B body, %s subject) carries <marker>. Skips
# quietly when no base ref is available (pushes to main, shallow local
# clones).
drift_guard() {
    local name="$1" marker="$2" format="$3" hint="$4"
    shift 4
    local base="${CI_DRIFT_BASE:-}"
    if [ -z "$base" ] && [ -n "${GITHUB_BASE_REF:-}" ]; then
        base="origin/${GITHUB_BASE_REF}"
    fi
    if [ -z "$base" ]; then
        echo "==> ci.sh: $name: no base ref (set CI_DRIFT_BASE); skipping"
        return 0
    fi
    if ! git rev-parse --verify --quiet "$base" >/dev/null; then
        echo "==> ci.sh: $name: base ref $base not found; skipping"
        return 0
    fi
    local changed
    changed=$(git diff --name-only "$base"...HEAD -- "$@") || return 1
    if [ -z "$changed" ]; then
        echo "==> ci.sh: $name: $* untouched vs $base"
        return 0
    fi
    if git log --format="$format" "$base"..HEAD | grep -qF -- "$marker"; then
        echo "==> ci.sh: $name: $* changed with a '$marker' commit recorded:"
        printf '%s\n' "$changed"
        return 0
    fi
    echo "==> ci.sh: $name: $* changed without any '$marker' commit in range $base..HEAD:" >&2
    printf '%s\n' "$changed" >&2
    echo "==> $hint" >&2
    return 1
}

# A change under goldens/ is only legitimate when it was produced by a
# deliberate re-bless, and the committed convention is that such commits
# say so (`--bless` in the message body).
step_golden_drift() {
    drift_guard golden-drift --bless %B \
        "re-bless deliberately (repro cases --bless) and say so in the commit body" \
        goldens/
}

# The benchmark is the instrument every performance claim is read from:
# benchmark/** and BENCHMARK.json change only in a benchmark-owning PR,
# whose commit subject carries `[benchmark]` — a change that claims a
# gain must not also move the ruler.
step_benchmark_drift() {
    drift_guard benchmark-drift '[benchmark]' %s \
        "benchmark/ and BENCHMARK.json change only in a benchmark-owning PR: put [benchmark] in that commit's subject" \
        benchmark/ BENCHMARK.json
}

# Gates do not read clocks; the ledger does. What `repro` emits or
# enforces is a function of the source tree, so the harness crate may not
# name a clock type or one of the program's wall-clock fields (the ledger
# under benchmark/ reads those).
step_clock_free() {
    if grep -rnE 'Instant|SystemTime|Stopwatch|coal_wall|wall_dynamics|wall_sbm|recovery_wall_secs' \
        crates/gate/src; then
        echo "==> ci.sh: clock_free: a gate reads a wall clock (lines above); measure it in benchmark/ instead" >&2
        return 1
    fi
}

CHECKS=(build test pool_stress bracket_exhaustive ledger clippy fmt shellcheck clock_free golden_drift benchmark_drift)

# Every step name, in workflow order: the checks, then the gates.
step_names() {
    printf '%s\n' "${CHECKS[@]}" "${GATES[@]%%;*}"
}

usage() {
    echo "usage: ./ci.sh [$(step_names | tr '\n' '|')all]" >&2
    exit 2
}

# Appends the timing-table header to the job summary unless some
# earlier step in this job already wrote it. Matching on content (not
# file emptiness) matters: steps are free to append their own summary
# material — run_gate does — and each parallel matrix job owns a fresh
# summary file that still needs its own header.
summary_header() {
    if ! grep -q '^| step | wall clock |$' "$GITHUB_STEP_SUMMARY" 2>/dev/null; then
        printf '| step | wall clock |\n| --- | --- |\n' >> "$GITHUB_STEP_SUMMARY"
    fi
}

# Renders the violations array of report file $1 (one string per line in
# the shared envelope) as a markdown table in the job summary, so a red
# gate job explains itself without log spelunking.
summary_violations() {
    [ -f "$1" ] || return 0
    local rows
    rows=$(sed -n '/^  "violations": \[$/,/^  \]/s/^    "\(.*\)",\{0,1\}$/\1/p' "$1" |
        sed -e 's/\\"/"/g' -e 's/|/\\|/g') || true
    [ -n "$rows" ] || return 0
    {
        printf '\n### %s violations\n\n| violation |\n| --- |\n' "$1"
        printf '%s\n' "$rows" | while IFS= read -r row; do
            printf '| %s |\n' "$row"
        done
    } >> "$GITHUB_STEP_SUMMARY"
}

# Runs one step, timing it. Each timing is echoed to the log and, when
# GitHub exposes $GITHUB_STEP_SUMMARY, appended as a markdown table row
# (the workflow invokes `./ci.sh <step>` once per job step, so the rows
# accumulate into one summary table per job). A failing gate step also
# renders its own report's violations into the summary before exiting.
run_step() {
    echo "==> ci.sh: $1"
    local t0 t1 dt rc=0 row
    row=$(gate_row "$1") || row=""
    t0=$(date +%s)
    if [ -n "$row" ]; then
        run_gate "$row" || rc=$?
    else
        "step_$1" || rc=$?
    fi
    t1=$(date +%s)
    dt=$((t1 - t0))
    if [ "$rc" -ne 0 ]; then
        echo "==> ci.sh: $1 FAILED after ${dt}s (exit $rc)"
        if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
            summary_header
            printf '| %s | %ss (FAILED) |\n' "$1" "$dt" >> "$GITHUB_STEP_SUMMARY"
            [ -z "$row" ] || summary_violations "$(cut -d';' -f3 <<<"$row")"
        fi
        exit "$rc"
    fi
    echo "==> ci.sh: $1 took ${dt}s"
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        summary_header
        printf '| %s | %ss |\n' "$1" "$dt" >> "$GITHUB_STEP_SUMMARY"
    fi
}

case "${1:-all}" in
    all)
        for s in $(step_names); do
            run_step "$s"
        done
        echo "==> ci.sh: all steps passed"
        ;;
    *)
        step_names | grep -qx -- "$1" || usage
        run_step "$1"
        ;;
esac
