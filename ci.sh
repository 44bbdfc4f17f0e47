#!/usr/bin/env bash
# CI entry point. The GitHub workflow (.github/workflows/ci.yml) invokes
# this script one step at a time, so running it locally reproduces CI
# exactly:
#
#   ./ci.sh            # every step, in workflow order
#   ./ci.sh build      # one step (build|test|clippy|docs|fmt|...)
#
# The workflow fans the gate steps out as a parallel matrix job; `all`
# runs the same steps serially in workflow order.
#
# Everything runs offline: the workspace path-maps all external
# dependencies to vendored shim crates, so no registry access is needed.
#
# Nightly runs tighten the wall-clock tolerances back to the reference
# floors via environment knobs (see the nightly job in ci.yml):
#   CI_HOST_REPEATS      bench-host repeats            (default 5)
#   CI_HOST_MIN_SPEEDUP  layout speedup floor          (default 2.0; reference 3.0)
#   CI_GATE_LOOSE_TOL    gate loose host tolerance     (default 0.8; reference 0.50)
#   CI_GATE_HOST_FACTOR  gate host wall factor         (default 10; reference 3.0)
#   CI_TUNE_CHECK_STEPS  tune bitwise-check steps      (default 4; nightly 8)
#   CI_CASES_SWEEP       cases activity-sweep depth    (default shallow; nightly deep)
#   CI_DRIFT_BASE        golden-drift diff base ref    (default origin/$GITHUB_BASE_REF)
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true
export CARGO_TERM_COLOR="${CARGO_TERM_COLOR:-always}"

step_build() {
    cargo build --release --workspace
}

# `cargo test -q` at the root runs the whole workspace (the root
# manifest's default-members). The summed pass/fail counts land in the
# job summary, so a shrink of coverage back to the root package's 34
# tests is visible next to the timing table.
step_test() {
    local log rc=0 passed failed
    log=$(mktemp)
    cargo test -q 2>&1 | tee "$log" || rc=$?
    read -r passed failed < <(awk '/test result:/ {
            for (i = 2; i <= NF; i++) {
                if ($i == "passed;") p += $(i - 1)
                if ($i == "failed;") f += $(i - 1)
            }
        } END { printf "%d %d\n", p, f }' "$log")
    rm -f "$log"
    echo "==> ci.sh: test totals: $passed passed, $failed failed"
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        summary_header
        printf '| test totals | %s passed, %s failed |\n' "$passed" "$failed" >> "$GITHUB_STEP_SUMMARY"
    fi
    return "$rc"
}

step_clippy() {
    cargo clippy --all-targets --workspace -- -D warnings
}

# Documentation coverage is part of the public-API contract for the
# scheme, executor, and profiler crates: warn-by-default in the source,
# promoted to deny here.
step_docs() {
    cargo clippy -q -p fsbm-core -p wrf-exec -p prof-sim -- \
        -D warnings -D missing-docs
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

# The reproduction gate: golden verification (every scheme version x
# scheduling mode x worker count vs the committed fixtures under
# goldens/) plus the perf-regression check vs BENCH_executor.json.
# Host wall-clock tolerances are loose — CI runners are noisy and slow —
# while the deterministic replay metrics stay tight; nightly runs
# restore the reference tolerances through the CI_GATE_* knobs. Writes
# gate_report.json either way; a nonzero exit means a real violation.
step_gate() {
    cargo run --release -q -p wrf-bench --bin repro -- gate \
        --loose-tol "${CI_GATE_LOOSE_TOL:-0.8}" \
        --host-factor "${CI_GATE_HOST_FACTOR:-10}"
}

# The host-layout perf gate: re-measures the AoS vs SoA coal-stage
# wall on the gate case and enforces the layout speedup floor plus
# digest equality against the committed BENCH_host.json (the digests
# must also be bitwise across layouts within the fresh run). The 3x
# floor holds on the reference host; CI runners differ in vector ISA
# and core count, so pushes/PRs loosen the floor the same way step_gate
# loosens host wall tolerances — digest checks stay exact — and the
# nightly job restores the reference floor with more repeats.
step_host() {
    cargo run --release -q -p wrf-bench --bin repro -- bench-host \
        --check --repeats "${CI_HOST_REPEATS:-5}" \
        --min-speedup "${CI_HOST_MIN_SPEEDUP:-2.0}"
    # Surface the committed reference speedups in the job summary next
    # to the step-timing table.
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ] && [ -f BENCH_host.json ]; then
        {
            printf '\ncommitted BENCH_host.json speedups (panel-soa vs point-aos): '
            grep -o '"speedup_panel_soa_vs_point_aos": {[^}]*}' BENCH_host.json
            printf '\n'
        } >> "$GITHUB_STEP_SUMMARY"
    fi
}

# The communication gate: the multi-rank gate case must produce
# bitwise-identical digests under blocking and overlapped halo
# exchanges for every scheme version, and the replayed α–β cost model
# must hide >= 50% of posted halo time behind interior tendencies at
# 16 ranks. Writes BENCH_comm.json (per-rank overlap stats) next to
# gate_report.json. Everything checked is deterministic modeled
# accounting — no wall-clock tolerances needed.
step_comm() {
    cargo run --release -q -p wrf-bench --bin repro -- comm
}

# The fault gate: for every scheme version x comm mode, kill a rank
# mid-run, let the supervisor relaunch from the newest complete
# checkpoint set, and require the recovered digests to match an
# uninterrupted golden run bit for bit. Writes BENCH_fault.json.
# The failure-detection timeout is wall-clock, but only bounds how long
# survivors wait before reporting the scripted kill — recovery
# correctness itself is deterministic.
step_fault() {
    cargo run --release -q -p wrf-bench --bin repro -- fault
}

# The shared-GPU gate: shared-pool runs must be bitwise identical to
# exclusive-device runs for every scheme version (sharing changes
# timing, never arithmetic), the memory-capped admission scenarios of
# §VII-A must hold (5 contexts per 80 GB device; the 6th is a typed
# DeviceError), and the replayed Table VII sweep must reproduce the
# paper's shape: GPU time improves 16 -> 32 -> 64 ranks while the
# speedup over the CPU decays, with the 2-node equal-resource crossover.
# Writes BENCH_share.json. Deterministic replay accounting throughout.
step_share() {
    cargo run --release -q -p wrf-bench --bin repro -- share
}

# The ensemble-service gate: every member of a served ensemble must be
# bitwise identical to its solo run for all four scheme versions, a
# member killed mid-run must retry through the restart supervisor and
# still converge, packing must respect the full-scale per-device member
# cap, and the batched service must beat both N sequential solo runs
# and the unbatched replay on modeled members/hour. Writes
# BENCH_ensemble.json (members/hour, admission-wait percentiles,
# per-device occupancy, cache-share hit rates). Deterministic replay
# accounting throughout.
step_ensemble() {
    cargo run --release -q -p wrf-bench --bin repro -- ensemble
}

# The device-zoo gate: every backend of the device zoo (two A100
# capacities, a V100 class, a self-hosted CPU class, an MI-class HBM
# device) prices the same functional workload through its own perf
# plane. Absolute times must genuinely differ per backend while the
# v1 -> v4 version ranking, the Table VII decay shape (over the arms
# that clear each backend's memory wall), and capacity-tracking
# ensemble packing hold on all of them. Writes BENCH_zoo.json and
# appends the per-backend ranking table to the job summary.
# Deterministic modeled accounting throughout.
step_zoo() {
    cargo run --release -q -p wrf-bench --bin repro -- zoo | tee /tmp/repro_zoo.out
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ] && [ -f /tmp/repro_zoo.out ]; then
        {
            printf '
### device zoo: per-backend ranking

```
'
            sed -n '/Table V version times per backend/,/^$/p' /tmp/repro_zoo.out
            grep '^zoo: backend=' /tmp/repro_zoo.out || true
            printf '```
'
        } >> "$GITHUB_STEP_SUMMARY"
    fi
}

# The schedule-autotuner gate: `codee_sim::tune` enumerates every
# licensed schedule of the collision nest (loop orders, collapse
# depths, storage transposition, fission points), prices each through
# the backend's perf plane, and the paper's hand-derived kernels must
# fall out as storage-family winners on every zoo backend: the v2
# geometry (collapse(2), 168 regs, 20 KiB automatics) as the stack
# winner and the v3 geometry (collapse(3), 80 regs, 640 B slab) as the
# slab winner, with the slab family beating stack everywhere. The
# namelist's `schedule = 'auto'` must be bitwise identical to the
# explicit winning version, the family ranking must be identical across
# all five backends, and the committed BENCH_tune.json winners are
# replay-gated. Appends the per-backend winner table to the job
# summary. Deterministic modeled accounting throughout.
step_tune() {
    cargo run --release -q -p wrf-bench --bin repro -- tune \
        --check-steps "${CI_TUNE_CHECK_STEPS:-4}" | tee /tmp/repro_tune.out
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ] && [ -f /tmp/repro_tune.out ]; then
        {
            printf '
### schedule autotuner: per-backend winners

```
'
            sed -n '/storage-family winners per backend/,/^$/p' /tmp/repro_tune.out
            grep '^tune: backend=' /tmp/repro_tune.out || true
            printf '```
'
        } >> "$GITHUB_STEP_SUMMARY"
    fi
}

# The case-library gate: every idealized case (squall line, supercell,
# orographic precipitation, maritime shallow convection, plus the legacy
# CONUS default) must digest bitwise-identically across all four scheme
# versions x both schedulers x both memory layouts and match its
# committed goldens/case_<slug>.golden fixture; blocking and overlapped
# halo exchange must agree on a 2-rank decomposition; per-case activity
# fractions must land in their pinned disjoint bands; and the one-way
# nested configuration must be bitwise-reproducible across the same
# matrix with its child within the documented interior digit floor of a
# solo fine-grid run. PRs run the shallow activity sweep; the nightly
# job deepens it with CI_CASES_SWEEP=deep. Writes BENCH_cases.json and
# appends the per-case digest table to the job summary. Deterministic
# end to end — no wall-clock tolerances.
step_cases() {
    cargo run --release -q -p wrf-bench --bin repro -- cases \
        --sweep "${CI_CASES_SWEEP:-shallow}" | tee /tmp/repro_cases.out
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ] && [ -f /tmp/repro_cases.out ]; then
        {
            printf '
### case library: per-case digests and nesting

```
'
            sed -n '/per-case digest table/,/^$/p' /tmp/repro_cases.out
            grep -E '^(case|nest|sweep): ' /tmp/repro_cases.out || true
            printf '```
'
        } >> "$GITHUB_STEP_SUMMARY"
    fi
}

# The golden-drift guard: a change under goldens/ is only legitimate
# when it was produced by a deliberate re-bless, and the committed
# convention is that such commits say so (`--bless` in the message
# body). Diffs the current HEAD against the PR base (or CI_DRIFT_BASE
# locally) and fails when goldens/ changed without any commit in the
# range mentioning --bless. Skips quietly when no base ref is available
# (pushes to main, shallow local clones).
step_golden_drift() {
    local base="${CI_DRIFT_BASE:-}"
    if [ -z "$base" ] && [ -n "${GITHUB_BASE_REF:-}" ]; then
        base="origin/${GITHUB_BASE_REF}"
    fi
    if [ -z "$base" ]; then
        echo "==> ci.sh: golden-drift: no base ref (set CI_DRIFT_BASE); skipping"
        return 0
    fi
    if ! git rev-parse --verify --quiet "$base" >/dev/null; then
        echo "==> ci.sh: golden-drift: base ref $base not found; skipping"
        return 0
    fi
    local changed
    changed=$(git diff --name-only "$base"...HEAD -- goldens/) || return 1
    if [ -z "$changed" ]; then
        echo "==> ci.sh: golden-drift: goldens/ untouched vs $base"
        return 0
    fi
    if git log --format=%B "$base"..HEAD | grep -q -- '--bless'; then
        echo "==> ci.sh: golden-drift: goldens/ changed with a --bless commit recorded:"
        printf '%s\n' "$changed"
        return 0
    fi
    echo "==> ci.sh: golden-drift: goldens/ changed without any '--bless' commit in range $base..HEAD:" >&2
    printf '%s\n' "$changed" >&2
    echo "==> re-bless deliberately (repro gate --bless / repro cases --bless) and say so in the commit body" >&2
    return 1
}

usage() {
    echo "usage: ./ci.sh [build|test|clippy|docs|fmt|shellcheck|gate|host|comm|fault|share|ensemble|zoo|tune|cases|golden_drift|all]" >&2
    exit 2
}

# Appends the timing-table header to the job summary unless some
# earlier step in this job already wrote it. Matching on content (not
# file emptiness) matters: steps are free to append their own summary
# material — step_host does — and each parallel matrix job owns a fresh
# summary file that still needs its own header.
summary_header() {
    if ! grep -q '^| step | wall clock |$' "$GITHUB_STEP_SUMMARY" 2>/dev/null; then
        printf '| step | wall clock |\n| --- | --- |\n' >> "$GITHUB_STEP_SUMMARY"
    fi
}

# Renders the violations array of gate_report.json as a markdown table
# in the job summary, so a red gate job explains itself without log
# spelunking.
summary_violations() {
    [ -f gate_report.json ] || return 0
    local rows
    rows=$(sed -n '/"violations": \[/,/^  \]/p' gate_report.json |
        grep -o '"[^"]*"' | sed -e 's/^"//' -e 's/"$//' -e '/^violations$/d') || true
    [ -n "$rows" ] || return 0
    {
        printf '\n### gate violations\n\n| violation |\n| --- |\n'
        printf '%s\n' "$rows" | while IFS= read -r row; do
            printf '| %s |\n' "$row"
        done
    } >> "$GITHUB_STEP_SUMMARY"
}

# Runs one step, timing it. Each timing is echoed to the log and, when
# GitHub exposes $GITHUB_STEP_SUMMARY, appended as a markdown table row
# (the workflow invokes `./ci.sh <step>` once per job step, so the rows
# accumulate into one summary table per job). A failing gate step also
# renders its report violations into the summary before exiting.
run_step() {
    echo "==> ci.sh: $1"
    local t0 t1 dt rc
    t0=$(date +%s)
    rc=0
    "step_$1" || rc=$?
    t1=$(date +%s)
    dt=$((t1 - t0))
    if [ "$rc" -ne 0 ]; then
        echo "==> ci.sh: $1 FAILED after ${dt}s (exit $rc)"
        if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
            summary_header
            printf '| %s | %ss (FAILED) |\n' "$1" "$dt" >> "$GITHUB_STEP_SUMMARY"
            summary_violations
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
    build|test|clippy|docs|fmt|shellcheck|gate|host|comm|fault|share|ensemble|zoo|tune|cases|golden_drift) run_step "$1" ;;
    all)
        for s in build test clippy docs fmt shellcheck golden_drift gate host comm fault share ensemble zoo tune cases; do
            run_step "$s"
        done
        echo "==> ci.sh: all steps passed"
        ;;
    *) usage ;;
esac
