#!/bin/sh
# Metrics-export determinism check, run from CTest (see tools/CMakeLists.txt).
#
# The acceptance property behind `--metrics-out`: the same workload run
# with `--jobs 1` and `--jobs 8` must write byte-identical metrics files
# (JSON and Prometheus) and byte-identical stdout.  Per-VP registries are
# single-writer shards merged in spec order, so the job count must never
# leak into the exported bytes.  Also exercises the suffix dispatch to the
# Prometheus writer.
#
# usage: check_metrics.sh <afixp_binary>
set -u

afixp=${1:?usage: check_metrics.sh <afixp_binary>}
[ -x "$afixp" ] || { echo "check_metrics: cannot execute $afixp" >&2; exit 1; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# A deliberately coarse cadence keeps this CI-sized (~seconds per run).
opts="--fast --round-minutes 240"

run() {
    jobs=$1
    out=$2
    # shellcheck disable=SC2086  # opts is a deliberate word list
    if ! "$afixp" tables $opts --jobs "$jobs" --metrics-out "$out" \
            > "$tmp/stdout.$jobs" 2> /dev/null; then
        echo "check_metrics: 'afixp tables --jobs $jobs' exited non-zero" >&2
        exit 1
    fi
    [ -s "$out" ] || { echo "check_metrics: $out is empty" >&2; exit 1; }
}

run 1 "$tmp/m1.json"
run 8 "$tmp/m8.json"

if ! cmp -s "$tmp/m1.json" "$tmp/m8.json"; then
    echo "check_metrics: metrics JSON differs between --jobs 1 and --jobs 8" >&2
    diff "$tmp/m1.json" "$tmp/m8.json" | head -20 >&2
    exit 1
fi
if ! cmp -s "$tmp/stdout.1" "$tmp/stdout.8"; then
    echo "check_metrics: stdout differs between --jobs 1 and --jobs 8" >&2
    diff "$tmp/stdout.1" "$tmp/stdout.8" | head -20 >&2
    exit 1
fi
grep -q '"schema": "afixp-obs/1"' "$tmp/m1.json" ||
    { echo "check_metrics: m1.json lacks the afixp-obs/1 schema tag" >&2; exit 1; }

# --- Prometheus suffix dispatch -------------------------------------------
# shellcheck disable=SC2086
if ! "$afixp" tables $opts --jobs 2 --metrics-out "$tmp/m.prom" \
        > /dev/null 2> /dev/null; then
    echo "check_metrics: --metrics-out m.prom run exited non-zero" >&2
    exit 1
fi
[ -s "$tmp/m.prom" ] ||
    { echo "check_metrics: --metrics-out did not produce $tmp/m.prom" >&2; exit 1; }
grep -q '^# TYPE afixp_campaign_probes_sent_total counter' "$tmp/m.prom" ||
    { echo "check_metrics: m.prom lacks the probes-sent TYPE line" >&2; exit 1; }

echo "check_metrics: OK (JSON and stdout byte-identical across job counts)"
