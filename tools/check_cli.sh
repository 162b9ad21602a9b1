#!/bin/sh
# CLI dispatch lint, run from CTest (see tools/CMakeLists.txt).
#
# The afixp front door must hold six properties: the top-level usage text
# enumerates every subcommand (the dispatch table is the single source, so
# a new subcommand cannot be reachable-but-undocumented), unknown or
# missing subcommands exit non-zero with usage on stderr, every subcommand
# answers --help with exit 0, retired subcommands and flags stay gone,
# bad flag values are usage errors (exit 2) before any work starts, and
# flags are the only run configuration (no environment defaults).  The
# benches that take no flags still parse their argv: a stray argument is a
# usage error and --help answers without running the bench.  Finally, a
# capture written by `afixp campaign --out` reads back through
# `afixp analyze` with every monitored link.
#
# usage: check_cli.sh <afixp_binary> <bench_fig1_binary> <bench_table1_binary>
#                     <bench_serve_binary> <bench_substrate_binary>
set -u

usage="usage: check_cli.sh <afixp_binary> <bench_fig1_binary> <bench_table1_binary> <bench_serve_binary> <bench_substrate_binary>"
afixp=${1:?$usage}
bench_fig1=${2:?$usage}
bench_table1=${3:?$usage}
bench_serve=${4:?$usage}
bench_substrate=${5:?$usage}
for b in "$afixp" "$bench_fig1" "$bench_table1" "$bench_serve" "$bench_substrate"; do
    [ -x "$b" ] || { echo "check_cli: cannot execute $b" >&2; exit 1; }
done

errors=0
err() {
    echo "check_cli: $*" >&2
    errors=$((errors + 1))
}

subcommands="campaign analyze tables casebook selftest chaos gen serve"

# --- 1. `afixp help` exits 0 and lists every subcommand -------------------
help_out=$("$afixp" help 2>&1)
[ $? -eq 0 ] || err "'afixp help' exited non-zero"
for c in $subcommands; do
    echo "$help_out" | grep -qE "^  $c " ||
        err "'afixp help' does not list subcommand '$c'"
done
for alias in --help -h; do
    "$afixp" "$alias" > /dev/null 2>&1 || err "'afixp $alias' exited non-zero"
done

# --- 2. Bare and unknown invocations fail loudly --------------------------
"$afixp" > /dev/null 2>&1 && err "bare 'afixp' exited zero"
bare_err=$("$afixp" 2>&1 >/dev/null)
echo "$bare_err" | grep -q "usage:" || err "bare 'afixp' prints no usage on stderr"

"$afixp" frobnicate > /dev/null 2>&1 && err "'afixp frobnicate' exited zero"
unk_err=$("$afixp" frobnicate 2>&1 >/dev/null)
echo "$unk_err" | grep -q "unknown command" ||
    err "'afixp frobnicate' does not report an unknown command"
echo "$unk_err" | grep -q "usage:" ||
    err "'afixp frobnicate' prints no usage on stderr"

# --- 3. Every subcommand answers --help with exit 0 -----------------------
for c in $subcommands; do
    "$afixp" "$c" --help > /dev/null 2>&1 ||
        err "'afixp $c --help' exited non-zero"
done

# --- 4. Retired subcommands and flags are gone ----------------------------
# `afixp bench` duplicated bench/bench_probe, which is now the only probe
# harness entry point; `gen --bench/--out` likewise duplicated
# bench/bench_substrate.  `serve --columnar` picked a result shape the
# daemon never reads (serving always runs columnar).  A retired flag is
# an unknown flag: a usage error, exit 2.
"$afixp" bench > /dev/null 2>&1 && err "retired 'afixp bench' exited zero"
retired_flag() {
    "$afixp" "$@" > /dev/null 2>&1
    rc=$?
    [ "$rc" -eq 2 ] || err "retired 'afixp $*' exited $rc, expected 2"
}
retired_flag gen --bench
retired_flag gen --out x.json
retired_flag serve --columnar

# --- 5. Usage errors exit 2 ------------------------------------------------
# A cadence below one minute is rejected by name: 0 would divide by zero
# in the campaign, a negative value would run no rounds at all.  serve's
# port, pass count and worker count are range-checked before any work: a
# narrowing cast would turn --port 70000 into another port and --rounds -1
# into "serve forever".
usage_error() {
    out=$("$afixp" "$@" 2>&1 >/dev/null)
    rc=$?
    [ "$rc" -eq 2 ] || err "'afixp $*' exited $rc, expected 2"
}
names_flag() {
    echo "$out" | grep -q -- "$1" || err "'afixp $2' does not name the flag $1"
}
for m in 0 -5; do
    usage_error campaign --vp 1 --days 2 --round-minutes "$m"
    names_flag --round-minutes "campaign --round-minutes $m"
done
for p in 70000 -1; do
    usage_error serve --port "$p"
    names_flag --port "serve --port $p"
done
usage_error serve --rounds -1
names_flag --rounds "serve --rounds -1"
usage_error serve --http-threads 0
names_flag --http-threads "serve --http-threads 0"

# Thread counts are range-checked before they are narrowed to int and
# before any thread starts: --jobs takes 0 (auto) or 1..256, the
# per-thread flags 1..256.  2^32 + 2 used to narrow to 2 and a negative
# --jobs silently meant "auto"; both exited 0.  Only values that start no
# more threads than a default run are passed to commands that would run:
# 257 goes to `gen --shard-plan`, which only prints a plan.
for j in 4294967298 -3 257; do
    usage_error gen --spec paper6 --shard-plan --jobs "$j"
    names_flag --jobs "gen --shard-plan --jobs $j"
done
"$afixp" gen --spec paper6 --shard-plan --jobs 256 > /dev/null 2>&1 ||
    err "'afixp gen --spec paper6 --shard-plan --jobs 256' (the ceiling) failed"
for j in 4294967298 -3; do
    usage_error serve --rounds 1 --days 1 --round-minutes 240 --jobs "$j"
    names_flag --jobs "serve --jobs $j"
    usage_error tables --fast --round-minutes 1440 --jobs "$j"
    names_flag --jobs "tables --jobs $j"
    usage_error chaos --fast --round-minutes 1440 --jobs "$j"
    names_flag --jobs "chaos --jobs $j"
done
for t in 4294967298 -3; do
    usage_error serve --rounds 1 --days 1 --round-minutes 240 --http-threads "$t"
    names_flag --http-threads "serve --http-threads $t"
done
bench_usage_error() {  # <bench> <flag> <value>
    out=$("$1" --smoke --out "" "$2" "$3" 2>&1 >/dev/null)
    rc=$?
    [ "$rc" -eq 2 ] || err "'$(basename "$1") $2 $3' exited $rc, expected 2"
    echo "$out" | grep -q -- "$2" || err "'$(basename "$1") $2 $3' does not name the flag $2"
}
for v in 4294967298 -3; do
    bench_usage_error "$bench_substrate" --jobs "$v"
    bench_usage_error "$bench_serve" --jobs "$v"
    bench_usage_error "$bench_serve" --http-threads "$v"
    bench_usage_error "$bench_serve" --client-threads "$v"
done

# A day count is checked by name wherever it is taken: a negative one used
# to run the full calendar, and 110000 days overflows the nanosecond clock
# (and `gen` narrowed it to int); both exited 0.
for d in -5 110000; do
    usage_error campaign --vp 6 --round-minutes 1440 --days "$d"
    names_flag --days "campaign --days $d"
    usage_error chaos --fast --round-minutes 1440 --days "$d"
    names_flag --days "chaos --days $d"
    usage_error serve --fast --round-minutes 1440 --days "$d"
    names_flag --days "serve --days $d"
    usage_error gen --spec continent100 --days "$d"
    names_flag --days "gen --days $d"
    for b in "$bench_serve" "$bench_substrate"; do
        out=$("$b" --smoke --out "" --days "$d" 2>&1 >/dev/null)
        rc=$?
        [ "$rc" -eq 2 ] || err "'$(basename "$b") --days $d' exited $rc, expected 2"
        echo "$out" | grep -q -- --days ||
            err "'$(basename "$b") --days $d' does not name the flag --days"
    done
done

# --- 6. Flags are the only run configuration ------------------------------
# The retired IXP_METRICS default must not write a file, and --help prints
# no environment-knob block.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
IXP_METRICS="$tmp/m.json" "$afixp" tables --fast --round-minutes 240 --jobs 1 \
    > /dev/null 2>&1 || err "'afixp tables --fast --round-minutes 240 --jobs 1' failed"
[ -e "$tmp/m.json" ] && err "IXP_METRICS still makes 'afixp tables' write $tmp/m.json"
"$afixp" tables --help 2>&1 | grep -q "environment knobs:" &&
    err "'afixp tables --help' still prints an environment knobs: block"

# --- 7. Flagless benches reject arguments --------------------------------
# Both would otherwise run a full bench (bench_table1: the whole six-VP
# fleet over the full calendar), so a hang or a fleet status line on
# stderr is a failure too.
"$bench_fig1" --bogus > /dev/null 2>&1
rc=$?
[ "$rc" -eq 2 ] || err "'bench_fig1 --bogus' exited $rc, expected 2"
"$bench_fig1" stray > /dev/null 2>&1
rc=$?
[ "$rc" -eq 2 ] || err "'bench_fig1 stray' exited $rc, expected 2"
t1_out=$("$bench_table1" --help 2>&1)
rc=$?
[ "$rc" -eq 0 ] || err "'bench_table1 --help' exited $rc, expected 0"
echo "$t1_out" | grep -q "^bench_table1 -- " ||
    err "'bench_table1 --help' prints no help text"
echo "$t1_out" | grep -q "fleet" &&
    err "'bench_table1 --help' started a fleet"

# --- 8. A campaign capture reads back through `afixp analyze` -------------
# `campaign --out` is the only writer of warts-lite captures and `analyze`
# the only reader; both must agree on every monitored link.  A file that
# is not a capture is an error (exit 1), not an empty capture.
cap_out=$("$afixp" campaign --vp 6 --days 10 --round-minutes 240 --out "$tmp/cap.wlt" 2>&1)
rc=$?
[ "$rc" -eq 0 ] || err "'afixp campaign --vp 6 --days 10 --round-minutes 240 --out' exited $rc"
links=$(echo "$cap_out" | sed -n 's/.*: \([0-9][0-9]*\) monitored links,.*/\1/p')
[ -n "$links" ] || err "'afixp campaign' printed no monitored-link count"
an_out=$("$afixp" analyze "$tmp/cap.wlt" 2>&1)
rc=$?
[ "$rc" -eq 0 ] || err "'afixp analyze' of a campaign capture exited $rc"
echo "$an_out" | grep -qE "^[0-9]+ of $links links flagged$" ||
    err "'afixp analyze' does not report the campaign's $links links: $(echo "$an_out" | tail -1)"
printf 'not a capture\n' > "$tmp/bogus.wlt"
"$afixp" analyze "$tmp/bogus.wlt" > /dev/null 2>&1
rc=$?
[ "$rc" -eq 1 ] || err "'afixp analyze' of a non-capture file exited $rc, expected 1"

if [ "$errors" -gt 0 ]; then
    echo "check_cli: FAILED ($errors problem(s))" >&2
    exit 1
fi
echo "check_cli: OK"
