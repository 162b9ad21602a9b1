#!/bin/sh
# CLI dispatch lint, run from CTest (see tools/CMakeLists.txt).
#
# The afixp front door must hold four properties: the top-level usage text
# enumerates every subcommand (the dispatch table is the single source, so
# a new subcommand cannot be reachable-but-undocumented), unknown or
# missing subcommands exit non-zero with usage on stderr, every subcommand
# answers --help with exit 0, and bad flag values and retired flags are
# usage errors (exit 2) before any work starts.
#
# usage: check_cli.sh <afixp_binary>
set -u

afixp=${1:?usage: check_cli.sh <afixp_binary>}
[ -x "$afixp" ] || { echo "check_cli: cannot execute $afixp" >&2; exit 1; }

errors=0
err() {
    echo "check_cli: $*" >&2
    errors=$((errors + 1))
}

subcommands="campaign analyze tables casebook selftest bench chaos gen serve"

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

# --- 4. Usage errors exit 2 ------------------------------------------------
# A cadence below one minute is rejected by name: 0 would divide by zero
# in the campaign, a negative value would run no rounds at all.  `bench
# --tslp` is an unknown flag (bench/bench_tslp is the TSLP harness).
usage_error() {
    out=$("$afixp" "$@" 2>&1 >/dev/null)
    rc=$?
    [ "$rc" -eq 2 ] || err "'afixp $*' exited $rc, expected 2"
}
for m in 0 -5; do
    usage_error campaign --vp 1 --days 2 --round-minutes "$m"
    echo "$out" | grep -q -- "--round-minutes" ||
        err "'afixp campaign --round-minutes $m' does not name the flag"
done
usage_error bench --tslp

if [ "$errors" -gt 0 ]; then
    echo "check_cli: FAILED ($errors problem(s))" >&2
    exit 1
fi
echo "check_cli: OK"
