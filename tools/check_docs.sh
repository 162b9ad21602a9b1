#!/bin/sh
# Documentation lint, run from CTest (see tools/CMakeLists.txt).
#
# Fails when README.md references a binary, afixp subcommand, afixp flag,
# or IXP_* environment variable that no longer exists -- and, conversely,
# when the sources read an IXP_* knob that README does not document.
# Also holds docs/SCALING.md to its two contracts: the topology-spec keys
# it documents must match the kSpecKeys parser table in src/topo/gen.cc,
# and its benchmark-field table must match the committed
# BENCH_substrate.json record (both directions each).  docs/SERVING.md
# carries the same kind of contracts for the serving layer: its endpoint
# table must match the kEndpoints dispatch table in src/serve/serve.cc,
# and its bench-field table must match the committed BENCH_serve.json
# (both directions each).
#
# usage: check_docs.sh <source_dir> <afixp_binary> <bench_probe_binary>
set -u

usage="usage: check_docs.sh <source_dir> <afixp_binary> <bench_probe_binary>"
src=${1:?$usage}
afixp=${2:?$usage}
bench_probe=${3:?$usage}
readme="$src/README.md"
errors=$(mktemp)
trap 'rm -f "$errors"' EXIT

err() {
    echo "check_docs: $*" | tee -a "$errors" >&2
}

[ -r "$readme" ] || { err "cannot read $readme"; exit 1; }
[ -x "$afixp" ] || { err "cannot execute $afixp"; exit 1; }
[ -x "$bench_probe" ] || { err "cannot execute $bench_probe"; exit 1; }

# --- 1. Every bench_* binary README mentions has a source file ------------
for b in $(grep -o 'bench_[a-z0-9_]*' "$readme" | sort -u); do
    [ -f "$src/bench/$b.cc" ] || err "README references '$b' but bench/$b.cc does not exist"
done

# --- 2. Every 'afixp <sub>' subcommand README mentions is real ------------
usage=$("$afixp" 2>&1)
for c in $(grep -oE 'afixp [a-z]+' "$readme" | awk '{print $2}' | sort -u); do
    echo "$usage" | grep -qw "$c" || err "README references 'afixp $c' but afixp usage does not list it"
done

# --- 3. Every --flag on an afixp command line in README parses ------------
# Lines like `./build/tools/afixp tables --fast --jobs 6`: each flag must
# appear in that subcommand's --help.
grep -oE 'afixp [a-z]+[^)`|]*' "$readme" | while read -r line; do
    sub=$(echo "$line" | awk '{print $2}')
    help=$("$afixp" "$sub" --help 2>&1)
    for flag in $(echo "$line" | grep -oE '\-\-[a-z-]+' | sort -u); do
        [ "$flag" = "--help" ] && continue  # implicit on every subcommand
        echo "$help" | grep -q -- "$flag" ||
            err "README uses 'afixp $sub $flag' but 'afixp $sub --help' does not document it"
    done
done

# --- 4. IXP_* knobs: README <-> sources/CMake/scripts must agree ----------
# Flags configure the binaries; the only environment variable compiled
# code reads is IXP_PARANOID, in src/util/check.cc.  The getenv("IXP_...")
# call sites across the compiled trees are the source-side knob list.
# Build knobs (IXP_PARANOID as a forced-on option, IXP_SANITIZE,
# IXP_COVERAGE) live in the top-level CMakeLists; the CI scripts under
# tools/ read their own ${IXP_*} knobs.  README must document all three
# kinds, and must not document ghosts.
src_knobs=$(grep -rhoE --include='*.cc' --include='*.h' --include='*.cpp' \
    'getenv\("IXP_[A-Z_]+"' "$src/src" "$src/bench" "$src/tools" "$src/examples" 2>/dev/null |
    grep -oE 'IXP_[A-Z_]+' | sort -u)
[ -n "$src_knobs" ] || err "no getenv(\"IXP_*\") call found in the sources"
# Flags are the only run configuration: any getenv("IXP_...") outside
# src/util/check.cc adds an environment default a flag should carry.
grep -rn --include='*.cc' --include='*.h' --include='*.cpp' 'getenv("IXP_' \
    "$src/src" "$src/bench" "$src/tools" "$src/examples" 2>/dev/null |
    grep -v '^[^:]*src/util/check\.cc:' |
while read -r hit; do
    err "getenv(\"IXP_*\") outside src/util/check.cc: $hit"
done
cmake_knobs=$(grep -hoE 'IXP_[A-Z_]+' "$src/CMakeLists.txt" 2>/dev/null | sort -u)
script_knobs=$(grep -hoE '\$\{IXP_[A-Z_]+' "$src"/tools/*.sh 2>/dev/null |
    grep -oE 'IXP_[A-Z_]+' | sort -u)
readme_knobs=$(grep -oE 'IXP_[A-Z_]+' "$readme" | sort -u)
for k in $readme_knobs; do
    { echo "$src_knobs"; echo "$cmake_knobs"; echo "$script_knobs"; } | grep -qx "$k" ||
        err "README documents knob '$k' but no source, CMakeLists, or tools/ script uses it"
done
for k in $src_knobs; do
    echo "$readme_knobs" | grep -qx "$k" || err "sources read env knob '$k' but README does not document it"
done
for k in $cmake_knobs; do
    echo "$readme_knobs" | grep -qx "$k" ||
        err "CMakeLists defines build knob '$k' but README does not document it"
done
for k in $script_knobs; do
    echo "$readme_knobs" | grep -qx "$k" ||
        err "tools/ script reads knob '$k' but README does not document it"
done

# --- 5. Benchmark harness flags: README documents every one ----------------
# bench_probe is the PR-to-PR performance comparison contract, so the
# README's "Benchmark harness" section must cover each flag it offers (the
# reverse of check 3, which only validates flags README already uses).
"$bench_probe" --help 2>&1 | grep -oE '^  --[a-z-]+' | tr -d ' ' | sort -u |
while read -r flag; do
    grep -q -- "$flag" "$readme" ||
        err "'bench_probe --help' offers '$flag' but README does not document it"
done

# --- 6. Docs cross-links resolve ------------------------------------------
for doc in $(grep -oE '\]\(([A-Za-z0-9_/.-]+\.md)\)' "$readme" | sed 's/](\(.*\))/\1/' | sort -u); do
    [ -f "$src/$doc" ] || err "README links to '$doc' but the file does not exist"
done

# --- 7. Topology-spec keys: docs/SCALING.md <-> src/topo/gen.cc -----------
# The kSpecKeys table in src/topo/gen.cc is the single parser-side list of
# `key = value` spec keys, and the key-reference table in docs/SCALING.md is
# the operator-facing contract.  Both directions must agree: every parsed
# key is documented, and SCALING.md documents no ghost keys.
scaling="$src/docs/SCALING.md"
gen_cc="$src/src/topo/gen.cc"
[ -r "$scaling" ] || err "docs/SCALING.md does not exist (the scaling guide is part of the docs contract)"
[ -r "$gen_cc" ] || err "cannot read $gen_cc"
if [ -r "$scaling" ] && [ -r "$gen_cc" ]; then
    spec_keys=$(sed -n '/kSpecKeys\[\]/,/^};/p' "$gen_cc" |
        grep -oE '\{"[a-z.]+"' | tr -d '{"' | sort -u)
    [ -n "$spec_keys" ] || err "no keys found in the kSpecKeys table of $gen_cc"
    for k in $spec_keys; do
        grep -q "\`$k\`" "$scaling" ||
            err "spec key '$k' (kSpecKeys) is not documented in docs/SCALING.md"
    done
    # Reverse direction: keys listed in the SCALING.md key-reference table
    # (first column of the table under '### Key reference') must parse.
    doc_keys=$(sed -n '/^### Key reference/,/^## /p' "$scaling" |
        grep -oE '^\| `[a-z.]+`' | tr -d '`| ' | sort -u)
    [ -n "$doc_keys" ] || err "no key-reference table found in docs/SCALING.md"
    for k in $doc_keys; do
        echo "$spec_keys" | grep -qx "$k" ||
            err "docs/SCALING.md documents spec key '$k' but kSpecKeys does not parse it"
    done
fi

# --- 8. BENCH_substrate.json fields: record <-> docs/SCALING.md -----------
# The committed record at the repo root is the reference continent-scale
# run; SCALING.md documents every field of the afixp-bench-substrate/1
# schema, and documents no ghost fields.
sub_record="$src/BENCH_substrate.json"
[ -r "$sub_record" ] || err "BENCH_substrate.json does not exist at the repo root"
if [ -r "$scaling" ] && [ -r "$sub_record" ]; then
    record_fields=$(grep -oE '^  "[a-z_]+"' "$sub_record" | tr -d ' "' | sort -u)
    [ -n "$record_fields" ] || err "no fields found in $sub_record"
    for f in $record_fields; do
        grep -q "\`$f\`" "$scaling" ||
            err "BENCH_substrate.json field '$f' is not documented in docs/SCALING.md"
    done
    doc_fields=$(sed -n '/^## The substrate benchmark/,$p' "$scaling" |
        grep -oE '^\| `[a-z_]+`' | tr -d '`| ' | sort -u)
    [ -n "$doc_fields" ] || err "no benchmark-field table found in docs/SCALING.md"
    for f in $doc_fields; do
        echo "$record_fields" | grep -qx "$f" ||
            err "docs/SCALING.md documents bench field '$f' but the record does not carry it"
    done
fi

# --- 9. BENCH_tslp.json fields: record <-> docs/ARCHITECTURE.md -----------
# The committed record at the repo root is the reference TSLP bench run;
# the "TSLP fast path" section of ARCHITECTURE.md documents every field of
# the afixp-bench-tslp/2 schema (including the nested engine-entry fields),
# and documents no ghost fields.
arch="$src/docs/ARCHITECTURE.md"
tslp_record="$src/BENCH_tslp.json"
[ -r "$tslp_record" ] || err "BENCH_tslp.json does not exist at the repo root"
if [ -r "$arch" ] && [ -r "$tslp_record" ]; then
    tslp_fields=$(grep -oE '"[a-z_]+":' "$tslp_record" | tr -d '":' | sort -u)
    [ -n "$tslp_fields" ] || err "no fields found in $tslp_record"
    tslp_section=$(sed -n '/^## The TSLP fast path/,/^## The continent-scale substrate/p' "$arch")
    [ -n "$tslp_section" ] || err "docs/ARCHITECTURE.md has no 'TSLP fast path' section"
    for f in $tslp_fields; do
        echo "$tslp_section" | grep -q "\`$f\`" ||
            err "BENCH_tslp.json field '$f' is not documented in docs/ARCHITECTURE.md"
    done
    tslp_doc_fields=$(echo "$tslp_section" | grep -oE '^\| `[a-z_]+`' | tr -d '`| ' | sort -u)
    [ -n "$tslp_doc_fields" ] || err "no TSLP bench-field table found in docs/ARCHITECTURE.md"
    for f in $tslp_doc_fields; do
        echo "$tslp_fields" | grep -qx "$f" ||
            err "docs/ARCHITECTURE.md documents TSLP bench field '$f' but the record does not carry it"
    done
fi

# --- 10. Serving endpoints: docs/SERVING.md <-> src/serve/serve.cc --------
# The kEndpoints dispatch table in ServeDaemon::endpoints() is the single
# source of truth for the HTTP surface; the endpoint table in
# docs/SERVING.md (first column under '## Endpoints') is the operator
# contract.  Both directions must agree: every routed pattern is
# documented, and SERVING.md documents no ghost endpoints.
serving="$src/docs/SERVING.md"
serve_cc="$src/src/serve/serve.cc"
[ -r "$serving" ] || err "docs/SERVING.md does not exist (the serving guide is part of the docs contract)"
[ -r "$serve_cc" ] || err "cannot read $serve_cc"
if [ -r "$serving" ] && [ -r "$serve_cc" ]; then
    routed=$(sed -n '/kEndpoints = {/,/^  };/p' "$serve_cc" |
        grep -oE '\{"/[^"]*"' | sed 's/^{"//; s/"$//' | sort -u)
    [ -n "$routed" ] || err "no patterns found in the kEndpoints table of $serve_cc"
    for e in $routed; do
        grep -q "\`$e\`" "$serving" ||
            err "endpoint '$e' (kEndpoints) is not documented in docs/SERVING.md"
    done
    doc_endpoints=$(sed -n '/^## Endpoints/,/^## /p' "$serving" |
        grep -oE '^\| `/[^`]*`' | sed 's/^| `//; s/`$//' | sort -u)
    [ -n "$doc_endpoints" ] || err "no endpoint table found in docs/SERVING.md"
    for e in $doc_endpoints; do
        echo "$routed" | grep -qxF "$e" ||
            err "docs/SERVING.md documents endpoint '$e' but kEndpoints does not route it"
    done
fi

# --- 11. BENCH_serve.json fields: record <-> docs/SERVING.md --------------
# The committed record at the repo root is the reference live-observatory
# soak; SERVING.md documents every field of the afixp-bench-serve/1 schema,
# and documents no ghost fields.
serve_record="$src/BENCH_serve.json"
[ -r "$serve_record" ] || err "BENCH_serve.json does not exist at the repo root"
if [ -r "$serving" ] && [ -r "$serve_record" ]; then
    serve_fields=$(grep -oE '^  "[a-z_]+"' "$serve_record" | tr -d ' "' | sort -u)
    [ -n "$serve_fields" ] || err "no fields found in $serve_record"
    for f in $serve_fields; do
        grep -q "\`$f\`" "$serving" ||
            err "BENCH_serve.json field '$f' is not documented in docs/SERVING.md"
    done
    serve_doc_fields=$(sed -n '/^## The serving benchmark/,$p' "$serving" |
        grep -oE '^\| `[a-z_]+`' | tr -d '`| ' | sort -u)
    [ -n "$serve_doc_fields" ] || err "no bench-field table found in docs/SERVING.md"
    for f in $serve_doc_fields; do
        echo "$serve_fields" | grep -qx "$f" ||
            err "docs/SERVING.md documents bench field '$f' but the record does not carry it"
    done
fi

# --- 12. Scenario plans: docs/SCENARIOS.md <-> src/util/fault_plan.cc -----
# The kScenarioPlans registry is the single source of truth for named
# scenario plans (afixp chaos/serve --plan, --list-plans); the plan-registry
# table in docs/SCENARIOS.md (first column under '## Plan registry') is the
# operator contract.  Both directions must agree: every registered plan is
# documented, and SCENARIOS.md documents no ghost plans.
scenarios="$src/docs/SCENARIOS.md"
plan_cc="$src/src/util/fault_plan.cc"
[ -r "$scenarios" ] || err "docs/SCENARIOS.md does not exist (the scenario guide is part of the docs contract)"
[ -r "$plan_cc" ] || err "cannot read $plan_cc"
if [ -r "$scenarios" ] && [ -r "$plan_cc" ]; then
    plans=$(sed -n '/kScenarioPlans\[\]/,/^};/p' "$plan_cc" |
        grep -oE '^    \{"[a-z0-9-]+"' | tr -d '{" ' | sort -u)
    [ -n "$plans" ] || err "no plans found in the kScenarioPlans table of $plan_cc"
    for p in $plans; do
        grep -q "\`$p\`" "$scenarios" ||
            err "scenario plan '$p' (kScenarioPlans) is not documented in docs/SCENARIOS.md"
        "$afixp" chaos --list-plans 2>&1 | grep -qw "$p" ||
            err "'afixp chaos --list-plans' does not list scenario plan '$p'"
    done
    doc_plans=$(sed -n '/^## Plan registry/,/^## /p' "$scenarios" |
        grep -oE '^\| `[a-z0-9-]+`' | tr -d '`| ' | sort -u)
    [ -n "$doc_plans" ] || err "no plan-registry table found in docs/SCENARIOS.md"
    for p in $doc_plans; do
        echo "$plans" | grep -qx "$p" ||
            err "docs/SCENARIOS.md documents scenario plan '$p' but kScenarioPlans does not register it"
    done
fi

if [ -s "$errors" ]; then
    echo "check_docs: FAILED ($(wc -l < "$errors") problem(s))" >&2
    exit 1
fi
echo "check_docs: OK"
