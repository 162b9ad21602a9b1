#!/bin/sh
# Benchmark-harness smoke check, run from CTest (see tools/CMakeLists.txt).
#
# Runs the CI-sized benchmark workloads and fails when the harness crashes,
# emits malformed JSON, or the record is missing the fields the comparison
# workflow in README.md depends on (schema tag, per-benchmark name/unit and
# positive throughput numbers).  This is a format/liveness gate, not a
# performance gate: smoke timings on shared CI boxes are too noisy to assert
# thresholds on.
#
# One exception: the observability overhead gate.  campaign_six_vp runs
# three times with --metrics and three times without, interleaved, and the
# best metrics-on rate must stay within a lenient factor of the best
# metrics-off rate -- metrics collection scrapes plain counters at segment
# boundaries, so a big gap means someone put registry work on the per-probe
# path.  A smoke run takes a fraction of a second, so one sample per side
# swings with whatever else the host is doing; best-of-3 on each side, taken
# close together in time, keeps the comparison about the code.  The
# threshold (0.70x) is deliberately loose to survive CI noise.
#
# When a bench_substrate binary is supplied, its smoke workload runs under
# the same format gate: the afixp-bench-substrate/1 record must carry every
# field docs/SCALING.md documents (host_cpus included), with positive
# throughput and a columnar store that actually beats raw storage.
#
# The afixp-bench-sim/4 record states the CPU count of the host it ran on
# (host_cpus), so no wall-clock number is read without its parallelism.
# The committed reference BENCH_sim.json is checked for the full workload,
# the same benchmark set, and that field.
#
# When a bench_tslp binary is supplied, its smoke workload runs too: the
# afixp-bench-tslp/2 record must carry the three engines (scalar -- the
# test-tree oracle --, fast -- the production classifier --, and online)
# with positive rates, and -- non-negotiably -- equivalent=true: the
# production detectors must be byte-identical to the oracle.  When a source
# dir is also supplied, the committed reference BENCH_tslp.json is checked
# as well: full regional50 workload, equivalent, the recording host's CPU
# count, and the production classifier at >= 2x the scalar oracle.  The
# reference record is a committed artifact, not a CI measurement, so
# asserting its speedup is safe.
#
# When a bench_serve binary is supplied, its smoke workload runs too: the
# afixp-bench-serve/1 record must carry the full field set docs/SERVING.md
# documents, with positive read throughput and an error-free soak.  The
# committed reference BENCH_serve.json is gated as well: full continent100
# workload, no errors, and a minimum queries/s floor -- 10k on a
# multi-core recorder, relaxed to 5k when the recording host had a single
# CPU (the campaign driver, HTTP workers, and soak clients all share it).
#
# usage: check_bench.sh <bench_probe_binary> [bench_substrate_binary] \
#                       [bench_tslp_binary] [bench_serve_binary] [source_dir]
set -u

bench=${1:?usage: check_bench.sh <bench_probe_binary> [bench_substrate_binary] [bench_tslp_binary] [bench_serve_binary] [source_dir]}
substrate=${2:-}
tslp=${3:-}
serve=${4:-}
srcdir=${5:-}
[ -x "$bench" ] || { echo "check_bench: cannot execute $bench" >&2; exit 1; }

out=$(mktemp)
trap 'rm -f "$out"' EXIT

if ! "$bench" --smoke --out "$out"; then
    echo "check_bench: bench_probe --smoke exited non-zero" >&2
    exit 1
fi

python3 - "$out" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: {msg}")

if record.get("schema") != "afixp-bench-sim/4":
    fail(f"unexpected schema tag {record.get('schema')!r}")
if record.get("workload") != "smoke":
    fail(f"expected workload 'smoke', got {record.get('workload')!r}")
benches = record.get("benchmarks")
if not isinstance(benches, list) or not benches:
    fail("'benchmarks' must be a non-empty list")
expected = {"probe_fabric", "campaign_six_vp"}
names = {b.get("name") for b in benches}
if names != expected:
    fail(f"benchmark set {sorted(names)} != {sorted(expected)}")
for b in benches:
    for key in ("unit", "items_per_pass", "cold_per_sec", "warm_per_sec", "wall_seconds"):
        if key not in b:
            fail(f"benchmark {b.get('name')!r} lacks field {key!r}")
    for key in ("cold_per_sec", "warm_per_sec"):
        if not (isinstance(b[key], (int, float)) and b[key] > 0):
            fail(f"benchmark {b.get('name')!r} has non-positive {key}: {b[key]!r}")
host_cpus = record.get("host_cpus")
if not (isinstance(host_cpus, int) and host_cpus > 0):
    fail(f"record has no positive host_cpus: {host_cpus!r}")
print("check_bench: OK")
EOF
[ $? -eq 0 ] || exit 1

# --- Observability overhead gate ------------------------------------------
metrics_dir=$(mktemp -d)
trap 'rm -f "$out"; rm -rf "$metrics_dir"' EXIT
for i in 1 2 3; do
    for side in off on; do
        flag=
        [ "$side" = on ] && flag=--metrics
        if ! "$bench" --smoke --only campaign_six_vp $flag --out "$metrics_dir/$side$i.json"; then
            echo "check_bench: bench_probe --only campaign_six_vp $flag exited non-zero" >&2
            exit 1
        fi
    done
done

python3 - "$metrics_dir" <<'EOF'
import json
import sys

def warm(path, name):
    with open(path) as f:
        record = json.load(f)
    for b in record.get("benchmarks", []):
        if b.get("name") == name:
            return b["warm_per_sec"]
    sys.exit(f"check_bench: {path} lacks benchmark {name!r}")

def best(side):
    return max(warm(f"{sys.argv[1]}/{side}{i}.json", "campaign_six_vp") for i in (1, 2, 3))

off = best("off")
on = best("on")
ratio = on / off
print(f"check_bench: campaign_six_vp metrics-on/off best-of-3 warm ratio {ratio:.3f} "
      f"({on:.0f} vs {off:.0f} probes/s)")
if ratio < 0.70:
    sys.exit(f"check_bench: metrics collection costs too much "
             f"(ratio {ratio:.3f} < 0.70) -- registry work on the hot path?")
print("check_bench: overhead gate OK")
EOF
[ $? -eq 0 ] || exit 1

# --- Substrate benchmark record gate ---------------------------------------
[ -n "$substrate" ] || exit 0
[ -x "$substrate" ] || { echo "check_bench: cannot execute $substrate" >&2; exit 1; }

sub_out=$(mktemp)
trap 'rm -f "$out" "$sub_out"; rm -rf "$metrics_dir"' EXIT
if ! "$substrate" --smoke --out "$sub_out"; then
    echo "check_bench: bench_substrate --smoke exited non-zero" >&2
    exit 1
fi

python3 - "$sub_out" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed substrate JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: {msg}")

if record.get("schema") != "afixp-bench-substrate/1":
    fail(f"unexpected substrate schema tag {record.get('schema')!r}")
if record.get("workload") != "smoke":
    fail(f"expected substrate workload 'smoke', got {record.get('workload')!r}")
# The full field set docs/SCALING.md documents -- losing any breaks the
# cross-commit comparison workflow.
fields = {
    "schema", "workload", "spec", "seed", "jobs", "host_cpus", "ixps", "links", "rounds",
    "samples", "probes", "wall_seconds", "link_rounds_per_sec",
    "probes_per_sec", "resident_bytes", "raw_bytes", "bytes_per_link",
    "raw_bytes_per_link", "compression_ratio", "peak_rss_kb",
}
missing = fields - record.keys()
if missing:
    fail(f"substrate record lacks field(s) {sorted(missing)}")
for key in ("host_cpus", "ixps", "links", "rounds", "samples", "probes",
            "link_rounds_per_sec", "bytes_per_link", "peak_rss_kb"):
    if not (isinstance(record[key], (int, float)) and record[key] > 0):
        fail(f"substrate record has non-positive {key}: {record[key]!r}")
if not record["resident_bytes"] < record["raw_bytes"]:
    fail(f"columnar store does not beat raw storage "
         f"({record['resident_bytes']} >= {record['raw_bytes']} bytes)")
print("check_bench: substrate record OK")
EOF
[ $? -eq 0 ] || exit 1

# --- TSLP benchmark smoke gate ---------------------------------------------
[ -n "$tslp" ] || exit 0
[ -x "$tslp" ] || { echo "check_bench: cannot execute $tslp" >&2; exit 1; }

tslp_out=$(mktemp)
trap 'rm -f "$out" "$sub_out" "$tslp_out"; rm -rf "$metrics_dir"' EXIT
if ! "$tslp" --smoke --out "$tslp_out"; then
    echo "check_bench: bench_tslp --smoke exited non-zero" >&2
    exit 1
fi

python3 - "$tslp_out" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed tslp JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: {msg}")

if record.get("schema") != "afixp-bench-tslp/2":
    fail(f"unexpected tslp schema tag {record.get('schema')!r}")
if record.get("workload") != "smoke":
    fail(f"expected tslp workload 'smoke', got {record.get('workload')!r}")
engines = record.get("engines")
if not isinstance(engines, list) or not engines:
    fail("'engines' must be a non-empty list")
names = {e.get("name") for e in engines}
if names != {"scalar", "fast", "online"}:
    fail(f"engine set {sorted(names)} != ['fast', 'online', 'scalar']")
for e in engines:
    for key in ("cold_series_per_sec", "warm_series_per_sec", "wall_seconds"):
        if key not in e:
            fail(f"engine {e.get('name')!r} lacks field {key!r}")
        if not (isinstance(e[key], (int, float)) and e[key] > 0):
            fail(f"engine {e.get('name')!r} has non-positive {key}: {e[key]!r}")
# The non-negotiable bit, even at smoke size: the production detectors
# must have produced byte-identical reports to the oracle on every link.
if record.get("equivalent") is not True:
    fail("tslp engines are not equivalent -- a production detector "
         "diverged from the scalar oracle")
print("check_bench: tslp smoke OK")
EOF
[ $? -eq 0 ] || exit 1

# --- Serve benchmark smoke gate --------------------------------------------
if [ -n "$serve" ]; then
    [ -x "$serve" ] || { echo "check_bench: cannot execute $serve" >&2; exit 1; }

    serve_out=$(mktemp)
    trap 'rm -f "$out" "$sub_out" "$tslp_out" "$serve_out"; rm -rf "$metrics_dir"' EXIT
    if ! "$serve" --smoke --out "$serve_out"; then
        echo "check_bench: bench_serve --smoke exited non-zero" >&2
        exit 1
    fi

    python3 - "$serve_out" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed serve JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: {msg}")

if record.get("schema") != "afixp-bench-serve/1":
    fail(f"unexpected serve schema tag {record.get('schema')!r}")
if record.get("workload") != "smoke":
    fail(f"expected serve workload 'smoke', got {record.get('workload')!r}")
# The full field set docs/SERVING.md documents.
fields = {
    "schema", "workload", "spec", "http_threads", "client_threads",
    "soak_seconds", "queries", "errors", "queries_per_sec", "passes",
    "epochs", "links", "host_cpus",
}
missing = fields - record.keys()
if missing:
    fail(f"serve record lacks field(s) {sorted(missing)}")
for key in ("queries", "queries_per_sec", "passes", "epochs", "links",
            "soak_seconds"):
    if not (isinstance(record[key], (int, float)) and record[key] > 0):
        fail(f"serve record has non-positive {key}: {record[key]!r}")
# A clean soak answers every query; allow nothing worse than 1% transport
# noise on a loaded CI box.
if record["errors"] * 100 > record["queries"]:
    fail(f"serve soak errors too high ({record['errors']} of "
         f"{record['queries']} queries)")
print("check_bench: serve smoke OK")
EOF
    [ $? -eq 0 ] || exit 1
fi

# --- TSLP committed reference gate -----------------------------------------
[ -n "$srcdir" ] || exit 0
ref="$srcdir/BENCH_tslp.json"
[ -f "$ref" ] || { echo "check_bench: missing committed reference $ref" >&2; exit 1; }

python3 - "$ref" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed reference JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: BENCH_tslp.json {msg}")

if record.get("schema") != "afixp-bench-tslp/2":
    fail(f"has unexpected schema tag {record.get('schema')!r}")
if record.get("workload") != "full":
    fail(f"is not a full-workload record ({record.get('workload')!r})")
if record.get("spec") != "regional50":
    fail(f"was not measured on the regional50 substrate ({record.get('spec')!r})")
if record.get("equivalent") is not True:
    fail("records non-equivalent engines")
host_cpus = record.get("host_cpus")
if not (isinstance(host_cpus, int) and host_cpus > 0):
    fail(f"has no positive host_cpus: {host_cpus!r}")
speedup = record.get("speedup_fast")
if not (isinstance(speedup, (int, float)) and speedup >= 2.0):
    fail(f"fast speedup {speedup!r} is below the 2.0x acceptance bar")
print(f"check_bench: reference OK (fast {speedup}x over scalar, host_cpus={host_cpus})")
EOF
[ $? -eq 0 ] || exit 1

# --- Sim committed reference gate -------------------------------------------
simref="$srcdir/BENCH_sim.json"
[ -f "$simref" ] || { echo "check_bench: missing committed reference $simref" >&2; exit 1; }

python3 - "$simref" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed reference JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: BENCH_sim.json {msg}")

if record.get("schema") != "afixp-bench-sim/4":
    fail(f"has unexpected schema tag {record.get('schema')!r}")
if record.get("workload") != "full":
    fail(f"is not a full-workload record ({record.get('workload')!r})")
expected = {"probe_fabric", "campaign_six_vp"}
names = {b.get("name") for b in record.get("benchmarks") or []}
if names != expected:
    fail(f"benchmark set {sorted(names)} != {sorted(expected)}")
host_cpus = record.get("host_cpus")
if not (isinstance(host_cpus, int) and host_cpus > 0):
    fail(f"has no positive host_cpus: {host_cpus!r}")
print(f"check_bench: sim reference OK (host_cpus={host_cpus})")
EOF
[ $? -eq 0 ] || exit 1

# --- Serve committed reference gate ----------------------------------------
[ -n "$serve" ] || exit 0
serveref="$srcdir/BENCH_serve.json"
[ -f "$serveref" ] || { echo "check_bench: missing committed reference $serveref" >&2; exit 1; }

python3 - "$serveref" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    try:
        record = json.load(f)
    except json.JSONDecodeError as e:
        sys.exit(f"check_bench: malformed reference JSON: {e}")

def fail(msg):
    sys.exit(f"check_bench: BENCH_serve.json {msg}")

if record.get("schema") != "afixp-bench-serve/1":
    fail(f"has unexpected schema tag {record.get('schema')!r}")
if record.get("workload") != "full":
    fail(f"is not a full-workload record ({record.get('workload')!r})")
if record.get("spec") != "continent100":
    fail(f"was not measured against continent100 ({record.get('spec')!r})")
if record.get("errors") != 0:
    fail(f"records a soak with errors ({record.get('errors')!r})")
qps = record.get("queries_per_sec")
if not (isinstance(qps, (int, float)) and qps > 0):
    fail(f"has non-positive queries_per_sec {qps!r}")
host_cpus = record.get("host_cpus")
# The floor is conditional on the recording host: with a single CPU the
# campaign driver, HTTP workers, and soak clients all timeshare one core,
# so the bar drops to half.
floor = 10000.0 if isinstance(host_cpus, int) and host_cpus >= 2 else 5000.0
if qps < floor:
    fail(f"queries_per_sec {qps!r} is below the {floor:.0f}/s floor "
         f"(host_cpus={host_cpus!r})")
print(f"check_bench: serve reference OK ({qps:.0f} queries/s on a "
      f"{host_cpus}-CPU host)")
EOF
