#!/usr/bin/env bash
# Full verification: build, tests, lints (rustc + clippy + htlc lint).
#
# Usage: scripts/verify.sh
# Run from anywhere; operates on the repository containing this script.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> non-test lines per crate (information only, not a gate)"
scripts/loc.sh

echo "==> cargo test"
cargo test -q

echo "==> cargo test -p logrel-sim (kernel unit tests; every Simulation self-certifies)"
cargo test -q -p logrel-sim > /dev/null

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

# These crates are rustfmt-clean; the rest of the workspace is not yet,
# so the check covers only them.
echo "==> cargo fmt --check (the rustfmt-clean crates)"
cargo fmt --check -p logrel-sim -p rand -p logrel-bench -p logrel-reliability \
    -p logrel-obs -p logrel-emachine -p logrel-validate -p logrel-refine \
    -p logrel-threetank -p logrel-steerbywire

echo "==> cargo doc (every workspace crate but the vendored shims)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace \
    --exclude rand --exclude proptest

HTLC=target/release/htlc

echo "==> htlc lint --deny examples/htl"
"$HTLC" lint --deny examples/htl/*.htl

# The shipped assets carry intentional warnings (unbound backup sensors),
# so they are linted without --deny; error-severity findings still fail.
echo "==> htlc lint assets"
"$HTLC" lint assets/*.htl

echo "==> htlc check examples/htl + assets"
for f in examples/htl/*.htl assets/*.htl; do
    "$HTLC" check "$f" > /dev/null
done

echo "==> htlc verify examples/htl + assets (translation validation)"
for f in examples/htl/*.htl assets/*.htl; do
    "$HTLC" verify "$f" > /dev/null
done

echo "==> htlc inject smoke (scenario campaign)"
"$HTLC" inject examples/htl/infusion_pump.htl examples/scenarios/pump_outage.scn 500 7 2 \
    > /dev/null

echo "==> htlc inject --metrics smoke (Prometheus + JSON exporters)"
METRICS_DIR=$(mktemp -d)
trap 'rm -rf "$METRICS_DIR"' EXIT
"$HTLC" inject --metrics "$METRICS_DIR/m.prom" \
    examples/htl/infusion_pump.htl examples/scenarios/pump_outage.scn 500 7 2 \
    > /dev/null
grep -q '^logrel_rounds_total ' "$METRICS_DIR/m.prom"
grep -q '^logrel_vote_' "$METRICS_DIR/m.prom"
# The campaign's round program was self-certified, and timed.
grep -q '^logrel_certify_seconds ' "$METRICS_DIR/m.prom"
python3 - "$METRICS_DIR/m.prom.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "logrel-metrics-v1", doc.get("schema")
assert doc["counters"]["logrel_rounds_total"] == 1000, doc["counters"]
assert "logrel_task_invocations_total" in doc["counters"]
PY

echo "==> htlc trace smoke (flight recorder)"
"$HTLC" trace examples/htl/infusion_pump.htl examples/scenarios/pump_outage.scn 200 7 \
    | grep -q '^flight recorder:'

echo "==> htlc trace memory (10^6 rounds peak under 64 MB: no trace is kept)"
python3 - "$HTLC" <<'PY'
import resource, subprocess, sys
subprocess.run([sys.argv[1], "trace", "examples/htl/infusion_pump.htl",
                "examples/scenarios/pump_outage.scn", "1000000", "7"],
               stdout=subprocess.DEVNULL, check=True)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert peak_mb < 64, f"htlc trace peaked at {peak_mb:.1f} MB"
PY

echo "==> htlc simulate memory (10^6 rounds peak under 32 MB: it counts, keeps no trace)"
python3 - "$HTLC" <<'PY'
import resource, subprocess, sys
subprocess.run([sys.argv[1], "simulate", "examples/htl/infusion_pump.htl", "1000000", "7"],
               stdout=subprocess.DEVNULL, check=True)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert peak_mb < 32, f"htlc simulate peaked at {peak_mb:.1f} MB"
PY

echo "==> htlc certify examples/htl + assets (every shipped spec CERTIFIED)"
for f in examples/htl/*.htl assets/*.htl; do
    "$HTLC" certify "$f" | grep -q '^verdict: CERTIFIED$'
done

echo "==> htlc certify exit codes (the refuted corpus spec must fail)"
! "$HTLC" certify tests/assets/certify/certify_refuted.htl > /dev/null 2>&1

echo "==> htlc certify/lint --format json (schema validation)"
"$HTLC" certify --format json assets/three_tank.htl > "$METRICS_DIR/cert.json"
"$HTLC" lint --format json tests/assets/lint_dead_comm.htl \
    > "$METRICS_DIR/diag.json" || true
python3 - "$METRICS_DIR/cert.json" "$METRICS_DIR/diag.json" <<'PY'
import json, sys
cert = json.load(open(sys.argv[1]))
assert cert["schema"] == "logrel-certificate-v1", cert.get("schema")
assert cert["overall"] == "CERTIFIED", cert["overall"]
rows = [c for c in cert["communicators"] if c["lrc"] is not None]
assert rows and all(c["lo"] <= c["point"] <= c["hi"] for c in cert["communicators"])
diag = json.load(open(sys.argv[2]))
assert diag["schema"] == "logrel-diagnostics-v1", diag.get("schema")
assert diag["diagnostics"], "lint corpus file must produce findings"
PY

echo "==> htlc certify --metrics smoke (certification counters)"
"$HTLC" certify --metrics "$METRICS_DIR/cert.prom" assets/three_tank.htl > /dev/null
grep -q '^logrel_certify_specs_total 1$' "$METRICS_DIR/cert.prom"
grep -q '^logrel_certify_lrc_certified_total ' "$METRICS_DIR/cert.prom"

echo "==> scenario engine tests (parser proptests + determinism)"
cargo test -q -p logrel-sim scenario > /dev/null
cargo test -q --test fault_scenarios > /dev/null
cargo test -q --test fuzz_determinism > /dev/null

echo "==> observability tests (pinned metrics + thread-count invariance)"
cargo test -q --test observability > /dev/null
# The exporter against its format!-based oracle, and the campaign-unit
# fold against one sink per replication.
cargo test -q -p logrel-obs > /dev/null
cargo test -q --test campaign_fold > /dev/null

echo "==> bit-sliced kernel differential tests (lane-vs-scalar bit-identity)"
cargo test -q --test bitslice_equivalence > /dev/null

echo "==> htlc inject --lanes smoke (bit-sliced and scalar paths agree)"
"$HTLC" inject --lanes off --metrics "$METRICS_DIR/scalar.prom" \
    examples/htl/infusion_pump.htl examples/scenarios/pump_outage.scn 500 7 2 \
    > /dev/null
"$HTLC" inject --lanes 64 --metrics "$METRICS_DIR/sliced.prom" \
    examples/htl/infusion_pump.htl examples/scenarios/pump_outage.scn 500 7 2 \
    > /dev/null
grep -q '^logrel_bitslice_lanes 1$' "$METRICS_DIR/scalar.prom"
grep -q '^logrel_bitslice_lanes 64$' "$METRICS_DIR/sliced.prom"
diff <(grep -v '^logrel_bitslice_lanes' "$METRICS_DIR/scalar.prom" | grep -v '_seconds') \
     <(grep -v '^logrel_bitslice_lanes' "$METRICS_DIR/sliced.prom" | grep -v '_seconds')
# The same diff on a campaign that exercises the LRC monitor: the
# steer-by-wire scenario with every event kind raises and clears over a
# hundred alarms, so the group monitor's alarm counters and
# flight-recorder dumps must match width 1 with a 6-lane tail.
"$HTLC" inject --lanes off --metrics "$METRICS_DIR/steer_scalar.prom" \
    assets/steer_by_wire.htl tests/assets/scenarios/steer_every_event.scn 400 7 70 \
    > /dev/null
"$HTLC" inject --lanes 64 --metrics "$METRICS_DIR/steer_sliced.prom" \
    assets/steer_by_wire.htl tests/assets/scenarios/steer_every_event.scn 400 7 70 \
    > /dev/null
grep -q '^logrel_alarm_raised_total [1-9][0-9]' "$METRICS_DIR/steer_sliced.prom"
diff <(grep -v '^logrel_bitslice_lanes' "$METRICS_DIR/steer_scalar.prom" | grep -v '_seconds') \
     <(grep -v '^logrel_bitslice_lanes' "$METRICS_DIR/steer_sliced.prom" | grep -v '_seconds')

echo "==> htlc serve --stdin: alarm-heavy steer job, 1 worker ≡ 2 workers ≡ inject"
# The same campaign as a served job (units of 64 + 6 lanes, each unit's
# observation folded into one registry): the metrics line must not
# depend on the worker count, and must equal the `htlc inject --metrics`
# JSON above up to the wall-clock `*_seconds` spans.
STEER_JOB='{"schema":"logrel-job-v1","id":"steer","spec_path":"assets/steer_by_wire.htl","scenario_path":"tests/assets/scenarios/steer_every_event.scn","rounds":400,"replications":70,"seed":7,"lanes":64}'
for workers in 1 2; do
    echo "$STEER_JOB" | "$HTLC" serve --stdin --workers "$workers" \
        > "$METRICS_DIR/steer_served_$workers.ndjson"
done
python3 - "$METRICS_DIR/steer_served_1.ndjson" "$METRICS_DIR/steer_served_2.ndjson" \
    "$METRICS_DIR/steer_sliced.prom.json" <<'PY'
import json, sys
one, two = (open(p).read().splitlines() for p in sys.argv[1:3])
assert one[0] == two[0], "1 worker and 2 workers served different metrics lines"
status = json.loads(one[1])
assert (status["id"], status["status"]) == ("steer", "done"), status
served = json.loads(one[0])
assert served["counters"]["logrel_alarm_raised_total"] >= 10, served["counters"]
assert served["dumps"], "the alarm dumps survive the merge"
def strip(d):
    return {k: strip(v) if isinstance(v, dict) else v
            for k, v in d.items() if not k.endswith("_seconds")}
inj = json.load(open(sys.argv[3]))
assert strip(inj) == strip(served), "served steer job diverged from htlc inject"
PY

echo "==> htlc inject smoke (partition + wear-out scenarios)"
"$HTLC" inject examples/htl/infusion_pump.htl examples/scenarios/partition.scn 400 7 2 \
    > /dev/null
"$HTLC" inject examples/htl/infusion_pump.htl examples/scenarios/wearout.scn 400 7 2 \
    > /dev/null

echo "==> htlc fuzz smoke (deterministic coverage-guided campaign)"
FUZZ_DIR=$(mktemp -d)
trap 'rm -rf "$METRICS_DIR" "$FUZZ_DIR"' EXIT
"$HTLC" fuzz assets/steer_by_wire.htl --iters 200 --seed 7 \
    --corpus "$FUZZ_DIR/a" > /dev/null
"$HTLC" fuzz assets/steer_by_wire.htl --iters 200 --seed 7 \
    --corpus "$FUZZ_DIR/b" > /dev/null
# Same seed, byte-identical artifacts.
diff -r "$FUZZ_DIR/a" "$FUZZ_DIR/b"
# The corpus grew beyond the seed scenario and found at least one miss.
test "$(ls "$FUZZ_DIR/a" | grep -c '^cov-')" -ge 2
test "$(ls "$FUZZ_DIR/a" | grep -c '^miss-')" -ge 1
# The shrunk reproducer replays as a monitor miss through htlc inject:
# some communicator row shows ground-truth violations with zero dips
# caught in time (last two columns: viol > 0, pre-alarm == 0).
"$HTLC" inject assets/steer_by_wire.htl "$FUZZ_DIR/a/miss-000.scn" 400 12648430 4 \
    | awk 'NF >= 2 && $(NF-1) ~ /^[0-9]+$/ && $NF ~ /^[0-9]+$/ && $(NF-1) > 0 && $NF == 0 {found=1}
           END {exit !found}'
# The committed example reproducer stays a live miss as well.
"$HTLC" inject assets/steer_by_wire.htl examples/scenarios/steer_monitor_miss.scn \
    400 12648430 4 \
    | awk 'NF >= 2 && $(NF-1) ~ /^[0-9]+$/ && $NF ~ /^[0-9]+$/ && $(NF-1) > 0 && $NF == 0 {found=1}
           END {exit !found}'

echo "==> incremental-equivalence gate (warm analyze ≡ cold, byte-for-byte)"
INCR_DIR=$(mktemp -d)
trap 'rm -rf "$METRICS_DIR" "$FUZZ_DIR" "$INCR_DIR"' EXIT
cp assets/steer_by_wire.htl "$INCR_DIR/spec.htl"
# Cold run on the base spec seeds the cache.
"$HTLC" analyze "$INCR_DIR/spec.htl" > /dev/null 2>&1
# Edit the spec three ways: a metric tightening (refinement reuse), a
# metric loosening (recompute), and a module edit (dirties the lint
# cone). After each, the warm run against the stale cache must be
# byte-identical to a cold run on the edited spec.
for edit in 's/wcet torque on ecu_a 5;/wcet torque on ecu_a 4;/' \
            's/wcet torque on ecu_a 4;/wcet torque on ecu_a 6;/' \
            's/invoke filter reads angle\[0\]/invoke filter reads  angle[0]/'; do
    sed -i "$edit" "$INCR_DIR/spec.htl"
    "$HTLC" analyze "$INCR_DIR/spec.htl" \
        > "$INCR_DIR/warm.out" 2> "$INCR_DIR/warm.err"
    rm -f "$INCR_DIR/spec.htl.logrel-cache"
    "$HTLC" analyze "$INCR_DIR/spec.htl" \
        > "$INCR_DIR/cold.out" 2> "$INCR_DIR/cold.err"
    diff "$INCR_DIR/warm.out" "$INCR_DIR/cold.out"
    diff "$INCR_DIR/warm.err" "$INCR_DIR/cold.err"
done
# Same property for the cached whole-command report: lint --incremental
# must render identically to a cold lint after an edit.
cp assets/three_tank.htl "$INCR_DIR/lintspec.htl"
"$HTLC" lint --incremental "$INCR_DIR/lintspec.htl" > /dev/null 2>&1 || true
sed -i 's/period 500/period 250/' "$INCR_DIR/lintspec.htl"
"$HTLC" lint --incremental "$INCR_DIR/lintspec.htl" \
    > "$INCR_DIR/lint_warm.out" 2> "$INCR_DIR/lint_warm.err" || true
rm -f "$INCR_DIR/lintspec.htl.logrel-cache"
"$HTLC" lint "$INCR_DIR/lintspec.htl" \
    > "$INCR_DIR/lint_cold.out" 2> "$INCR_DIR/lint_cold.err" || true
diff "$INCR_DIR/lint_warm.out" "$INCR_DIR/lint_cold.out"
diff "$INCR_DIR/lint_warm.err" "$INCR_DIR/lint_cold.err"
# Same property for certify --incremental: after an LRC weakening (the
# refinement-reuse path) the warm certificate must be byte-identical to
# a cold run on the edited spec.
cp assets/three_tank.htl "$INCR_DIR/certspec.htl"
"$HTLC" certify --incremental "$INCR_DIR/certspec.htl" > /dev/null 2>&1
sed -i 's/lrc 0.998/lrc 0.99/' "$INCR_DIR/certspec.htl"
"$HTLC" certify --incremental "$INCR_DIR/certspec.htl" \
    > "$INCR_DIR/cert_warm.out" 2> "$INCR_DIR/cert_warm.err"
rm -f "$INCR_DIR/certspec.htl.logrel-cache"
"$HTLC" certify "$INCR_DIR/certspec.htl" \
    > "$INCR_DIR/cert_cold.out" 2> "$INCR_DIR/cert_cold.err"
diff "$INCR_DIR/cert_warm.out" "$INCR_DIR/cert_cold.out"
diff "$INCR_DIR/cert_warm.err" "$INCR_DIR/cert_cold.err"
# A corrupt cache must fall back to cold analysis, not fail.
printf 'garbage' > "$INCR_DIR/spec.htl.logrel-cache"
"$HTLC" analyze "$INCR_DIR/spec.htl" > "$INCR_DIR/fallback.out" 2> /dev/null
diff "$INCR_DIR/fallback.out" "$INCR_DIR/cold.out"

echo "==> loadbench smoke suite (pinned seed-1 digests of every workload)"
# The benchmark is a workspace of its own, so the workspace `cargo test`
# above does not run its suite; its digests are the end-to-end check that
# no random stream moved.
cargo test -q --offline --manifest-path loadbench/Cargo.toml > /dev/null

echo "==> campaign service tests (byte-equality, cache, backpressure)"
cargo test -q --test serve > /dev/null

echo "==> htlc serve --stdin smoke (job service survives malformed jobs)"
SERVE_DIR=$(mktemp -d)
trap 'rm -rf "$METRICS_DIR" "$FUZZ_DIR" "$INCR_DIR" "$SERVE_DIR"' EXIT
# Five lines down one pipe: a fresh compile, a malformed request, a job
# asking for more replications than the cap, a line of 50,000 `[` (far
# past the JSON reader's depth cap), and a resubmission of the first
# spec. The malformed, oversized and deep lines must yield structured
# rejections — not kill the service — and the pipe must drain to a clean
# exit 0 at EOF.
{
    cat <<'JOBS'
{"schema":"logrel-job-v1","id":"smoke-1","spec_path":"examples/htl/infusion_pump.htl","scenario_path":"examples/scenarios/pump_outage.scn","rounds":500,"replications":2,"seed":7}
{"schema":"logrel-job-v1","id":"smoke-bad","spec_path":"examples/htl/infusion_pump.htl"}
{"schema":"logrel-job-v1","id":"smoke-huge","spec_path":"examples/htl/infusion_pump.htl","scenario_path":"examples/scenarios/pump_outage.scn","rounds":500,"replications":18446744073709551615,"seed":7}
JOBS
    python3 -c 'print("[" * 50000)'
    cat <<'JOBS'
{"schema":"logrel-job-v1","id":"smoke-2","spec_path":"examples/htl/infusion_pump.htl","scenario_path":"examples/scenarios/pump_outage.scn","rounds":500,"replications":2,"seed":7}
JOBS
} | "$HTLC" serve --stdin --workers 2 > "$SERVE_DIR/out.ndjson"
python3 - "$SERVE_DIR/out.ndjson" "$METRICS_DIR/m.prom.json" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert len(lines) == 7, f"expected 7 response lines, got {len(lines)}"
m1, s1, rej, huge, deep, m2, s2 = lines
assert m1["schema"] == "logrel-metrics-v1", m1.get("schema")
assert (s1["id"], s1["status"], s1["cache"]) == ("smoke-1", "done", "miss"), s1
assert (rej["id"], rej["status"], rej["code"]) == ("smoke-bad", "rejected", "S001"), rej
assert (huge["id"], huge["status"], huge["code"]) == ("smoke-huge", "rejected", "S004"), huge
assert (deep["id"], deep["status"], deep["code"]) == ("?", "rejected", "S001"), deep
assert (s2["id"], s2["status"], s2["cache"]) == ("smoke-2", "done", "hit"), s2
assert m1 == m2, "resubmitted job must reproduce the metrics byte-for-byte"
# The served registry equals the standalone `htlc inject --metrics`
# export of the same (spec, scenario, seed, lanes) campaign, up to the
# wall-clock span gauges a service job never records.
def strip(d):
    return {k: strip(v) if isinstance(v, dict) else v
            for k, v in d.items() if not k.endswith("_seconds")}
inj = json.load(open(sys.argv[2]))
assert strip(inj) == strip(m1), "serve output diverged from htlc inject"
PY

echo "==> experiment binaries reproduce results/ (each also runs its paper-shape asserts)"
# Every captured file is a function of the source tree (exp_refinement
# prints its wall-clock columns to stderr), so every file is diffed.
RESULTS_DIR=$(mktemp -d)
trap 'rm -rf "$METRICS_DIR" "$FUZZ_DIR" "$INCR_DIR" "$SERVE_DIR" "$RESULTS_DIR"' EXIT
scripts/results.sh "$RESULTS_DIR"
diff -r results "$RESULTS_DIR"

echo "==> bench_snapshot regression gate (vs BENCH_baseline.json)"
# Absolute throughput swings up to 2x between phases on the shared VM,
# so the absolute gate runs wide (coarse smoke alarm). The ratio bounds
# inside bench_snapshot stay tight: each ratio is a median of per-rep
# paired ratios, which cancels drift within a rep but not noise.
cargo run --release -q -p logrel-bench --bin bench_snapshot -- \
    --out "$METRICS_DIR/BENCH_current.json" --compare BENCH_baseline.json \
    --tolerance 0.40 > /dev/null

echo "verify: OK"
