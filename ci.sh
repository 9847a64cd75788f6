#!/usr/bin/env bash
# Tier-1 verification, exactly what CI runs. Keep in sync with ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# repeat <count> <command...>: run a command <count> times; on the first
# failure print its output and stop CI.
repeat() {
    local count=$1 log
    shift
    log="$(mktemp)"
    for run in $(seq 1 "$count"); do
        if ! "$@" >"$log" 2>&1; then
            cat "$log"
            echo "$* failed on run $run of $count"
            exit 1
        fi
    done
    rm -f "$log"
}

# Determinism gate: the core library's unit tests run in parallel in one
# process (fleets, caches, failpoints). Each test scopes its own fault
# handle, so order must not matter; repeating the suite turns a
# scheduling-dependent flake into a CI failure instead of a rare one.
echo "==> cargo test -q -p wasabi --lib (30 runs)"
repeat 30 cargo test -q -p wasabi --lib

# Same gate for the daemon lifecycle suite: several daemons and clients
# run in one test process, each owning its counters, and the tests
# assert exact counts.
echo "==> cargo test -q -p wasabi-server --test lifecycle (10 runs)"
repeat 10 cargo test -q -p wasabi-server --test lifecycle

# Differential-oracle gate: re-run the three-way oracle (direct-emit vs.
# rewrite+flat vs. Reference) with elevated case counts so every CI run
# gets real random-module coverage, not just the fast local default. The
# parallel-build proptest guards the deterministic merge of per-function
# translation tables (N threads must build what one thread builds).
echo "==> differential oracle (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q --test instrumented_differential
PROPTEST_CASES=64 cargo test -q -p wasabi-vm --test zero_cost_unsubscribed
PROPTEST_CASES=64 cargo test -q -p wasabi --test proptests parallel_fused_build_is_bit_identical

# Cohort differential gate: N interleaved instances must stay
# bit-identical to N sequential runs (results, traps, instruction
# counts, memory, globals) across random modules, chunk sizes, fuel
# limits, and budget preemption.
echo "==> cohort differential (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p wasabi-vm --test cohort_vs_sequential

# Chaos gate: the seeded fault-injection suite. Failpoints fire inside
# the disk cache, the build slots, the fleet workers, and the server
# frame layer; every injected fault must degrade to a structured error
# on a surviving process, retries must stay bounded, and the jobs that
# dodge the faults must produce reports bit-identical to a fault-free
# run. Each test arms its own fault handle, so the suite is fully
# deterministic and needs no lock.
echo "==> chaos suite (seeded fault injection)"
cargo test -q -p wasabi --test chaos

echo "==> cargo fmt --check"
cargo fmt --check

# Documentation gate: the rustdoc must build without warnings (broken
# intra-doc links, missing docs the lints catch, ...). Library targets
# only: the `wasabi` CLI bin would collide with the `wasabi` lib's output
# path and bins carry no public API docs.
echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib --quiet

# Downstream-consumer smoke: every example must build AND run, so an API
# break in examples/ fails CI, not the next user.
echo "==> examples"
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "    running example: $name"
    cargo run --release -q -p wasabi-repro --example "$name" >/dev/null
done

# Every bench bin in smoke mode (seconds each, nothing written). The
# baseline bins check their fresh result against the gate table in
# crates/bench/src/lib.rs and exit 1 on a failure; `cargo test` above
# already checked the committed BENCH_*.json files against the same
# table (crates/bench/tests/committed_baselines.rs).
echo "==> bench smoke (every bench bin --smoke, gated)"
for bin in crates/bench/src/bin/*.rs; do
    name="$(basename "$bin" .rs)"
    echo "    $name --smoke"
    target/release/"$name" --smoke >/dev/null
done

# Server e2e smoke: bring up a real wasabid on a temp unix socket, prove
# content dedup via the daemon's own counters, run a 3-job batch through
# the client bin, and check the streamed result lines against the same
# jobs run through `wasabi --batch` — then drain and require a clean exit.
echo "==> server e2e smoke (wasabid over a unix socket)"
SMOKE_DIR="$(mktemp -d)"
WASABID_PID=""
cleanup_server_smoke() {
    [ -n "$WASABID_PID" ] && kill "$WASABID_PID" 2>/dev/null
    rm -rf "$SMOKE_DIR"
}
trap cleanup_server_smoke EXIT

# start_wasabid <socket> <log> [wasabid flags...]: start a daemon with 2
# workers in the background and wait for its socket.
start_wasabid() {
    local sock=$1 log=$2
    shift 2
    target/release/wasabid --socket "$sock" --workers 2 "$@" 2>"$log" &
    WASABID_PID=$!
    for _ in $(seq 1 200); do [ -S "$sock" ] && break; sleep 0.05; done
    [ -S "$sock" ] || { cat "$log"; echo "wasabid ($log) did not come up"; exit 1; }
}

# stop_wasabid <socket>: drain the daemon. In-flight work is done, so it
# must exit 0 on its own and remove its socket.
stop_wasabid() {
    local sock=$1
    target/release/wasabi-client --socket "$sock" drain 2>/dev/null
    for _ in $(seq 1 200); do kill -0 "$WASABID_PID" 2>/dev/null || break; sleep 0.05; done
    if kill -0 "$WASABID_PID" 2>/dev/null; then
        echo "wasabid on $sock did not exit after drain"; exit 1
    fi
    wait "$WASABID_PID"
    WASABID_PID=""
    if [ -e "$sock" ]; then
        echo "wasabid left its socket file $sock behind"; exit 1
    fi
}

cargo run --release -q -p wasabi-workloads --bin gen -- \
    kernel gemm 8 "$SMOKE_DIR/gemm.wasm" >/dev/null
SOCK="$SMOKE_DIR/wasabid.sock"
start_wasabid "$SOCK" "$SMOKE_DIR/wasabid.log"

# Upload the same module twice: the second must be a dedup hit, observed
# through the status counters (not just the client's word for it).
target/release/wasabi-client --socket "$SOCK" upload "$SMOKE_DIR/gemm.wasm" >/dev/null
target/release/wasabi-client --socket "$SOCK" upload "$SMOKE_DIR/gemm.wasm" >/dev/null
target/release/wasabi-client --socket "$SOCK" status >"$SMOKE_DIR/status1.json"
python3 - "$SMOKE_DIR/status1.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    s = json.load(f)
assert s["state"] == "accepting", s
assert s["uploads"] == 2, f"expected 2 uploads, got {s['uploads']}"
assert s["dedup_hits"] == 1, f"second upload must dedup: {s}"
assert s["modules"] == 1, f"dedup must not create a second entry: {s}"
print(f"    dedup: uploads={s['uploads']} dedup_hits={s['dedup_hits']} "
      f"modules={s['modules']}")
EOF

# 3-job batch through the client bin (streams one JSON line per result)
# vs. the same jobs through the CLI's --batch mode.
target/release/wasabi-client --socket "$SOCK" submit "$SMOKE_DIR/gemm.wasm" \
    --analyses instruction_mix,call_graph --jobs 3 \
    >"$SMOKE_DIR/streamed.jsonl" 2>/dev/null
cat >"$SMOKE_DIR/manifest.json" <<'EOF'
{"jobs": [
  {"module": "gemm.wasm", "analyses": ["instruction_mix", "call_graph"]},
  {"module": "gemm.wasm", "analyses": ["instruction_mix", "call_graph"]},
  {"module": "gemm.wasm", "analyses": ["instruction_mix", "call_graph"]}
]}
EOF
target/release/wasabi --batch "$SMOKE_DIR/manifest.json" \
    >"$SMOKE_DIR/batch.jsonl" 2>/dev/null
target/release/wasabi-client --socket "$SOCK" status >"$SMOKE_DIR/status2.json"
python3 - "$SMOKE_DIR/streamed.jsonl" "$SMOKE_DIR/batch.jsonl" "$SMOKE_DIR/status2.json" <<'EOF'
import json, sys
streamed = {}
with open(sys.argv[1]) as f:
    for line in f:
        r = json.loads(line)
        streamed[r["job"]] = r
with open(sys.argv[2]) as f:
    batch = {json.loads(line)["job"]: json.loads(line) for line in f}
assert len(streamed) == 3 and len(batch) == 3, (len(streamed), len(batch))
for job, b in batch.items():
    s = streamed[job]
    # "module" differs by design: a content hash daemon-side, a manifest
    # path batch-side. Everything observable must match.
    for field in ("invoke", "results", "reports"):
        assert s[field] == b[field], (
            f"job {job} field {field!r} diverges:\n  streamed {s[field]}\n  batch {b[field]}")
    assert "cache_hit" in s, s
with open(sys.argv[3]) as f:
    st = json.load(f)
assert st["jobs_done"] == 3 and st["in_flight"] == 0, st
assert st["cache_misses"] == 1 and st["cache_hits"] == 2, (
    f"3 identical jobs must build once and hit twice: {st}")
print(f"    streamed == batch on 3 jobs; daemon built once "
      f"(cache_misses={st['cache_misses']}, cache_hits={st['cache_hits']})")
EOF

stop_wasabid "$SOCK"
echo "    drained: wasabid exited 0 and removed its socket"

# Disk-tier e2e: a daemon started with --disk-cache persists every
# prepared session; a RESTARTED daemon over the same directory must serve
# the same module from the disk tier — no rebuild — proven by its own
# counters: disk_cache_hits goes to 1 and the build-phase timer stays at
# zero in the fresh process.
echo "==> server e2e: disk cache survives a daemon restart"
DCACHE="$SMOKE_DIR/diskcache"
SOCK2="$SMOKE_DIR/wasabid2.sock"
start_wasabid "$SOCK2" "$SMOKE_DIR/wasabid2.log" --disk-cache "$DCACHE"
target/release/wasabi-client --socket "$SOCK2" submit "$SMOKE_DIR/gemm.wasm" \
    --analyses instruction_mix >/dev/null 2>&1
target/release/wasabi-client --socket "$SOCK2" status >"$SMOKE_DIR/status3.json"
python3 - "$SMOKE_DIR/status3.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    s = json.load(f)
assert s["cache_misses"] == 1, s
assert s["disk_cache_misses"] == 1 and s["disk_cache_hits"] == 0, (
    f"a cold daemon must miss the disk tier exactly once: {s}")
assert s["build_ms"] > 0, f"a cold daemon must report its build phase: {s}"
print(f"    cold daemon: disk_cache_misses={s['disk_cache_misses']}, "
      f"built in {s['build_ms']:.1f} ms "
      f"(worker busy {s['build_worker_ms']:.1f} ms)")
EOF
stop_wasabid "$SOCK2"

# Restart over the SAME cache directory: the upload is new (fresh content
# store), the memory tier is cold (cache_misses goes to 1), but the disk
# tier serves the prepared session — zero rebuilds in this process.
start_wasabid "$SOCK2" "$SMOKE_DIR/wasabid3.log" --disk-cache "$DCACHE"
target/release/wasabi-client --socket "$SOCK2" submit "$SMOKE_DIR/gemm.wasm" \
    --analyses instruction_mix >"$SMOKE_DIR/restarted.jsonl" 2>/dev/null
target/release/wasabi-client --socket "$SOCK2" status >"$SMOKE_DIR/status4.json"
python3 - "$SMOKE_DIR/status4.json" "$SMOKE_DIR/restarted.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    s = json.load(f)
assert s["jobs_done"] == 1, s
assert s["cache_misses"] == 1, f"memory tier starts cold after a restart: {s}"
assert s["disk_cache_hits"] == 1 and s["disk_cache_misses"] == 0, (
    f"restarted daemon must serve the module from the disk tier: {s}")
assert s["build_ms"] == 0, (
    f"a disk hit must not rebuild — the build phase stayed idle: {s}")
with open(sys.argv[2]) as f:
    results = [json.loads(line) for line in f]
assert len(results) == 1 and "reports" in results[0], results
print(f"    restarted daemon: disk_cache_hits={s['disk_cache_hits']}, "
      f"build_ms={s['build_ms']} (served from disk, no rebuild)")
EOF
stop_wasabid "$SOCK2"
echo "    disk tier: rebuild-free restart verified"

# Governance e2e: a job that never terminates is killed by its deadline
# on a live daemon — the client exits non-zero with a structured error,
# the worker is reclaimed (not leaked), the next batch completes
# normally, and the daemon's own counters record the timeout.
echo "==> server e2e: deadline kills a spinning job, daemon keeps serving"
SOCK3="$SMOKE_DIR/wasabid-gov.sock"
cargo run --release -q -p wasabi-workloads --bin gen -- \
    spin "$SMOKE_DIR/spin.wasm" >/dev/null
start_wasabid "$SOCK3" "$SMOKE_DIR/wasabid-gov.log"
if target/release/wasabi-client --socket "$SOCK3" submit "$SMOKE_DIR/spin.wasm" \
    --deadline-ms 100 >/dev/null 2>"$SMOKE_DIR/deadline.err"; then
    echo "client must exit non-zero when its job is killed by the deadline"; exit 1
fi
grep -q "deadline" "$SMOKE_DIR/deadline.err" || {
    cat "$SMOKE_DIR/deadline.err"
    echo "expected a structured deadline error on stderr"; exit 1; }
target/release/wasabi-client --socket "$SOCK3" submit "$SMOKE_DIR/gemm.wasm" \
    --analyses instruction_mix >"$SMOKE_DIR/after-deadline.jsonl" 2>/dev/null
[ -s "$SMOKE_DIR/after-deadline.jsonl" ] || {
    echo "daemon did not serve the batch after the deadline kill"; exit 1; }
target/release/wasabi-client --socket "$SOCK3" status >"$SMOKE_DIR/status-gov.json"
python3 - "$SMOKE_DIR/status-gov.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    s = json.load(f)
assert s["timeouts"] == 1, f"status must count the deadline kill once: {s}"
assert s["jobs_done"] >= 2, f"the follow-up batch must have run: {s}"
print(f"    deadline kill counted (timeouts={s['timeouts']}), "
      f"daemon kept serving ({s['jobs_done']} jobs done)")
EOF
stop_wasabid "$SOCK3"
echo "    governance: deadline e2e verified"

# Cohort e2e: a `sweep_args` job expands daemon-side into one cohort and
# streams ONE result frame per instance, tagged with its index — the
# aggregate analysis reports ride the last instance's frame.
echo "==> server e2e: sweep_args job streams one frame per instance"
SOCK4="$SMOKE_DIR/wasabid-sweep.sock"
cat >"$SMOKE_DIR/sweep-args.json" <<'EOF'
[[], [], []]
EOF
start_wasabid "$SOCK4" "$SMOKE_DIR/wasabid-sweep.log"
target/release/wasabi-client --socket "$SOCK4" submit "$SMOKE_DIR/gemm.wasm" \
    --analyses instruction_mix --sweep-args "$SMOKE_DIR/sweep-args.json" \
    >"$SMOKE_DIR/sweep.jsonl" 2>/dev/null
python3 - "$SMOKE_DIR/sweep.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    frames = [json.loads(line) for line in f]
assert len(frames) == 3, f"expected one frame per instance, got {len(frames)}"
assert [f["instance"] for f in frames] == [0, 1, 2], frames
assert len({f["job"] for f in frames}) == 1, "all frames belong to one job"
assert all(f["results"] == frames[0]["results"] for f in frames), (
    "identical inputs must produce identical per-instance results")
assert all(not f["reports"] for f in frames[:-1]), (
    "aggregate reports must ride only the last frame")
assert frames[-1]["reports"], "the last frame carries the analysis reports"
print(f"    sweep: 3 instance frames, reports on frame {frames[-1]['instance']} only")
EOF
stop_wasabid "$SOCK4"
echo "    cohort: sweep_args e2e verified"

echo "ci.sh: all checks passed"
