#!/usr/bin/env bash
# Tier-1 verification gate: hermetic build, full test suite, and lint —
# all with --offline, proving no network/registry access is needed.
# --workspace matters: the root is itself a package, so without it cargo
# would build/test only the root crate, skipping member bins and tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --workspace --release --offline =="
cargo build --workspace --release --offline

echo "== cargo test --workspace -q --offline =="
cargo test --workspace -q --offline

# perfbench is its own Cargo workspace (path deps on crates/), so
# --workspace above never reaches its unit tests.
echo "== cargo test --release --manifest-path perfbench/Cargo.toml =="
cargo test --release -q --offline --manifest-path perfbench/Cargo.toml

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

stats_a="$(mktemp)"
stats_b="$(mktemp)"
trace_json="$(mktemp)"
autopsy_json="$(mktemp)"
reduce_json="$(mktemp)"
path_json="$(mktemp)"
golden_out="$(mktemp)"
arg_out="$(mktemp)"
arg_err="$(mktemp)"
ptxd_addr="$(mktemp)"
ptxd_stats="$(mktemp)"
ptxd_run_a="$(mktemp)"
ptxd_run_b="$(mktemp)"
ptxd_access="$(mktemp)"
ptxtop_out="$(mktemp)"
ptxd_pid=""
cleanup() {
    [ -n "$ptxd_pid" ] && kill "$ptxd_pid" 2> /dev/null
    rm -f "$stats_a" "$stats_b" "$trace_json" "$autopsy_json" "$reduce_json" \
        "$path_json" "$golden_out" "$arg_out" "$arg_err" "$ptxd_addr" "$ptxd_stats" \
        "$ptxd_run_a" "$ptxd_run_b" "$ptxd_access" "$ptxtop_out"
}
trap cleanup EXIT

# Learnt-DB reduction smoke: a conflict-heavy instance (pigeonhole) with
# a pinned low sweep cadence must actually delete clauses — nonzero
# solver.reduce_sweeps AND solver.deleted_clauses. Guards the LBD
# deletion policy end to end (the pre-PR-6 retention bug showed up as
# these counters silently reading 0).
echo "== learnt-DB reduction smoke (ptxsat --pigeonhole) =="
cargo run --release --offline -q -p ptxmm-satsolver --bin ptxsat -- \
    --pigeonhole 7 --reduce-interval 50 --stats-json "$reduce_json" > /dev/null || {
    status=$?
    # 20 is the conventional UNSAT exit code; anything else is a failure.
    if [ "$status" -ne 20 ]; then
        echo "verify.sh: ptxsat --pigeonhole 7 exited $status (expected UNSAT/20)" >&2
        exit 1
    fi
}
for c in solver.reduce_sweeps solver.deleted_clauses solver.binary_propagations; do
    v="$(sed -n 's/^{"kind":"counter","name":"'"$c"'","value":\([0-9]*\)}$/\1/p' "$reduce_json")"
    if [ -z "$v" ] || [ "$v" -eq 0 ]; then
        echo "verify.sh: reduction smoke counter $c missing or zero" >&2
        exit 1
    fi
done

# Counter gate: benchgate runs the fig17 sweep at bounds 2-3 (scratch
# vs sessions), the litmus SAT path (scratch vs pooled sessions) and
# the ptxd suite (scratch vs cold vs warm server) in-process on one
# worker, fails on any verdict drift across paths, on a cold cache hit
# or warm miss, and on a warm pass under 10x scratch, then compares
# every counter with crates/bench/counters.json exactly: a counter that
# grew, shrank, appeared or vanished fails. Counters are deterministic
# on one worker, so drift means the code no longer matches the
# baseline; regenerate it deliberately with UPDATE_BENCHGATE=1.
echo "== counter gate (benchgate) =="
cargo run --release --offline -q -p ptxmm-bench --bin benchgate

# Observability smoke: a fixed-seed single-job ptxherd sweep must emit a
# well-formed stats snapshot with nonzero work counters, and two
# identical runs must give byte-identical counter records (one worker
# makes every counter deterministic).
echo "== obs stats smoke (ptxherd --suite --sat --stats-json) =="
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --suite --sat --stats-json "$stats_a" > /dev/null
if grep -qvE '^\{"kind":"(note|counter|gauge|timing|histogram)","name":"' "$stats_a"; then
    echo "verify.sh: malformed stats record in $stats_a" >&2
    exit 1
fi
for c in solver.propagations solver.conflicts circuit.gates \
         circuit.gate_cache_hits harness.queries \
         sat.symbolic_rf_vars sat.value_bits; do
    v="$(sed -n 's/^{"kind":"counter","name":"'"$c"'","value":\([0-9]*\)}$/\1/p' "$stats_a")"
    if [ -z "$v" ] || [ "$v" -eq 0 ]; then
        echo "verify.sh: stats counter $c missing or zero" >&2
        exit 1
    fi
done
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --suite --sat --stats-json "$stats_b" > /dev/null
if ! diff <(grep '^{"kind":"counter"' "$stats_a") <(grep '^{"kind":"counter"' "$stats_b"); then
    echo "verify.sh: stats counters drifted between two identical runs" >&2
    exit 1
fi

# Symbolic-path smoke: with the enumeration fallback retired, every PTX
# record in a --sat sweep must report the symbolic path — zero fallback
# markers — while C11 tests keep reporting the enumeration engine.
echo "== symbolic-path smoke (ptxherd --suite --sat --json, zero fallbacks) =="
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --suite --sat --json > "$path_json"
if grep -q 'fallback=enumeration' "$path_json"; then
    echo "verify.sh: enumeration fallback reappeared on the SAT path" >&2
    exit 1
fi
grep -q '"path":"symbolic"' "$path_json"
grep -q '"path":"enumeration"' "$path_json"

# Golden stdout: the flagless human output of these drivers carries no
# wall times and is deterministic (one worker, or a seeded search whose
# pool keeps input order, as for ptxdistill --jobs 2), so each run must
# match its file under tests/golden/ byte for byte. After an intended
# output change, regenerate them with UPDATE_GOLDEN=1 bash scripts/verify.sh.
echo "== golden stdout (tests/golden/) =="
check_golden() {
    local name="$1"
    shift
    if ! "$@" > "$golden_out" 2> /dev/null; then
        echo "verify.sh: $* exited non-zero" >&2
        exit 1
    fi
    if [ -n "${UPDATE_GOLDEN:-}" ]; then
        cp "$golden_out" "tests/golden/$name"
    elif ! diff -u "tests/golden/$name" "$golden_out"; then
        echo "verify.sh: stdout of \`$*\` differs from tests/golden/$name" >&2
        exit 1
    fi
}
check_golden ptxherd-suite.txt ./target/release/ptxherd --suite
check_golden ptxherd-suite-sat.txt ./target/release/ptxherd --suite --sat
check_golden fig17_table-2-3.txt ./target/release/fig17_table 2 3
check_golden ptxdistill-b4.txt ./target/release/ptxdistill --max-bound 4 --witnesses 1 --jobs 2

# Model-distinguishing smoke: every line of the ptxdistill golden is a
# synthesized test whose verdicts were re-verified under both models on
# both engines (the lifter discards anything that fails the round trip);
# at bound 4 at least one must distinguish the models.
if ! grep -qE 'ptx=(Forbid ptx-cumulative=Allow|Allow ptx-cumulative=Forbid)' \
    tests/golden/ptxdistill-b4.txt; then
    echo "verify.sh: ptxdistill found no distinguishing test at bound 4" >&2
    exit 1
fi
grep -qE 'searched [0-9]+ points to bound 4, lifted [0-9]+ tests, [1-9][0-9]* distinguishing' \
    tests/golden/ptxdistill-b4.txt

# Synthesized-corpus gate: every checked-in test in litmus/synth/ must
# have a conformance row in litmus/EXPECTED.txt pinning *both* models'
# verdicts (the two-column format the conformance sweep regenerates).
echo "== synthesized-corpus EXPECTED.txt gate =="
for f in litmus/synth/*.litmus; do
    name="$(basename "$f")"
    if ! grep -qE "^synth/$name [^ ]+ expected=[A-Za-z]+ ptx=(observable|never) ptx-cumulative=(observable|never) Ok$" \
        litmus/EXPECTED.txt; then
        echo "verify.sh: litmus/EXPECTED.txt is missing a two-model row for synth/$name" >&2
        exit 1
    fi
done

# ptxd service smoke: start the daemon on an ephemeral port with an
# access log, drive it twice with `ptxherd --server` over five bundled
# litmus files, and check (a) the verdict columns of the two sweeps are
# byte-identical, (b) the second sweep is answered entirely from the
# verdict cache — with ptxtop reading the 100% recent hit ratio and the
# latency percentiles off the live server — (c) SIGTERM drains and
# exits 0 with the final stats flushed, and (d) the access log parses
# with one record per request sent.
echo "== ptxd service smoke (ptxherd --server, warm cache, ptxtop, SIGTERM drain) =="
: > "$ptxd_addr"
: > "$ptxd_access"
./target/release/ptxd --listen 127.0.0.1:0 --port-file "$ptxd_addr" \
    --stats-json "$ptxd_stats" --access-log "$ptxd_access" 2> /dev/null &
ptxd_pid=$!
for _ in $(seq 1 100); do
    [ -s "$ptxd_addr" ] && break
    sleep 0.1
done
if ! [ -s "$ptxd_addr" ]; then
    echo "verify.sh: ptxd did not write its port file" >&2
    exit 1
fi
ptxd_files="litmus/mp.litmus litmus/sb+fences.litmus litmus/lb.litmus \
    litmus/cas.litmus litmus/mp-c11.litmus"
# shellcheck disable=SC2086 # word-splitting the file list is intended
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --server "$(cat "$ptxd_addr")" --json $ptxd_files > "$ptxd_run_a"
# shellcheck disable=SC2086
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --server "$(cat "$ptxd_addr")" --json $ptxd_files > "$ptxd_run_b"
# Strip the per-run fields (timing, cache provenance, solver detail);
# what must be byte-identical is the verdict column: test, verdict,
# timed_out, path.
strip_run_fields() {
    sed 's/,"wall_secs":[^,}]*//; s/,"cached":[a-z]*//; s/,"detail":"[^"]*"//' "$1"
}
if ! diff <(strip_run_fields "$ptxd_run_a") <(strip_run_fields "$ptxd_run_b"); then
    echo "verify.sh: ptxd verdicts drifted between cold and warm sweeps" >&2
    exit 1
fi
if grep -q '"verdict":"FAILED"\|"verdict":"Unknown"' "$ptxd_run_a"; then
    echo "verify.sh: ptxd sweep produced a failing verdict" >&2
    exit 1
fi
warm_hits="$(grep -c '"cached":true' "$ptxd_run_b")"
if [ "$warm_hits" -ne 5 ]; then
    echo "verify.sh: warm ptxd sweep had $warm_hits/5 cache hits" >&2
    exit 1
fi
# One ptxtop frame off the live server: the request rate must be
# nonzero, both latency percentile rows must be present, and with
# --recent 5 the recent cache ratio covers exactly the warm sweep — all
# five of its requests were hits.
./target/release/ptxtop "$(cat "$ptxd_addr")" --once --recent 5 > "$ptxtop_out"
rps="$(sed -n 's/.* rps \([0-9.]*\) .*/\1/p' "$ptxtop_out")"
if [ -z "$rps" ] || ! awk -v r="$rps" 'BEGIN { exit !(r > 0) }'; then
    echo "verify.sh: ptxtop reported no request rate (rps='$rps')" >&2
    cat "$ptxtop_out" >&2
    exit 1
fi
grep -q 'p50' "$ptxtop_out"
grep -q '^queue_wait ' "$ptxtop_out"
grep -q '^solve ' "$ptxtop_out"
if ! grep -q 'recent 100.0% (5/5)' "$ptxtop_out"; then
    echo "verify.sh: ptxtop recent cache ratio is not 100% over the warm sweep" >&2
    cat "$ptxtop_out" >&2
    exit 1
fi
kill -TERM "$ptxd_pid"
if ! wait "$ptxd_pid"; then
    echo "verify.sh: ptxd exited non-zero on SIGTERM" >&2
    exit 1
fi
ptxd_pid=""
for c in ptxd.requests ptxd.cache_hits; do
    v="$(sed -n 's/^{"kind":"counter","name":"'"$c"'","value":\([0-9]*\)}$/\1/p' "$ptxd_stats")"
    if [ -z "$v" ] || [ "$v" -eq 0 ]; then
        echo "verify.sh: ptxd drain stats counter $c missing or zero" >&2
        exit 1
    fi
done
# The access log validates with the service's own JSON parser and holds
# exactly one record per run request sent (two sweeps of five).
if ! ./target/release/ptxtop --check-log "$ptxd_access" \
    | grep -q ': 10 records, all parse'; then
    echo "verify.sh: access log did not validate at 10 records" >&2
    ./target/release/ptxtop --check-log "$ptxd_access" >&2 || true
    exit 1
fi

# Trace smoke: a bound-3 fig17_table run with --trace-out must produce
# a Chrome trace-event JSON file that traceview accepts (traceview's
# parser rejects malformed JSON with a nonzero exit) with the three
# solver phase spans; a ptxherd sweep must tag query spans. traceview
# doubles as the well-formedness checker for both files.
echo "== trace smoke (--trace-out + traceview) =="
cargo run --release --offline -q -p ptxmm-bench --bin fig17_table -- 3 \
    --trace-out "$trace_json" > /dev/null
for span in translate encode solve; do
    if ! grep -q "\"name\":\"$span\"" "$trace_json"; then
        echo "verify.sh: trace is missing the $span span" >&2
        exit 1
    fi
done
cargo run --release --offline -q -p ptxmm-obs --bin traceview -- "$trace_json" \
    | grep -q "top spans by self-time"
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --suite --sat --trace-out "$trace_json" > /dev/null
grep -q '"name":"query:' "$trace_json"
cargo run --release --offline -q -p ptxmm-obs --bin traceview -- "$trace_json" \
    | grep -q "per-query phase attribution"

# Timeout-autopsy smoke: with a zero-second budget every query times out
# and its JSON record must carry a non-empty flight-recorder autopsy
# (events + live counters). ptxherd exits non-zero on timeouts, which is
# expected here.
echo "== timeout-autopsy smoke (ptxherd --timeout-secs 0 --json) =="
cargo run --release --offline -q -p ptxmm-litmus --bin ptxherd -- \
    --suite --sat --timeout-secs 0 --json > "$autopsy_json" || true
grep -q '"timed_out":true' "$autopsy_json"
grep -q '"autopsy":{"events":\[{' "$autopsy_json"
grep -q '"counters":{"' "$autopsy_json"

# JSON-escaper dedup: obs::json is the workspace's single escaper; any
# hand-rolled copy (the telltale is emitting a backslash escape with
# push_str) outside it tends to drift on control characters. Keep it so.
echo "== single JSON escaper check =="
if grep -rn 'push_str("\\\\' crates --include='*.rs' | grep -v 'crates/obs/src/json.rs'; then
    echo "verify.sh: hand-rolled JSON escaping outside obs::json (use obs::json::escape_into)" >&2
    exit 1
fi

# JSON-parser dedup: obs::json is also the workspace's single JSON
# parser; a second value type or recursive-descent parser (the
# telltales are an object/array variant or parse_object/parse_array)
# drifts on escapes, numbers, and nesting limits. Keep it so.
echo "== single JSON parser check =="
if grep -rnE 'Obj\((Vec|BTreeMap|HashMap)<|Arr\(Vec<|fn parse_(object|array)\b|enum (Json)?Value\b' \
    crates --include='*.rs' | grep -v 'crates/obs/src/json.rs'; then
    echo "verify.sh: JSON value type or parser outside obs::json (use obs::json::parse)" >&2
    exit 1
fi

# Shared-flag dedup: obs::cli is the one parser of the run flags the
# drivers share; a binary matching one of them by hand drifts from its
# error messages and its stats/trace flush. Keep it so.
echo "== single run-flag parser check =="
if grep -nE '"--(jobs|timeout-secs|stats-json|trace-out)"' crates/*/src/bin/*.rs; then
    echo "verify.sh: shared run flag parsed outside obs::cli (list it in the binary's Cli::flags)" >&2
    exit 1
fi

# Argument errors: each driver refuses a bad argument with a non-zero
# exit, nothing on stdout, and a `prog: message` line on stderr.
echo "== argument error smoke (six drivers) =="
for bad in "ptxherd --jobs 0" "ptxdistill --jobs 0" "fig17_table --jobs 0" \
    "fuzzherd --jobs 0" "ptxd --jobs 0" "ptxsat --bogus"; do
    prog="${bad%% *}"
    # shellcheck disable=SC2086 # word-splitting the argument is intended
    if ./target/release/$bad > "$arg_out" 2> "$arg_err"; then
        echo "verify.sh: \`$bad\` exited 0" >&2
        exit 1
    fi
    if [ -s "$arg_out" ] || ! head -n 1 "$arg_err" | grep -q "^$prog: "; then
        echo "verify.sh: \`$bad\` wrote stdout or no \`$prog:\` error on stderr" >&2
        cat "$arg_out" "$arg_err" >&2
        exit 1
    fi
done

# Fixed-seed differential-fuzzing smoke: every generator round is
# deterministic under --seed, so this also guards against generator
# drift. Any cross-layer disagreement or rejected DRAT certificate makes
# fuzzherd exit non-zero, printing the replayable seed and shrunk case.
echo "== differential-fuzzing smoke (fuzzherd --rounds 50 --seed 7) =="
cargo run --release --offline -q -p ptxmm-fuzz --bin fuzzherd -- \
    --rounds 50 --seed 7 --jobs 4 --timeout-secs 60

echo "verify.sh: all gates passed."
