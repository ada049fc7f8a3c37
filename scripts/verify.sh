#!/usr/bin/env bash
# Tier-1 verification for the vcgp workspace.
#
# The workspace must build, test, and run from a cold, empty cargo
# registry: no network, no crates.io. This script enforces that invariant
# two ways — it runs every cargo step with --offline, and it fails if any
# Cargo.toml reintroduces a dependency that is not an in-tree path
# dependency (or a `workspace = true` alias of one).
set -euo pipefail
cd "$(dirname "$0")/.."

manifests=$(git ls-files '*Cargo.toml')

echo "== dependency gate"
fail=0
if grep -nE 'proptest|criterion' $manifests; then
    echo "error: banned external crate referenced in a Cargo.toml" >&2
    fail=1
fi
nonpath=$(awk '
    /^\[/ { in_dep = ($0 ~ /dependencies\]$/) }
    in_dep && NF && $0 !~ /^\[/ && $0 !~ /^[[:space:]]*#/ {
        if ($0 !~ /path[[:space:]]*=/ && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/)
            print FILENAME ":" FNR ": " $0
    }
' $manifests /dev/null)
if [ -n "$nonpath" ]; then
    echo "error: non-path dependency declared (offline build would break):" >&2
    echo "$nonpath" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "   ok: all dependencies are in-tree path dependencies"

echo "== cargo build --workspace --release --offline"
cargo build --workspace --release --offline

echo "== table1 at full scale (exits 1 unless all 20 rows reproduce the"
echo "   paper's verdicts; full table in target/vcgp-bench/table1.md)"
mkdir -p target/vcgp-bench
./target/release/table1 > target/vcgp-bench/table1.md
tail -n 1 target/vcgp-bench/table1.md

echo "== ablations (exits 1, naming the workload, when SSSP or WCC with the"
echo "   min combiner runs W=4 slower than W=1 x 1.25: median of 5 alternating"
echo "   W=1/W=4 pair ratios on 50 000 vertices; catches negative scaling)"
status=0
./target/release/ablations > target/vcgp-bench/ablations.md || status=$?
sed -n '/^workload /,/^$/p' target/vcgp-bench/ablations.md
[ "$status" -eq 0 ] || exit "$status"

echo "== cargo test -q --workspace --offline"
cargo test -q --workspace --offline

echo "== benchmark package tests (its own workspace: a change to the frozen"
echo "   surface in benchmark/src/surface.rs must break here, not at the"
echo "   next benchmark run)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== benchmark selftest (every workload for one second, untraced and"
echo "   traced, through every correctness gate of the harness)"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- selftest

echo "== cargo fmt --all --check (when rustfmt is installed)"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "   skipped: rustfmt not installed in this toolchain"
fi

echo "== cargo clippy --offline -- -D warnings (when clippy is installed)"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "   skipped: clippy not installed in this toolchain"
fi

echo "== cargo doc --workspace --no-deps --offline with -D warnings (no dead,"
echo "   private or ambiguous intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Every stress-report field below is read by path with `stress --get`, so
# no gate depends on the order or layout the report was written in.
get() {
    ./target/release/stress --get "target/vcgp-bench/BENCH_stress_$1.json" "$2"
}

echo "== stress smoke (2 s paced load, gated on valid JSON and zero errors)"
./target/release/stress --gen gnm-connected:512:2048:7 --duration 2 --rate 500 \
    --seed 7 --mix points --name smoke --quiet
./target/release/stress --validate-report target/vcgp-bench/BENCH_stress_smoke.json

echo "== shard smoke (same seeded mix, S=1 vs S=4 on the one service type;"
echo "   both must validate and agree on counts and answer hash)"
for s in 1 4; do
    ./target/release/stress --gen gnm-connected:256:1024:7 --ops 400 --duration 30 \
        --seed 7 --mix mixed --shards "$s" --name "shard$s" --quiet
    ./target/release/stress --validate-report "target/vcgp-bench/BENCH_stress_shard$s.json"
done
counts() {
    for key in answer_hash errors ok ops; do
        echo "$key=$(get "$1" "$key")"
    done
}
c1=$(counts shard1)
c4=$(counts shard4)
if [ "$c1" != "$c4" ]; then
    echo "error: S=4 diverged from S=1 on the same seeded mix:" >&2
    echo "--shards 1: $c1" >&2
    echo "--shards 4: $c4" >&2
    exit 1
fi
echo "   ok: shard1/shard4 agree ($(echo $c1 | tr '\n' ' '))"

echo "== cache smoke (same seeded mix twice against ONE service process; the"
echo "   passes must answer bit-identically, and pass 2 must hit every entry"
echo "   pass 1 inserted and miss none: the logical clock fixes the trace)"
./target/release/stress --gen gnm-connected:256:1024:7 --ops 300 --duration 30 \
    --seed 7 --mix mixed --shards 2 --repeat 2 --name cache --quiet
for p in 1 2; do
    ./target/release/stress --validate-report \
        "target/vcgp-bench/BENCH_stress_cache-pass$p.json"
done
h1=$(get cache-pass1 answer_hash)
h2=$(get cache-pass2 answer_hash)
if [ -z "$h1" ] || [ "$h1" != "$h2" ]; then
    echo "error: cached pass answered differently from the cold pass:" >&2
    echo "pass 1: ${h1:-missing}   pass 2: ${h2:-missing}" >&2
    exit 1
fi
inserted=$(get cache-pass1 cache.insertions)
hits=$(get cache-pass2 cache.hits)
misses=$(get cache-pass2 cache.misses)
if [ -z "$inserted" ] || [ "$inserted" -eq 0 ] || [ "$hits" != "$inserted" ] \
    || [ "$misses" != 0 ]; then
    echo "error: pass 2 must hit exactly the pass-1 insertions and miss none:" >&2
    echo "pass-1 insertions ${inserted:-missing}, pass-2 hits ${hits:-missing}," \
        "pass-2 misses ${misses:-missing}" >&2
    exit 1
fi
echo "   ok: answers identical ($h1), pass-1 insertions $inserted," \
    "pass-2 hits $hits, misses $misses"

echo "== mutation smoke (epoch writer live at --write-ratio 0 must stay"
echo "   bit-identical to the frozen shard4 run; a mixed read/write run must"
echo "   complete with zero errors, at least one epoch swap, freshness"
echo "   metrics that pass --validate-report's count identities, and its"
echo "   point lookups answered at submit — a writer does not queue them)"
./target/release/stress --gen gnm-connected:256:1024:7 --ops 400 --duration 30 \
    --seed 7 --mix mixed --shards 4 --write-ratio 0 --name mut0 --quiet
./target/release/stress --validate-report target/vcgp-bench/BENCH_stress_mut0.json
h4=$(get shard4 answer_hash)
hm=$(get mut0 answer_hash)
if [ -z "$hm" ] || [ "$hm" != "$h4" ] || [ "$hm" != 1c3ac02d249546ca ]; then
    echo "error: --write-ratio 0 diverged from the frozen run:" >&2
    echo "frozen: ${h4:-missing}   write-ratio 0: ${hm:-missing}" \
        "  expected: 1c3ac02d249546ca" >&2
    exit 1
fi
./target/release/stress --gen gnm-connected:256:1024:7 --ops 400 --duration 30 \
    --seed 7 --mix mixed --shards 4 --write-ratio 0.1 --mutation-seed 11 \
    --name mut --quiet
./target/release/stress --validate-report target/vcgp-bench/BENCH_stress_mut.json
swaps=$(get mut epochs.swaps)
applied=$(get mut epochs.applied)
if [ -z "$swaps" ] || [ "$swaps" -eq 0 ] || [ -z "$applied" ] || [ "$applied" -eq 0 ]; then
    echo "error: mixed read/write run installed no epochs" >&2
    echo "       (swaps=${swaps:-missing}, applied=${applied:-missing})" >&2
    exit 1
fi
at_submit=$(get mut lookups_at_submit)
if [ -z "$at_submit" ] || [ "$at_submit" -eq 0 ]; then
    echo "error: the mixed read/write run answered no lookup at submit" >&2
    echo "       (lookups_at_submit=${at_submit:-missing}): lookups queue under a writer again" >&2
    exit 1
fi
echo "   ok: write-ratio 0 bit-identical ($hm); mixed run: $swaps swaps," \
    "$applied mutations applied, $at_submit lookups at submit"

echo "== replica smoke (one seeded scattered-analytics stream at --replicas 1"
echo "   and 2; answers must be bit-identical, and the replicated run's queue"
echo "   high-water mark must be strictly lower at equal offered load. A hot"
echo "   *lookup* shard no longer queues at all: lookups are answered at submit)"
# Every scattered request puts one leg on each shard; 8 synchronous clients
# against 1 executor per core make the queues the bottleneck. Two replicas
# split that backlog.
for r in 1 2; do
    ./target/release/stress --gen gnm-connected:512:2048:7 \
        --ops 600 --duration 30 --seed 7 --mix analytics \
        --shards 2 --replicas "$r" --routing least-loaded \
        --executors 1 --clients 8 --name "repl$r" --quiet
    ./target/release/stress --validate-report "target/vcgp-bench/BENCH_stress_repl$r.json"
done
r1=$(counts repl1)
r2=$(counts repl2)
if [ "$r1" != "$r2" ]; then
    echo "error: replicated run diverged from the single-replica run:" >&2
    echo "--replicas 1: $r1" >&2
    echo "--replicas 2: $r2" >&2
    exit 1
fi
# The deepest shard's high-water mark (the shard row's, which is the max
# over its replica rows).
hot_hwm() {
    for s in 0 1; do get "$1" "per_shard[$s].queue_hwm"; done | sort -n | tail -1
}
q1=$(hot_hwm repl1)
q2=$(hot_hwm repl2)
if [ "$q2" -ge "$q1" ]; then
    echo "error: --replicas 2 did not relieve the queues:" >&2
    echo "       queue hwm $q2 (R=2) vs $q1 (R=1) at equal offered load" >&2
    exit 1
fi
echo "   ok: answers identical, queue hwm $q1 (R=1) -> $q2 (R=2)"

echo "== scenario smoke (checked-in 2-phase spec — zipfian warmup, measured"
echo "   phase with analytics + writes — on a replicated sharded service;"
echo "   --validate-report enforces the per-phase and per-replica interval"
echo "   fold identities, and both phases must appear in the report)"
./target/release/stress --gen gnm-connected:256:1024:7 \
    --scenario examples/scenarios/smoke.scn --shards 2 --replicas 2 \
    --name scn --quiet
./target/release/stress --validate-report target/vcgp-bench/BENCH_stress_scn.json
if [ "$(get scn 'phases[0].phase')" != warmup ] || [ "$(get scn 'phases[1].phase')" != measure ] ||
    get scn 'phases[2]' >/dev/null 2>&1; then
    echo "error: scenario report does not have exactly the spec's two phase rows" >&2
    exit 1
fi
echo "   ok: both phases reported, interval sums fold to totals"

echo "== scenario desugar gate (the built-in 'mixed' preset and the checked-in"
echo "   mixed.scn that spells it out must report identical counts and answer"
echo "   hashes)"
./target/release/stress --gen gnm-connected:256:1024:7 --ops 400 --duration 30 \
    --seed 7 --mix mixed --shards 2 --name desugar-legacy --quiet
./target/release/stress --gen gnm-connected:256:1024:7 --seed 7 --shards 2 \
    --scenario examples/scenarios/mixed.scn --name desugar-scn --quiet
dl=$(counts desugar-legacy)
ds=$(counts desugar-scn)
if [ "$dl" != "$ds" ]; then
    echo "error: the 'mixed' preset diverged from examples/scenarios/mixed.scn:" >&2
    echo "preset:   $dl" >&2
    echo "scenario: $ds" >&2
    exit 1
fi
echo "   ok: desugaring exact ($(echo $dl | tr '\n' ' '))"

echo "== tenant default gate (--tenants 1 must leave the op stream and report"
echo "   bit-identical to the pre-QoS path: same counts and answer hash as"
echo "   the frozen shard4 run)"
./target/release/stress --gen gnm-connected:256:1024:7 --ops 400 --duration 30 \
    --seed 7 --mix mixed --shards 4 --tenants 1 --name ten1 --quiet
./target/release/stress --validate-report target/vcgp-bench/BENCH_stress_ten1.json
t1=$(counts ten1)
if [ "$t1" != "$c4" ]; then
    echo "error: --tenants 1 diverged from the frozen run on the same mix:" >&2
    echo "frozen:     $c4" >&2
    echo "--tenants 1: $t1" >&2
    exit 1
fi
echo "   ok: single-tenant run bit-identical ($(echo $t1 | tr '\n' ' '))"

echo "== tenant isolation smoke (aggressor at ~10x its admission bucket beside"
echo "   a paced victim; the victim must finish its whole 100-op budget with"
echo "   zero rejects and zero throttles, its answer hash must equal a solo"
echo "   run's, and the aggressor must actually have been throttled;"
echo "   --validate-report enforces the per-tenant fold identities)"
for v in isolation isolation-solo; do
    ./target/release/stress --gen gnm-connected:256:1024:7 --shards 2 \
        --scenario "examples/scenarios/$v.scn" --name "$v" --quiet
    ./target/release/stress --validate-report "target/vcgp-bench/BENCH_stress_$v.json"
done
# Tenant t's row is tenants[t]: the victim is tenant 1, the aggressor 0.
for run in isolation isolation-solo; do
    if [ "$(get "$run" 'tenants[1].ops')" -ne 100 ] ||
        [ "$(get "$run" 'tenants[1].rejects')" -ne 0 ] ||
        [ "$(get "$run" 'tenants[1].throttled')" -ne 0 ]; then
        echo "error: the victim was not isolated in $run: $(get "$run" 'tenants[1]')" >&2
        exit 1
    fi
done
hv=$(get isolation 'tenants[1].answer_hash')
hs=$(get isolation-solo 'tenants[1].answer_hash')
if [ -z "$hv" ] || [ "$hv" != "$hs" ]; then
    echo "error: victim answered differently beside the aggressor:" >&2
    echo "joint: ${hv:-missing}   solo: ${hs:-missing}" >&2
    exit 1
fi
agth=$(get isolation 'tenants[0].throttled')
if [ -z "$agth" ] || [ "$agth" -eq 0 ]; then
    echo "error: the aggressor was never throttled — the scenario did not" >&2
    echo "       engage the admission stage: $(get isolation 'tenants[0]')" >&2
    exit 1
fi
echo "   ok: victim 100/100 ops, 0 rejects, hash $hv solo == joint;" \
    "aggressor throttled $agth times"

cores=$(nproc)
echo "== client scaling smoke (zipfian point lookups, unpaced, at 1 and at 4"
echo "   clients: the at-submit path has no cross-client shared write — the"
echo "   epoch pin, the submit counters and the driver's index claims are all"
echo "   striped — so a second core must add throughput. A shared line put"
echo "   back on that path makes the curve flat: 0.95-1.07x before the pin was"
echo "   striped, 1.7-1.9x after, on two cores)"
if [ "$cores" -lt 2 ]; then
    echo "   skipped: $cores core, nothing for a second client to run on"
else
    # A timing gate, so a warm-up run first (on a VM the first saturating
    # run after the box idled can find the second core slow to arrive, x1.2)
    # and then the median of three attempts, not the best: one lucky run
    # cannot hide a shared line (under x1.1 every time), one slow one cannot
    # fail striped code (x1.6-2.0).
    scale() { # clients -> throughput_ops_s of one validated 2 s run
        ./target/release/stress --gen gnm-connected:4096:16384:7 --mix points \
            --zipf-s 0.99 --shards 2 --duration 2 --clients "$1" --seed 7 \
            --name "scale$1" --quiet >/dev/null &&
            ./target/release/stress --validate-report \
                "target/vcgp-bench/BENCH_stress_scale$1.json" >/dev/null &&
            get "scale$1" throughput_ops_s
    }
    scale 4 >/dev/null
    ratios=""
    for attempt in 1 2 3; do
        t1=$(scale 1)
        t4=$(scale 4)
        ratio=$(awk -v t1="$t1" -v t4="$t4" 'BEGIN { printf "%.2f", (t1 > 0 ? t4 / t1 : 0) }')
        echo "   attempt $attempt: $t1 ops/s at 1 client, $t4 ops/s at 4 (x$ratio)"
        ratios="$ratios $ratio"
    done
    median=$(printf '%s\n' $ratios | sort -n | sed -n 2p)
    if awk -v r="$median" 'BEGIN { exit !(r < 1.3) }'; then
        echo "error: 4 clients deliver x$median the throughput of one (median of$ratios," >&2
        echo "       gate x1.3): the clients are serialising on a shared write" >&2
        exit 1
    fi
    echo "   ok: x$median (median of$ratios)"
fi

echo "tier-1 verify: OK"
