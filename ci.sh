#!/usr/bin/env bash
# Tier-1 verification plus lint gates; what .github/workflows/ci.yml runs.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== one set of wire primitives: no codec outside faasm_net::wire"
if grep -rn "use bytes::" crates/ ||
    grep -rnE "fn (get_blob|get_string|get_bytes|get_block|put_blob|put_bytes)\b" crates/ |
    grep -v "^crates/net/src/wire.rs:"; then
    echo "wire helpers re-implemented outside crates/net/src/wire.rs" >&2
    exit 1
fi

echo "== one request seam: typed keyed ops are written once, in KvBackend"
keyed='Request::(Get|Set|GetRange|SetRange|MultiGetRange|MultiSetRange|Append|Del|Exists|StrLen|Incr|SAdd|SRem|SMembers|SCard|VersionOf|TryLock|Unlock)\b'
if grep -rn "forward_kv_passthrough" crates/ src/ tests/ examples/; then
    echo "per-method KvBackend forwarding macro is back; intercept in call() instead" >&2
    exit 1
fi
for f in client sharded cache; do
    # Non-test code only: everything above the file's first #[cfg(test)].
    if sed '/#\[cfg(test)\]/,$d' "crates/kvs/src/$f.rs" | grep -nE "$keyed"; then
        echo "crates/kvs/src/$f.rs builds a keyed request; typed ops live in backend.rs" >&2
        exit 1
    fi
done

echo "== one front door, one placement scorer: no second ingress, chooser or formula"
for f in $(find crates/*/src -name '*.rs'); do
    # Non-test code only, as above.
    if sed '/#\[cfg(test)\]/,$d' "$f" |
        grep -nE 'forwarded: false|fn pick_instance|gateway-bus|DEPTH_WEIGHT' | sed "s|^|$f:|"; then
        echo "$f revives the per-call Invoke ingress, a second instance chooser or a second scoring formula" >&2
        echo "driver calls enter by Cluster::place -> submit_placed_batch; hosts are ranked by faasm_sched::Candidate::score" >&2
        exit 1
    fi
done

echo "== local state tier: no chunk-table mutex, no unconditional condvar wake, no per-range Vec, no allocating state_read"
# Non-test code only, as above.
nontest() { sed '/#\[cfg(test)\]/,$d' "$1"; }
if nontest crates/state/src/entry.rs | grep -nE 'chunks\.lock\(\)|Mutex<ChunkTable>'; then
    echo "crates/state/src/entry.rs: the chunk table is behind a mutex again; present/dirty are atomic bitsets" >&2
    exit 1
fi
if nontest crates/state/src/rwlock.rs | sed '/fn wake_waiters/,/^    }/d' | grep -n 'notify_all'; then
    echo "crates/state/src/rwlock.rs: notify_all outside wake_waiters; an uncontended unlock must not reach the condvar" >&2
    exit 1
fi
for f in crates/kvs/src/*.rs crates/state/src/*.rs; do
    if nontest "$f" | grep -nF 'Vec<(u64, Vec<u8>)>' | sed "s|^|$f:|"; then
        echo "$f: a per-range Vec write list; batched writes travel as faasm_kvs::RangeWrites" >&2
        exit 1
    fi
done
if sed -n '/^pub trait FaasEnv/,/^}/p' crates/workloads/src/env.rs |
    sed -n '/fn state_read(/,/;/p' | grep -n 'Vec<u8>'; then
    echo "crates/workloads/src/env.rs: FaasEnv::state_read allocates its result; it fills the caller's buffer" >&2
    exit 1
fi

echo "== lowered tier: register ops only, one value stack, no unsafe"
for f in $(find crates/fvm/src -name '*.rs'); do
    if nontest "$f" | grep -nE 'Op::Plain|fn fuse\b|FBinLL|FImmLS|FBrCmpLL|FAddLoad' | sed "s|^|$f:|"; then
        echo "$f: the stack-form op stream (Plain fallback, fusion pass, F* superinstructions) is back" >&2
        echo "operands are resolved at lowering time; every numeric op is one register Op from num::numeric_ops!" >&2
        exit 1
    fi
done
# The lowered call path is Instance::call_func -> instance/lowered.rs; the
# reference interpreter (instance/interp.rs) keeps its per-call Vecs.
if nontest crates/fvm/src/instance/lowered.rs |
    grep -nE 'stack\.push\(|stack\.pop\(|Arc::clone\(&self\.object\)' ||
    cat crates/fvm/src/instance.rs crates/fvm/src/instance/lowered.rs | grep -n 'split_off'; then
    echo "crates/fvm/src/instance{.rs,/lowered.rs}: operand push/pop, a per-call Vec or a per-call Arc clone on the lowered call path" >&2
    echo "frames are windows of the instance's one value stack; a guest call allocates and clones nothing" >&2
    exit 1
fi
if grep -rnw 'unsafe' crates/fvm/src; then
    echo "crates/fvm/src: unsafe code in the VM" >&2
    exit 1
fi

# Tier-1 must hold serially and oversubscribed: no test may depend on
# having the process, or a core, to itself.
for threads in 1 8; do
    echo "== cargo test --test-threads=$threads"
    start=$SECONDS
    cargo test --workspace -q -- --test-threads="$threads"
    echo "== cargo test --test-threads=$threads took $((SECONDS - start)) s"
done

# Release is the build the benchmark measures, and overflow checks differ
# between the two profiles.
echo "== cargo test --release -p faasm-fvm"
cargo test --release -p faasm-fvm -q

echo "== remote-ingress example (smoke)"
cargo run --release --example gateway_remote

echo "== live-reshard example (smoke): workload keeps writing while a shard joins"
cargo run --release --example reshard_live

echo "== failover-storm example (smoke): primary killed at R=2, zero lost acked writes"
cargo run --release --example failover_storm

echo "== trace-storm example (smoke): span tree from admission to state and back"
cargo run --release --example trace_storm

echo "== cache-locality example (smoke): zipfian storm, hit rate + zero staleness across a reshard"
cargo run --release --example cache_locality

echo "== coldstart-storm example (smoke): pre-staged 0→N scale-up, warm-restore rate >= 90%"
cargo run --release --example coldstart_storm

echo "== the repo benchmark, all five workloads at 1 s (smoke)"
bash benchmark/run.sh --smoke

echo "== gateway throughput bench, batched mode included (smoke)"
cargo bench -p faasm-bench --bench gateway_throughput -- --test

echo "== state throughput bench, batching + shard scaling (smoke)"
cargo bench -p faasm-bench --bench state_throughput -- --test

echo "== vm dispatch bench, lowered tier must beat the interpreter (smoke)"
cargo bench -p faasm-bench --bench vm_dispatch -- --test

echo "== coldstart bench, one capture + cross-version chunk dedup (smoke)"
cargo bench -p faasm-bench --bench coldstart -- --test

echo "CI OK"
