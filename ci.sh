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

echo "== grep gates: shapes a past PR deleted on purpose must not come back, and the Tab. 2 census"
# Views of a file a gate can ask for. The default is the non-test code:
# everything above the file's first #[cfg(test)].
nontest() { sed '/#\[cfg(test)\]/,$d' "$1"; }
whole() { cat "$1"; }
# The test code: from the file's first #[cfg(test)] to the end, or all of
# a `tests.rs` module file.
testonly() {
    if [[ $1 == */tests.rs ]]; then
        cat "$1"
    else
        sed -n '/#\[cfg(test)\]/,$p' "$1"
    fi
}
# The test code of instance.rs, less the co-located native-replica test
# that the jobs' native path (train_sgd's) relies on.
outside_native_replica_test() { testonly "$1" | sed '/fn host_memory_counts_a_mapped_replica_once/,/^    }$/d'; }
outside_wake_waiters() { nontest "$1" | sed '/fn wake_waiters/,/^    }/d'; }
native_api_impl() { sed -n "/^impl<'a> NativeApi<'a>/,/^}/p" "$1"; }
faasenv_state_read() { sed -n '/^pub trait FaasEnv/,/^}/{/fn state_read(/,/;/p}' "$1"; }
outside_message_tables() { nontest "$1" | sed '/^messages! {/,/^}/d'; }
# The whole file, less the declarations of the benchmark-only span registry
# in the telemetry crate (ROADMAP item 1(e) deletes them).
outside_span_registry() {
    if [[ $1 == crates/telemetry/src/lib.rs ]]; then
        sed -E '/^(static REGISTRY: Mutex<Vec<Weak<Recorder>>>|pub fn (tier|metrics_snapshot)\()/d' "$1"
    else
        cat "$1"
    fi
}
# The non-test code, less the process-wide statics of the frozen
# benchmark's shim in the telemetry crate, which ROADMAP item 1(e) deletes:
# REGISTRY, ENABLED, ROOTS behind TraceCtx::new_root, and EPOCH behind the
# free now_ns.
outside_allowed_statics() {
    if [[ $1 == crates/telemetry/src/lib.rs ]]; then
        nontest "$1" | sed -E '/^ *static (REGISTRY|ENABLED|ROOTS|EPOCH): /d'
    else
        nontest "$1"
    fi
}
# The whole file, less the definition of the free now_ns, the frozen
# benchmark's shim in the telemetry crate (ROADMAP item 1(e) deletes it).
outside_now_ns_shim() {
    if [[ $1 == crates/telemetry/src/lib.rs ]]; then
        sed '/^pub fn now_ns() -> u64 {$/d' "$1"
    else
        cat "$1"
    fi
}
# The whole file, less the one line allowed to say `unsafe`: the first
# SHA-extensions dispatch in content.rs (a second copy still shows).
outside_sha_dispatch() {
    local call='unsafe { sha_ni::compress_blocks(h, blocks) }'
    if [[ $1 == crates/kvs/src/content.rs ]]; then
        sed "0,/$call/{/$call/d}" "$1"
    else
        cat "$1"
    fi
}

keyed='Request::(Get|Set|GetRange|SetRange|MultiGetRange|MultiSetRange|Append|Del|Exists|StrLen|Incr|VersionOf|TryLock|Unlock)\b'

# One gate per row: an extended regex, where it must not match, and what to
# tell whoever brought it back. A scope is a list of files and directories
# (every *.rs below; globs expand); `path@view` picks one of the views
# above, `!file` leaves a file out.
gates=(
    # One set of wire primitives: no codec outside faasm_net::wire.
    'use bytes::|fn (get_blob|get_string|get_bytes|get_block|put_blob|put_bytes)\b'
    'crates@whole !crates/net/src/wire.rs'
    'wire helpers re-implemented outside crates/net/src/wire.rs'

    # One request seam: typed keyed ops are written once, in KvBackend.
    'forward_kv_passthrough'
    'crates@whole src@whole tests@whole examples@whole'
    'per-method KvBackend forwarding macro is back; intercept in call() instead'

    "$keyed"
    'crates/kvs/src/client.rs crates/kvs/src/sharded.rs crates/kvs/src/cache.rs'
    'a KvBackend client builds a keyed request; typed ops live in backend.rs'

    # The wire carries only what the runtime sends: the KVS has no set
    # value kind, and an Invoke carries no `forwarded` byte.
    'SAdd|SRem|SMembers|SCard|Response::Values|fn (sadd|srem|smembers|scard)\b'
    'crates@whole src@whole tests@whole examples@whole'
    'a KVS set op or the Values reply is back; the state tier serves values, ranges, counters and locks'

    'forwarded:'
    'crates/core/src@whole'
    'the Invoke forwarded byte is back; every Invoke executes where placement sent it'

    # A placed call reaches its host one way: an InvokeBatch sent by
    # FaasmInstance::send_calls, which frames it; results land in a
    # PendingMap<CallResult>.
    'InstanceMsg::Invoke \{|fn chain_to|fn submit_framed|struct Pending\b'
    'crates/core/src@whole'
    'a second way for a placed call to reach its host (or the Pending wrapper) is back; send an InvokeBatch through send_calls'

    # Migrations ship only as HandoffFrames, and a shard NIC is not shaped.
    'Request::Handoff \{|fn handoff\(|ServerShaping'
    'crates@whole'
    'the whole-state Handoff request or the ServerShaping knob is back; migrations stream HandoffFrames (reshard::send_handoff_chunked)'

    # One state-tier shape: every shard serves a routing view, every
    # sharded client follows a routing cell, and reshard::start_tier /
    # start_joiner boot every tier and every joining shard.
    'Source::Static|ShardedKvClient::new\(|fn start_replicated|fn start_routed|routing: Option<'
    'crates@whole'
    'an unrouted shard, a static sharded client or a second shard constructor is back; boot tiers with reshard::start_tier and clients with ShardedKvClient::connect'

    'ShardRouting::(new|replicated)\('
    'crates/core/src@whole tests@whole'
    'a tier is built by hand; boot it with reshard::start_tier and a joining shard with reshard::start_joiner'

    # One front door, one placement scorer.
    'forwarded: false|fn pick_instance|gateway-bus|DEPTH_WEIGHT'
    'crates/*/src'
    'the per-call Invoke ingress, a second instance chooser or a second scoring formula is back; driver calls enter by Cluster::place -> submit_placed_batch, hosts are ranked by faasm_sched::Candidate::score'

    'WarmSets|sched:warm|publish_depth|fn handle_invoke|forwarded\.inc|impl (HttpRouter|ChainRouter) for Gateway'
    'crates/*/src'
    'a second chooser or a second record of warmth or load is back; chained calls are placed by Cluster::place'

    # One runtime, two isolation mechanisms: the baseline is a Cluster whose
    # functions run in containers.
    'RoundRobin|recv_timeout|KvServer::|thread::Builder|fn (bus|worker)_loop'
    'crates/baseline/src crates/sched/src'
    'the baseline is a Cluster with container isolation; a second bus, worker pool, router or KVS is back'

    # Local state tier: no chunk-table mutex, no unconditional condvar
    # wake, no per-range Vec, no allocating state_read.
    'chunks\.lock\(\)|Mutex<ChunkTable>'
    'crates/state/src/entry.rs'
    'the chunk table is behind a mutex again; present/dirty are atomic bitsets'

    'notify_all'
    'crates/state/src/rwlock.rs@outside_wake_waiters'
    'notify_all outside wake_waiters; an uncontended unlock must not reach the condvar'

    'Vec<\(u64, Vec<u8>\)>'
    'crates/kvs/src crates/state/src'
    'a per-range Vec write list; batched writes travel as faasm_kvs::RangeWrites'

    'Vec<u8>'
    'crates/workloads/src/env.rs@faasenv_state_read'
    'FaasEnv::state_read allocates its result; it fills the caller'"'"'s buffer'

    # A native FaasEnv access is a mapped one: no implicit lock, no dirty bit.
    'state_settle_ranges|clear_dirty_ranges'
    'crates@whole src@whole tests@whole examples@whole'
    'the range-settle step is back; mapped writes leave no dirty bits to settle'

    'entry\.(read|write)\('
    'crates/workloads/src/env.rs'
    'FaasmEnv went back to the implicitly locked copy API'

    # Lowered tier: register ops only, one value stack, no unsafe. The
    # lowered call path is Instance::call_func -> instance/lowered.rs; the
    # reference interpreter (instance/interp.rs) keeps its per-call Vecs.
    'Op::Plain|fn fuse\b|FBinLL|FImmLS|FBrCmpLL|FAddLoad'
    'crates/fvm/src'
    'the stack-form op stream (Plain fallback, fusion pass, F* superinstructions) is back; operands are resolved at lowering time and every numeric op is one register Op from num::numeric_ops!'

    'stack\.push\(|stack\.pop\(|Arc::clone\(&self\.object\)'
    'crates/fvm/src/instance/lowered.rs'
    'operand push/pop or a per-call Arc clone on the lowered call path; frames are windows of the instance'"'"'s one value stack'

    'split_off'
    'crates/fvm/src/instance.rs@whole crates/fvm/src/instance/lowered.rs@whole'
    'a per-call Vec on the lowered call path; a guest call allocates and clones nothing'

    '\bunsafe\b'
    'crates/fvm/src@whole'
    'unsafe code in the VM'

    # One production engine: ObjectModule::prepare and compile lower, and
    # only a test reaches the reference interpreter, by naming its tier.
    'ExecTier::Interpreter'
    'crates/*/src !crates/fvm/src/object.rs !crates/fvm/src/instance/tests.rs src examples@whole'
    'the reference interpreter is named outside a parity test; production, measured and host-interface code runs what ObjectModule::prepare and compile build'

    '::prepare_lowered\b'
    'crates@whole src@whole tests@whole examples@whole'
    'a call of prepare_lowered, the alias kept for benchmark/; call ObjectModule::prepare'

    # The workspace's one `unsafe` is the call into the SHA-extensions
    # compression, made after the CPU reported every feature it needs.
    '\bunsafe\b'
    'crates/*/src@outside_sha_dispatch src@whole'
    'unsafe code outside the SHA-extensions dispatch in crates/kvs/src/content.rs'

    # One dirty record per linear memory: the written-block masks, cleared
    # only together with the frames they describe (LinearMemory::reset_to).
    'clear_dirty|dirty: Vec<bool>'
    'crates/mem/src'
    'the per-page dirty bool is back; written-block masks are the one dirty record'

    # A page costs the blocks stored to: no whole-page word array.
    'WORDS_PER_PAGE|PAGE_SIZE / 8'
    'crates/mem/src/page.rs'
    'pages are backed per 4 KiB block on first non-zero store'

    # A page chunk is the page's block mask and non-zero blocks: the
    # snapshot plane builds no 64 KiB page image and sizes no chunk by page.
    '\.to_bytes\(\)\.into_vec|PAGE_SIZE'
    'crates/core/src/snapdist.rs'
    'page chunks carry only non-zero 4 KiB blocks; encode and decode through Page::{to_chunk, from_chunk}'

    # One page store per host: a fetched page is decoded once, into the
    # store, and every proto version maps the store's Arc<Page>.
    'Page::from_chunk|assemble_proto'
    'crates/core/src/instance.rs@whole'
    'the fetch path decodes page chunks itself; decode through SnapshotCache::insert_chunk and assemble with assemble_pages'

    'BoundedLru<Digest, Arc<Vec<u8>>>'
    'crates/core/src@whole'
    'the snapshot cache holds encoded chunks again; the page store holds decoded Arc<Page>s'

    # One record per function per host, one production engine.
    'struct Flight|FlightGuard|resolving:|protos: RwLock<HashMap'
    'crates/core/src/instance.rs'
    'a second (user, function) map or a hand-rolled single-flight is back; pool, proto and resolve lock live in the one FunctionRecord'

    'exec_tier'
    'crates/core/src'
    'the execution tier is a cluster or Faaslet setting again; it is a property of an ObjectModule, and uploads compile ExecTier::Lowered'

    # One protocol table: a KVS tag is written once, in its messages! row;
    # sizes, key() and mutates_key come from the row, not from a match.
    'put_u8\([^,]+, [0-9]+\)|^\s+[0-9]+ (if .*)?=>'
    'crates/kvs/src/codec.rs@outside_message_tables'
    'a KVS tag is written or matched by hand; add or edit the row in the Request/Response messages! table'

    '^fn (entry_weight|mutates_key|request_payload_len|response_payload_len)\b'
    'crates/kvs/src'
    'a hand-kept per-variant match or size estimate is back; Request::mutates_key() and Wire::wire_len come from the protocol table'

    # One declaration per stat set: the live struct, its snapshot struct,
    # snapshot(), merge and delta all come from the counters! field list.
    '^\s+\w+: self\.\w+\.load\(Ordering::Relaxed\),'
    'crates/*/src !crates/telemetry/src/lib.rs'
    'a snapshot literal filled counter by counter; declare the set with `faasm_telemetry::counters!`'

    # One span recorder per cluster: the fabric owns it, and every layer
    # reaches it through the NIC or state backend it already holds.
    '(static|OnceLock).*Recorder\b'
    'crates@outside_span_registry'
    'a Recorder is reachable through a static again; record through the cluster'"'"'s (Fabric::recorder, Nic::recorder, KvBackend::recorder)'

    '(^|[^a-z_])(tier|metrics_snapshot|trace_tree|tiers)\('
    'crates@outside_span_registry src@whole tests@whole examples@whole'
    'a process-wide span reader is called; read the cluster'"'"'s recorder (Recorder::trace, Cluster::telemetry)'

    # One reply mechanism: a call's reply rides its request's own channel.
    # The fabric keeps no reply table and no partition switch; partitions
    # belong in a seeded fault schedule, not in the message path.
    'partition_host|heal_host|partition_server|heal_server|is_cut\(|route_response|reply_tag'
    'crates@whole src@whole tests@whole examples@whole'
    'a reply-tag table or the fabric partition switch is back; Nic::respond answers on the channel the request carries (Envelope::wants_reply)'

    # One id source per cluster, and no other process-global state: ids
    # come from the cluster's fabric (Nic::fresh_tag), its recorder
    # (Recorder::root, Recorder::child) or the store they are unique in.
    '\bstatic\s+(mut\s+)?\w+\s*:[^=]*\b(Atomic\w*|OnceLock|LazyLock|Mutex)\b'
    'crates/*/src@outside_allowed_statics'
    'a process-wide static is back; give the cluster (its Fabric, Recorder or KvStore) the state instead'

    # One clock per cluster: leases, deadlines, TTLs, guest gettime and
    # span stamps read the cluster's Clock (Recorder::clock,
    # Recorder::now_ns); a test moves a manual clock instead of waiting, and
    # waits on the progress it needs, never on a sleep.
    '(^|[^.a-z_])now_ns\(\)'
    'crates@outside_now_ns_shim src@whole tests@whole examples@whole'
    'the process-wide now_ns is called; stamp with the cluster'"'"'s clock (Recorder::now_ns)'

    'thread::sleep'
    'tests@whole crates/*/tests@whole crates/*/src@testonly'
    'a test sleeps; advance the cluster'"'"'s manual clock (Cluster::with_clock), hold work at a gate the test opens, or wait on the progress the test needs'

    'SharingQueue'
    'crates@whole'
    'the unused bounded sharing queue is back; a chained call placed on a peer rides the bus into its run queue'

    # One run queue per host, which is also its inbox: the fabric delivers
    # a host's messages into it, and the worker that takes one decodes it.
    'fn bus_loop|-bus"'
    'crates/core/src'
    'the bus thread is back; workers take a host'"'"'s messages off its run queue'

    # The state tier keeps only what the runtime calls.
    'pub mod ddo|SharedVector|fn set_mode\b|fn take_hot_keys\b|fn hot_key_shards\b|accesses:'
    'crates@whole src@whole tests@whole examples@whole'
    'a deleted state-tier surface is back; Listing 1 runs through FaasEnv, consistency is per cache, hits are attributed by touch_scope'

    'state_entry\(&?key, 1\)'
    'crates/core/src'
    'a lock sized a replica; locks belong to the key'

    # The host interface is what guests call (Tab. 2): an export no guest
    # calls, a native binding no native guest calls and a vfs helper the
    # host interface does not use stay deleted.
    'get_call_output_size'
    'crates@whole tests@whole examples@whole'
    'get_call_output_size is back; a chained call'"'"'s output is read with get_call_output'

    'fn (gettime_ns|getrandom|socket|connect|send|recv|user|call_id)\b'
    'crates/core/src/ctx.rs@native_api_impl'
    'a NativeApi binding no native guest calls is back; native guests use input, output, state, chaining and fs'

    'fn (cached_objects|drop_cache|open_count|close_all|read_write|write_truncate)\b'
    'crates/vfs/src'
    'a vfs helper the host interface does not use is back; reset rebuilds the FdTable, and flags are OpenFlags literals'

    # Every test guest is FL bytecode: a native guest is one of the jobs'
    # (crates/workloads) or tests the native binding itself.
    'register_native|NativeApi|NativeGuest'
    'tests@whole examples@whole crates/core/src/cluster.rs@testonly crates/core/src/instance.rs@outside_native_replica_test'
    'a native test guest is back; write it in FL (tests/common has one per shape) and upload it with Cluster::upload_fl'

    # Configuration is what a deployment chooses: a value no deployment
    # sets is a constant, not a knob only tests move.
    'Gateway(Server|Client)Config|Gateway(Server|Client)::with_config|invoke_timeout|http_overhead_bytes|backlog_high|max_warm'
    'crates@whole src@whole tests@whole examples@whole'
    'a test-only config knob is back; the wire MTU is faasm_net::DEFAULT_MTU, the pending-bytes cap MAX_PENDING_BYTES (gateway server.rs), the invoke timeout faasm_core::INVOKE_TIMEOUT, the HTTP framing HTTP_OVERHEAD_BYTES (baseline container.rs), the autoscaler thresholds BACKLOG_HIGH and MAX_WARM (gateway autoscale.rs)'

    # The paper's results are checked, not printed.
    'faasm_bench|criterion::|NetModel'
    'crates@whole src@whole tests@whole examples@whole'
    'the figures/criterion layer is gone; a paper result is an assertion in tests/platform_parity.rs, an example, or a BENCHMARK.json field'
)
failed=0
for ((row = 0; row < ${#gates[@]}; row += 3)); do
    pattern=${gates[row]} scope=${gates[row + 1]} message=${gates[row + 2]}
    for word in $scope; do
        [[ $word == !* ]] && continue
        path=${word%@*}
        view=nontest
        [[ $word == *@* ]] && view=${word#*@}
        # Unquoted: a glob with a view (`crates/*/src@view`) expands here.
        for f in $(find $path -name '*.rs' | sort); do
            [[ " $scope " == *" !$f "* ]] && continue
            if "$view" "$f" | grep -nE "$pattern" | sed "s|^|$f:|"; then
                echo "$f: $message" >&2
                failed=1
            fi
        done
    done
done

# The census (Tab. 2): every host call faaslet_linker defines, by a
# define_fn or a state_lock_fn! row, must be declared `extern` by some FL
# guest under crates/ or tests/. A call no guest makes is tested through
# a guest or deleted.
hostfuncs=crates/core/src/hostfuncs.rs
exports=$(sed -nE 's/.*(define_fn\("faasm", |state_lock_fn!\()"(\w+)".*/\2/p' "$hostfuncs")
[[ -n $exports ]] || { echo "$hostfuncs: the census found no host calls; fix its pattern" >&2; failed=1; }
for name in $exports; do
    if ! grep -rqE --include='*.rs' "extern [a-z ]+ $name\(" crates tests; then
        echo "$hostfuncs: faaslet_linker defines $name, but no FL guest under crates/ or tests/ declares it; test it through a guest or delete it" >&2
        failed=1
    fi
done
if ((failed)); then
    exit 1
fi

# Tier-1 must hold serially and oversubscribed: no test may depend on
# having the process, or a core, to itself. That includes the exact
# per-call budget rows of tests/call_budgets.rs.
for threads in 1 8; do
    echo "== cargo test --test-threads=$threads"
    start=$SECONDS
    cargo test --workspace -q -- --test-threads="$threads"
    echo "== cargo test --test-threads=$threads took $((SECONDS - start)) s"
done

# Release is the build the benchmark measures, and overflow checks differ
# between the two profiles: the VM's own tests, and the lowered tier's
# census, fuel sweep and parity tests at the root.
echo "== cargo test --release -p faasm-fvm"
cargo test --release -p faasm-fvm -q
echo "== cargo test --release: dispatch census, lowering fuel sweep, lowered parity"
cargo test --release -q --test dispatch_census --test lowering_fuel_sweep --test lowered_parity

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

echo "== runtime-overhead example (smoke): Fig. 9 guest/native ratios, every kernel and program"
cargo run --release --example runtime_overhead

echo "== the repo benchmark, all five workloads at 1 s (smoke)"
bash benchmark/run.sh --smoke

echo "CI OK"
