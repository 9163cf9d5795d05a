//! What a warm call costs around the VM, without a clock: an echo `run` +
//! `reset` cycle on a kept Faaslet copies exactly the one 4 KiB block the
//! call wrote back from the Proto-Faaslet — not a 64 KiB page, and not
//! nothing — and allocates a context, not a guest: no page copy, no stack
//! regrowth, no re-link. This is its own test binary because it installs a
//! counting `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use faasm_core::{
    faaslet_linker, CallId, CallSpec, CallStatus, CgroupCpu, Faaslet, FaasletEnv, FunctionDef,
    GuestCode, NoChain, TraceCtx,
};
use faasm_fvm::ObjectModule;
use faasm_kvs::{KvClient, KvStore};
use faasm_mem::{BLOCK_SIZE, PAGE_SIZE};
use faasm_net::Fabric;
use faasm_state::StateManager;
use faasm_vfs::{HostFs, ObjectStore};

struct Counting;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread only: the test harness's own threads
    /// allocate whenever they like, and that is not the Faaslet's doing.
    static MEASURED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count_if_measured(bytes: usize) {
    if MEASURED.with(std::cell::Cell::get) {
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: defers every operation to `System` unchanged; the counter is a
// relaxed statistic, and the thread-local it consults is const-initialised
// and has no destructor, so reading it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measured(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measured(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    MEASURED.with(|m| m.set(true));
    f();
    MEASURED.with(|m| m.set(false));
    ALLOCATED_BYTES.load(Ordering::Relaxed) - before
}

/// The `ingress_null` guest.
const ECHO: &str = r#"
    extern int input_size();
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    int main() {
        int n = input_size();
        int got = read_call_input((ptr int) 1024, n);
        write_call_output((ptr int) 1024, got);
        return 0;
    }
"#;

#[test]
fn a_warm_echo_cycle_copies_one_block_and_allocates_no_guest() {
    let env = FaasletEnv {
        state: Arc::new(StateManager::new(Arc::new(KvClient::local(Arc::new(
            KvStore::new(),
        ))))),
        hostfs: HostFs::new(Arc::new(ObjectStore::new())),
        nic: Fabric::new().add_host(),
        router: Arc::new(NoChain),
        cgroup: CgroupCpu::new(1 << 20),
        linker: Arc::new(faaslet_linker()),
        egress: None,
    };
    let module = faasm_lang::compile(ECHO).expect("compiles");
    let def = Arc::new(FunctionDef {
        code: GuestCode::Fvm(ObjectModule::prepare(module).expect("validates")),
        entry: "main".into(),
        init: None,
        reset_after_call: true,
    });
    let call = CallSpec {
        id: CallId(1),
        user: "u".into(),
        function: "echo".into(),
        input: vec![1, 2, 3, 4],
        trace: TraceCtx::NONE,
    };
    let mut faaslet = Faaslet::create_cold(1, "u", "echo", def, &env).expect("cold start");
    let proto = faaslet.capture_proto().expect("an FVM guest has a proto");
    assert_eq!(faaslet.reset_bytes(), 0, "nothing reset yet");

    // The first cycle pays the copy-on-write fault and sizes the stacks.
    let cycle = |faaslet: &mut Faaslet| {
        let result = faaslet.run(&call);
        assert_eq!(result.status, CallStatus::Success);
        assert_eq!(result.output, call.input);
        faaslet.reset(Some(&proto)).expect("reset");
    };
    cycle(&mut faaslet);
    assert_eq!(faaslet.reset_bytes(), BLOCK_SIZE);

    // The counter is live on this thread.
    assert_eq!(
        allocated_during(|| drop(std::hint::black_box(vec![0u8; 64]))),
        64
    );
    for _ in 0..3 {
        let allocated = allocated_during(|| cycle(&mut faaslet));
        assert_eq!(
            faaslet.reset_bytes(),
            BLOCK_SIZE,
            "a warm echo reset copies back the one block the call wrote"
        );
        assert!(
            allocated < 16 * 1024,
            "a warm run + reset allocated {allocated} B; a page copy alone is {PAGE_SIZE}"
        );
    }
}
