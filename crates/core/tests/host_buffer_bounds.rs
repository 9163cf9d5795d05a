//! A guest-chosen length never sizes a host allocation beyond the guest's
//! own memory: `write_call_output`, `recv` and `getrandom` each check
//! `ptr..ptr + len` against guest memory before they allocate a buffer of
//! `len` bytes, so a 64 MiB `len` against a one-page guest traps without
//! the host asking for 64 MiB; `dlcall` checks its output range before the
//! plugin's return value sizes the copy-out, so a negative `out_cap` traps
//! however long a result the plugin claims. This is its own test binary
//! because it installs a counting `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use faasm_core::{
    faaslet_linker, CallId, CallSpec, CallStatus, CgroupCpu, Faaslet, FaasletEnv, FunctionDef,
    GuestCode, NoChain, TraceCtx,
};
use faasm_fvm::ObjectModule;
use faasm_kvs::{KvClient, KvStore};
use faasm_lang::MemConfig;
use faasm_net::Fabric;
use faasm_state::StateManager;
use faasm_vfs::{HostFs, ObjectStore};

struct Largest;

static LARGEST_ALLOCATION: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the measuring thread only: the test harness's own threads
    /// allocate whenever they like, and that is not the Faaslet's doing.
    static MEASURED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn note_if_measured(bytes: usize) {
    if MEASURED.with(std::cell::Cell::get) {
        LARGEST_ALLOCATION.fetch_max(bytes, Ordering::Relaxed);
    }
}

// SAFETY: defers every operation to `System` unchanged; the maximum is a
// relaxed statistic, and the thread-local it consults is const-initialised
// and has no destructor, so reading it never allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_if_measured(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_if_measured(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_if_measured(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The largest single allocation `f` makes on this thread.
fn largest_allocation_during(f: impl FnOnce()) -> usize {
    LARGEST_ALLOCATION.store(0, Ordering::Relaxed);
    MEASURED.with(|m| m.set(true));
    f();
    MEASURED.with(|m| m.set(false));
    LARGEST_ALLOCATION.load(Ordering::Relaxed)
}

/// A plugin whose one export claims a 2 GiB - 1 result.
const PLUGIN: &str = r#"
    int dl_entry(ptr int buf, int len) { return 2147483647; }
"#;

/// One export per host call, each handing it a 64 MiB `len` at address 0,
/// and one calling the plugin with an `out_cap` of -1.
const GUEST: &str = r#"
    extern void write_call_output(ptr int buf, int len);
    extern int recv(int sock, ptr int buf, int len);
    extern int getrandom(ptr int buf, int len);
    extern int dlopen(ptr int path, int len);
    extern int dlsym(int handle, ptr int name, int len);
    extern int dlcall(int sym, ptr int arg, int arg_len, ptr int out, int out_cap);
    int plugin() {
        ptr int path = (ptr int) 64;
        path[0] = 0x67756c70; // "plug"
        path[1] = 0x662e6e69; // "in.f"
        path[2] = 0x6d76;     // "vm"
        int h = dlopen((ptr int) 64, 10);
        if (h < 0) { return -1; }
        ptr int name = (ptr int) 128;
        name[0] = 0x655f6c64; // "dl_e"
        name[1] = 0x7972746e; // "ntry"
        int sym = dlsym(h, (ptr int) 128, 8);
        if (sym < 0) { return -2; }
        return dlcall(sym, (ptr int) 192, 4, (ptr int) 256, -1);
    }
    int output() {
        write_call_output((ptr int) 0, 67108864);
        return 0;
    }
    int receive() {
        recv(1, (ptr int) 0, 67108864);
        return 0;
    }
    int random() {
        getrandom((ptr int) 0, 67108864);
        return 0;
    }
"#;

#[test]
fn a_64_mib_len_against_one_page_traps_before_the_host_allocates_it() {
    let store = Arc::new(ObjectStore::new());
    let plugin = faasm_lang::compile(PLUGIN).expect("compiles");
    store.put("user:u/plugin.fvm", faasm_fvm::encode_module(&plugin));
    let env = FaasletEnv {
        state: Arc::new(StateManager::new(Arc::new(KvClient::local(Arc::new(
            KvStore::new(),
        ))))),
        hostfs: HostFs::new(store),
        nic: Fabric::new().add_host(),
        router: Arc::new(NoChain),
        cgroup: CgroupCpu::new(1 << 20),
        linker: Arc::new(faaslet_linker()),
        egress: None,
    };
    let one_page = MemConfig {
        initial_pages: 1,
        max_pages: 1,
    };
    let module = faasm_lang::compile_with(GUEST, one_page).expect("compiles");
    let object = ObjectModule::prepare(module).expect("validates");

    // The measure is live on this thread.
    assert_eq!(
        largest_allocation_during(|| drop(std::hint::black_box(vec![0u8; 2 << 20]))),
        2 << 20
    );
    for (id, entry) in ["output", "receive", "random", "plugin"]
        .into_iter()
        .enumerate()
    {
        let def = Arc::new(FunctionDef {
            code: GuestCode::Fvm(Arc::clone(&object)),
            entry: entry.into(),
            init: None,
            reset_after_call: true,
        });
        let mut faaslet = Faaslet::create_cold(1, "u", entry, def, &env).expect("cold start");
        let call = CallSpec {
            id: CallId(id as u64),
            user: "u".into(),
            function: entry.into(),
            input: Vec::new(),
            trace: TraceCtx::NONE,
        };
        let mut status = CallStatus::Success;
        let largest = largest_allocation_during(|| status = faaslet.run(&call).status);
        assert!(
            largest <= 1 << 20,
            "{entry}: the host made a {largest} B allocation for a one-page guest"
        );
        assert!(
            matches!(&status, CallStatus::Error(m) if m.starts_with("out-of-bounds memory access")),
            "{entry}: {status:?}"
        );
    }
}
