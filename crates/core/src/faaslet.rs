//! The Faaslet: the paper's isolation abstraction (§3, Fig. 1).
//!
//! A Faaslet bundles: a guest execution unit (FVM instance or trusted native
//! guest) with bounds-checked private memory; a shaped virtual network
//! interface in its own "namespace"; a WASI-style descriptor table; a CPU
//! cgroup share; and the host-interface context. Faaslets are created cold,
//! restored from Proto-Faaslets in microseconds, reset between calls so no
//! tenant data survives, and kept warm in per-function pools.

use std::collections::HashMap;
use std::sync::Arc;

use faasm_fvm::{FuelMeter, Instance, InstanceSnapshot, Linker, Val};
use faasm_net::{Nic, TokenBucket};
use faasm_sched::{CallResult, CallSpec, CallStatus};
use faasm_state::StateManager;
use faasm_vfs::{FdTable, HostFs};

use crate::cgroup::{CgroupCpu, CgroupShare};
use crate::ctx::{ChainRouter, FaasletCtx, NativeApi};
use crate::error::CoreError;
use crate::guest::{FunctionDef, GuestCode, Sandbox};
use crate::proto::ProtoFaaslet;
use crate::rng::SplitMix64;

/// Baseline footprint charged to a native-guest Faaslet (its Rust-side
/// structures are not measurable the way linear memory is); documented
/// approximation.
pub const NATIVE_BASE_BYTES: f64 = 64.0 * 1024.0;

/// Egress traffic-shaping configuration for a Faaslet's virtual interface.
#[derive(Debug, Clone, Copy)]
pub struct EgressLimit {
    /// Rate in bytes/second.
    pub rate: u64,
    /// Burst capacity in bytes.
    pub burst: u64,
}

/// Everything needed to build (or rebuild) a Faaslet on a host; cheap to
/// clone — all fields are shared handles.
#[derive(Clone)]
pub struct FaasletEnv {
    /// Host state tier.
    pub state: Arc<StateManager>,
    /// Host filesystem.
    pub hostfs: Arc<HostFs>,
    /// Host NIC (virtual interfaces are derived from it).
    pub nic: Nic,
    /// Chained-call router (the runtime instance).
    pub router: Arc<dyn ChainRouter>,
    /// CPU control group for this host's Faaslets.
    pub cgroup: Arc<CgroupCpu>,
    /// The host-interface linker.
    pub linker: Arc<Linker>,
    /// Optional per-Faaslet egress shaping.
    pub egress: Option<EgressLimit>,
}

impl std::fmt::Debug for FaasletEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaasletEnv")
            .field("host", &self.nic.id())
            .finish()
    }
}

enum GuestInstance {
    Fvm(Box<Instance>),
    Native {
        guest: Arc<dyn crate::guest::NativeGuest>,
        ctx: Box<FaasletCtx>,
    },
    /// A container in a Faaslet's place: it keeps its own host interface,
    /// so it has no [`FaasletCtx`].
    Container(Box<dyn Sandbox>),
}

/// One Faaslet.
pub struct Faaslet {
    /// Unique id on this host.
    pub id: u64,
    /// Owning user.
    pub user: String,
    /// Function name.
    pub function: String,
    def: Arc<FunctionDef>,
    env: FaasletEnv,
    guest: GuestInstance,
    /// Bytes the last [`Faaslet::reset`] copied back.
    reset_bytes: usize,
}

impl std::fmt::Debug for Faaslet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Faaslet")
            .field("id", &self.id)
            .field("user", &self.user)
            .field("function", &self.function)
            .finish()
    }
}

fn build_ctx(
    id: u64,
    user: &str,
    function: &str,
    env: &FaasletEnv,
    share: Arc<CgroupShare>,
) -> FaasletCtx {
    let bucket = match env.egress {
        Some(e) => TokenBucket::new(e.rate, e.burst),
        None => TokenBucket::unlimited(),
    };
    FaasletCtx {
        faaslet_id: id,
        user: user.to_string(),
        function: function.to_string(),
        call_id: faasm_sched::CallId(0),
        input: Vec::new(),
        output: Vec::new(),
        state: Arc::clone(&env.state),
        fdtable: FdTable::new(Arc::clone(&env.hostfs), user),
        vif: Arc::new(env.nic.virtual_interface(bucket)),
        router: Arc::clone(&env.router),
        cgroup: Some(share),
        mapped_state: HashMap::new(),
        held_locks: Vec::new(),
        held_global: Vec::new(),
        sockets: HashMap::new(),
        next_socket: 1,
        started: env.nic.recorder().clock().now(),
        rng: SplitMix64::new(id),
        chained: Vec::new(),
        results: HashMap::new(),
        dl_modules: Vec::new(),
    }
}

/// An FVM guest's context: its instance's data.
fn fvm_ctx(inst: &mut Instance) -> &mut FaasletCtx {
    inst.data_as::<FaasletCtx>()
        .expect("faaslet instances carry FaasletCtx")
}

/// Start a call on a guest's context. A Faaslet is a cgroup member only
/// while a call runs: [`Faaslet::run`] parks it again on every way out.
fn enter(ctx: &mut FaasletCtx, call: &CallSpec) {
    ctx.begin_call(call.id, call.input.clone());
    if let Some(cg) = &ctx.cgroup {
        cg.unpark();
    }
}

/// The one way a guest comes to be: a parked cgroup share, a fresh context
/// holding it, and — for FVM code — an instance metered by that share,
/// either instantiated from the module (running `init`) or, given a
/// `snapshot`, restored from it copy-on-write with no guest code run. (An
/// FVM guest's reset keeps the instance and the share; its fresh context
/// still comes from [`build_ctx`].)
fn build_guest(
    id: u64,
    user: &str,
    function: &str,
    def: &FunctionDef,
    snapshot: Option<&InstanceSnapshot>,
    env: &FaasletEnv,
) -> Result<GuestInstance, CoreError> {
    let share = Arc::new(env.cgroup.join_parked());
    let ctx = Box::new(build_ctx(id, user, function, env, Arc::clone(&share)));
    let object = match &def.code {
        GuestCode::Fvm(object) => Arc::clone(object),
        GuestCode::Native(_) if snapshot.is_some() => {
            return Err(CoreError::BadProto(
                "native guests have no proto-faaslets".into(),
            ));
        }
        GuestCode::Native(guest) => {
            return Ok(GuestInstance::Native {
                guest: Arc::clone(guest),
                ctx,
            });
        }
        GuestCode::Container(_) => {
            return Err(CoreError::Instantiate(
                "a container is started by its code, not built as a guest".into(),
            ));
        }
    };
    let fuel = FuelMeter::with_controller(
        Arc::<CgroupShare>::clone(&share),
        faasm_fvm::fuel::DEFAULT_SLICE,
    );
    let instance = match snapshot {
        Some(snapshot) => Instance::restore(object, snapshot, &env.linker, ctx, fuel)
            .map_err(|e| CoreError::BadProto(e.to_string()))?,
        None => {
            // The start function and `init` are guest code: they run as a
            // cgroup member like a call does (dropping the share on an
            // error path parks it too).
            share.unpark();
            let mut instance = Instance::with_fuel(object, &env.linker, ctx, fuel)
                .map_err(|e| CoreError::Instantiate(e.to_string()))?;
            if let Some(init) = &def.init {
                instance
                    .invoke(init, &[])
                    .map_err(|t| CoreError::Instantiate(format!("init trapped: {t}")))?;
            }
            share.park();
            instance
        }
    };
    Ok(GuestInstance::Fvm(Box::new(instance)))
}

impl Faaslet {
    /// Create a Faaslet cold: full instantiation (and the `init` export, if
    /// declared — the state captured by a later snapshot).
    ///
    /// # Errors
    ///
    /// [`CoreError`] on link/instantiation/init failure.
    pub fn create_cold(
        id: u64,
        user: &str,
        function: &str,
        def: Arc<FunctionDef>,
        env: &FaasletEnv,
    ) -> Result<Faaslet, CoreError> {
        Ok(Faaslet {
            id,
            user: user.to_string(),
            function: function.to_string(),
            guest: build_guest(id, user, function, &def, None, env)?,
            def,
            env: env.clone(),
            reset_bytes: 0,
        })
    }

    /// Restore a Faaslet from a Proto-Faaslet snapshot — the fast path
    /// (§5.2): copy-on-write memory mapping, no data segments, no init code.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadProto`] if the snapshot does not match the module;
    /// native-guest functions have no snapshots and fail with
    /// [`CoreError::BadProto`].
    pub fn restore(
        id: u64,
        proto: &ProtoFaaslet,
        def: Arc<FunctionDef>,
        env: &FaasletEnv,
    ) -> Result<Faaslet, CoreError> {
        let (user, function) = (&proto.user, &proto.function);
        Ok(Faaslet {
            id,
            user: user.clone(),
            function: function.clone(),
            guest: build_guest(id, user, function, &def, Some(&proto.snapshot), env)?,
            def,
            env: env.clone(),
            reset_bytes: 0,
        })
    }

    /// Pool, run and bill a container started by its
    /// [`ContainerCode`](crate::ContainerCode) like any Faaslet.
    pub(crate) fn container(
        id: u64,
        user: &str,
        function: &str,
        def: Arc<FunctionDef>,
        sandbox: Box<dyn Sandbox>,
        env: &FaasletEnv,
    ) -> Faaslet {
        Faaslet {
            id,
            user: user.to_string(),
            function: function.to_string(),
            def,
            env: env.clone(),
            guest: GuestInstance::Container(sandbox),
            reset_bytes: 0,
        }
    }

    /// Capture a Proto-Faaslet from this Faaslet's current state (FVM
    /// guests only). A Faaslet does not know which upload its definition
    /// came from: the runtime instance stamps the generation.
    pub fn capture_proto(&mut self) -> Option<ProtoFaaslet> {
        match &mut self.guest {
            GuestInstance::Fvm(inst) => Some(ProtoFaaslet {
                user: self.user.clone(),
                function: self.function.clone(),
                generation: 0,
                snapshot: inst.snapshot(),
            }),
            GuestInstance::Native { .. } | GuestInstance::Container(_) => None,
        }
    }

    /// Run one call to completion.
    pub fn run(&mut self, call: &CallSpec) -> CallResult {
        let status = match &mut self.guest {
            // A container runs the call behind its own host interface.
            GuestInstance::Container(sandbox) => return sandbox.run(call),
            GuestInstance::Fvm(inst) => {
                enter(fvm_ctx(inst), call);
                inst.fuel.reset_consumed();
                inst.reset_instrs();
                match inst.invoke(&self.def.entry, &[]) {
                    Ok(Some(Val::I32(code))) if code != 0 => CallStatus::Failed(code),
                    Ok(_) => CallStatus::Success,
                    Err(trap) => CallStatus::Error(trap.to_string()),
                }
            }
            GuestInstance::Native { guest, ctx } => {
                enter(ctx, call);
                match guest.invoke(&mut NativeApi::new(ctx)) {
                    Ok(0) => CallStatus::Success,
                    Ok(code) => CallStatus::Failed(code),
                    Err(trap) => CallStatus::Error(trap.to_string()),
                }
            }
        };
        // Every way out of the guest passes here, so a local state lock
        // cannot outlive the call that took it, and an idle Faaslet in the
        // warm pool does not hold the host's cgroup back.
        let ctx = self.ctx_mut().expect("a Faaslet guest carries its context");
        ctx.release_state_locks();
        if let Some(cg) = &ctx.cgroup {
            cg.park();
        }
        CallResult {
            id: call.id,
            status,
            output: std::mem::take(&mut ctx.output),
        }
    }

    /// Reset after a call — a restore in place, so "no information from the
    /// previous call is disclosed" (§5.2). An FVM guest keeps its instance:
    /// memory, globals and table are put back to the Proto-Faaslet's at the
    /// cost of the 4 KiB blocks the call wrote
    /// ([`faasm_fvm::Instance::reset_to`]), the linked imports and the
    /// cgroup share stay, and the context — every capability the call
    /// acquired: descriptors, sockets, state mappings, chained results,
    /// loaded modules, the shaped interface — is replaced by a fresh one.
    /// Native guests (no proto) are rebuilt.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadProto`] on snapshot/module mismatch, or when an FVM
    /// Faaslet is reset without its proto.
    pub fn reset(&mut self, proto: Option<&ProtoFaaslet>) -> Result<(), CoreError> {
        let GuestInstance::Fvm(inst) = &mut self.guest else {
            self.guest = build_guest(
                self.id,
                &self.user,
                &self.function,
                &self.def,
                proto.map(|p| &p.snapshot),
                &self.env,
            )?;
            return Ok(());
        };
        let Some(proto) = proto else {
            return Err(CoreError::BadProto(
                "reset of an FVM faaslet requires its proto".into(),
            ));
        };
        self.reset_bytes = inst
            .reset_to(&proto.snapshot)
            .map_err(|e| CoreError::BadProto(e.to_string()))?;
        let share = inst
            .data_as::<FaasletCtx>()
            .and_then(|ctx| ctx.cgroup.take())
            .expect("faaslet instances carry a FaasletCtx holding their cgroup share");
        let ctx = build_ctx(self.id, &self.user, &self.function, &self.env, share);
        inst.replace_data(Box::new(ctx));
        Ok(())
    }

    /// Bytes of guest memory the last [`Faaslet::reset`] copied back (0
    /// before the first reset and for native guests).
    pub fn reset_bytes(&self) -> usize {
        self.reset_bytes
    }

    /// The Faaslet's context (for inspection by the runtime); a container
    /// has none.
    pub fn ctx_mut(&mut self) -> Option<&mut FaasletCtx> {
        match &mut self.guest {
            GuestInstance::Fvm(inst) => Some(fvm_ctx(inst)),
            GuestInstance::Native { ctx, .. } => Some(ctx),
            GuestInstance::Container(_) => None,
        }
    }

    /// Fuel consumed by the last call (FVM guests; 0 for native guests,
    /// which are not metered).
    pub fn fuel_consumed(&self) -> u64 {
        match &self.guest {
            GuestInstance::Fvm(inst) => inst.fuel.consumed(),
            GuestInstance::Native { .. } | GuestInstance::Container(_) => 0,
        }
    }

    /// VM operations dispatched by the last call (FVM guests; 0 for native
    /// guests). Tier-dependent: one lowered op may stand for several source
    /// instructions, so this is ≤ [`Faaslet::fuel_consumed`].
    pub fn instrs_retired(&self) -> u64 {
        match &self.guest {
            GuestInstance::Fvm(inst) => inst.instrs_retired(),
            GuestInstance::Native { .. } | GuestInstance::Container(_) => 0,
        }
    }

    /// Proportional-set-size footprint in bytes: linear memory PSS (shared
    /// regions divided among their sharers) plus the VM's retained stacks
    /// for FVM guests; a base constant plus attributed state shares for
    /// native guests; the whole resident set for a container, which shares
    /// no pages. Memory counts its backed 4 KiB blocks only.
    pub fn pss_bytes(&self) -> f64 {
        match &self.guest {
            GuestInstance::Fvm(inst) => {
                inst.memory().map_or(0.0, |m| m.stats().pss_bytes) + inst.stack_bytes() as f64
            }
            GuestInstance::Native { ctx, .. } => {
                let mut total = NATIVE_BASE_BYTES;
                for m in ctx.mapped_state.values() {
                    let sharers = Arc::strong_count(&m.entry).saturating_sub(1).max(1);
                    total += m.entry.region().resident_bytes() as f64 / sharers as f64;
                }
                total
            }
            GuestInstance::Container(sandbox) => sandbox.rss_bytes() as f64,
        }
    }

    /// Resident-set-size footprint in bytes (every backed block counted in
    /// full, plus an FVM guest's retained stacks).
    pub fn rss_bytes(&self) -> usize {
        match &self.guest {
            GuestInstance::Fvm(inst) => {
                inst.memory().map_or(0, |m| m.stats().rss_bytes) + inst.stack_bytes()
            }
            GuestInstance::Native { ctx, .. } => {
                NATIVE_BASE_BYTES as usize
                    + ctx
                        .mapped_state
                        .values()
                        .map(|m| m.entry.region().resident_bytes())
                        .sum::<usize>()
            }
            GuestInstance::Container(sandbox) => sandbox.rss_bytes(),
        }
    }

    /// The resident bytes this Faaslet adds to its host: [`Self::rss_bytes`]
    /// without a native guest's mapped state, whose replica the host's
    /// state tier counts once however many Faaslets map it.
    pub fn private_bytes(&self) -> usize {
        match &self.guest {
            GuestInstance::Fvm(_) | GuestInstance::Container(_) => self.rss_bytes(),
            GuestInstance::Native { .. } => NATIVE_BASE_BYTES as usize,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ctx::NoChain;
    use crate::guest::FunctionRegistry;
    use crate::hostfuncs::faaslet_linker;
    use faasm_kvs::{KvClient, KvStore};
    use faasm_net::Fabric;
    use faasm_sched::CallId;
    use faasm_vfs::ObjectStore;
    use std::time::Instant;

    pub(crate) fn test_env() -> FaasletEnv {
        let fabric = Fabric::new();
        let nic = fabric.add_host();
        let kv = Arc::new(KvClient::local(Arc::new(KvStore::new())));
        FaasletEnv {
            state: Arc::new(StateManager::new(kv)),
            hostfs: HostFs::new(Arc::new(ObjectStore::new())),
            nic,
            router: Arc::new(NoChain),
            cgroup: CgroupCpu::new(1 << 20),
            linker: Arc::new(faaslet_linker()),
            egress: None,
        }
    }

    fn fl_def(src: &str, init: Option<&str>) -> Arc<FunctionDef> {
        let module = faasm_lang::compile(src).unwrap();
        let object = faasm_fvm::ObjectModule::prepare(module).unwrap();
        Arc::new(FunctionDef {
            code: GuestCode::Fvm(object),
            entry: "main".into(),
            init: init.map(String::from),
            reset_after_call: true,
        })
    }

    fn call(n: u64, input: &[u8]) -> CallSpec {
        CallSpec {
            id: CallId(n),
            user: "u".into(),
            function: "f".into(),
            input: input.to_vec(),
            trace: faasm_sched::TraceCtx::NONE,
        }
    }

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
    fn cold_create_and_run() {
        let env = test_env();
        let def = fl_def(ECHO, None);
        let mut f = Faaslet::create_cold(1, "u", "f", def, &env).unwrap();
        let r = f.run(&call(1, b"hello"));
        assert_eq!(r.status, CallStatus::Success);
        assert_eq!(r.output, b"hello");
        assert!(f.fuel_consumed() > 0);
        assert!(f.pss_bytes() > 0.0);
        assert!(f.rss_bytes() > 0);
    }

    #[test]
    fn init_runs_before_snapshot_and_restores() {
        // init writes a marker into memory; main reads it back.
        let src = r#"
            extern void write_call_output(ptr int buf, int len);
            void init() {
                ptr int m = (ptr int) 2048;
                m[0] = 424242;
            }
            int main() {
                write_call_output((ptr int) 2048, 4);
                return 0;
            }
        "#;
        let env = test_env();
        let def = fl_def(src, Some("init"));
        let mut cold = Faaslet::create_cold(1, "u", "f", Arc::clone(&def), &env).unwrap();
        let proto = cold.capture_proto().unwrap();
        // A restored Faaslet sees the initialised state without running init.
        let mut restored = Faaslet::restore(2, &proto, def, &env).unwrap();
        let r = restored.run(&call(1, b""));
        assert_eq!(r.status, CallStatus::Success);
        assert_eq!(
            i32::from_le_bytes(r.output[..4].try_into().unwrap()),
            424242
        );
    }

    #[test]
    fn reset_clears_private_data() {
        // The guest stores its input into private memory; after reset, the
        // memory must be back to the proto state (no cross-call leakage).
        let src = r#"
            extern int input_size();
            extern int read_call_input(ptr int buf, int len);
            extern void write_call_output(ptr int buf, int len);
            int main() {
                // Echo whatever is at the stash location, then overwrite it
                // with this call's input.
                write_call_output((ptr int) 4096, 8);
                int n = input_size();
                read_call_input((ptr int) 4096, n);
                return 0;
            }
        "#;
        let env = test_env();
        let def = fl_def(src, None);
        let mut f = Faaslet::create_cold(1, "u", "f", Arc::clone(&def), &env).unwrap();
        let proto = f.capture_proto().unwrap();

        let r1 = f.run(&call(1, b"SECRET12"));
        assert_eq!(r1.output, vec![0u8; 8], "fresh memory leaks nothing");
        // Without reset the second call would see SECRET12.
        f.reset(Some(&proto)).unwrap();
        let r2 = f.run(&call(2, b"other"));
        assert_eq!(r2.output, vec![0u8; 8], "reset cleared the stash");
    }

    #[test]
    fn without_reset_data_leaks_across_calls() {
        // The control experiment for the test above: this is the leak
        // reset-after-call prevents.
        let src = r#"
            extern int input_size();
            extern int read_call_input(ptr int buf, int len);
            extern void write_call_output(ptr int buf, int len);
            int main() {
                write_call_output((ptr int) 4096, 8);
                int n = input_size();
                read_call_input((ptr int) 4096, n);
                return 0;
            }
        "#;
        let env = test_env();
        let def = fl_def(src, None);
        let mut f = Faaslet::create_cold(1, "u", "f", def, &env).unwrap();
        f.run(&call(1, b"SECRET12"));
        let r2 = f.run(&call(2, b"x"));
        assert_eq!(&r2.output, b"SECRET12", "no reset → leak (by design here)");
    }

    #[test]
    fn trapping_guest_reports_error() {
        let src = "int main() { int x = 1; int y = 0; return x / y; }";
        let env = test_env();
        let def = fl_def(src, None);
        let mut f = Faaslet::create_cold(1, "u", "f", def, &env).unwrap();
        let r = f.run(&call(1, b""));
        assert!(matches!(r.status, CallStatus::Error(_)));
    }

    #[test]
    fn foreign_unlock_traps_and_leaves_the_holder_exclusive() {
        use faasm_kvs::LockMode;
        let src = r#"
            extern void unlock_state_write(ptr int key, int key_len);
            int main() {
                ptr int k = (ptr int) 64;
                k[0] = 0x6b; // "k"
                unlock_state_write(k, 1);
                return 0;
            }
        "#;
        let env = test_env();
        let def = fl_def(src, None);
        let mut holder = Faaslet::create_cold(1, "u", "f", Arc::clone(&def), &env).unwrap();
        let mut thief = Faaslet::create_cold(2, "u", "f", def, &env).unwrap();
        // The holder's call is mid-flight with the write lock on "k".
        holder
            .ctx_mut()
            .unwrap()
            .lock_state_local("k", LockMode::Write)
            .unwrap();
        let r = thief.run(&call(1, b""));
        assert!(
            matches!(&r.status, CallStatus::Error(m) if m.contains("holds no such lock")),
            "an unlock without a lock must trap: {:?}",
            r.status
        );
        // Still exclusive: an implicit reader parks behind the holder.
        let entry = env.state.get("k", 1).unwrap();
        let reader = {
            let entry = Arc::clone(&entry);
            std::thread::spawn(move || entry.read(0, &mut [0u8; 1]).unwrap())
        };
        while entry.local_lock_waiters() == 0 {
            std::thread::yield_now();
        }
        let ctx = holder.ctx_mut().unwrap();
        assert_eq!(ctx.unlock_state_local("k", LockMode::Write), Ok(true));
        assert_eq!(ctx.unlock_state_local("k", LockMode::Write), Ok(false));
        reader.join().unwrap();
    }

    #[test]
    fn native_guest_runs_and_resets() {
        let env = test_env();
        let guest: Arc<dyn crate::guest::NativeGuest> = Arc::new(|api: &mut NativeApi<'_>| {
            let doubled: Vec<u8> = api.input().iter().map(|b| b * 2).collect();
            api.write_output(&doubled);
            Ok(0)
        });
        let def = Arc::new(FunctionDef {
            code: GuestCode::Native(guest),
            entry: "main".into(),
            init: None,
            reset_after_call: true,
        });
        let mut f = Faaslet::create_cold(5, "u", "n", def, &env).unwrap();
        let r = f.run(&call(1, &[1, 2, 3]));
        assert_eq!(r.output, vec![2, 4, 6]);
        assert!(f.capture_proto().is_none());
        f.reset(None).unwrap();
        let r = f.run(&call(2, &[5]));
        assert_eq!(r.output, vec![10]);
        assert!(f.pss_bytes() >= NATIVE_BASE_BYTES);
    }

    #[test]
    fn restore_is_much_faster_than_cold_start() {
        // The headline Proto-Faaslet property (§5.2, Tab. 3): restores are
        // over an order of magnitude faster than full cold starts for a
        // function with meaningful init work.
        let src = r#"
            void init() {
                // Touch 32 pages so the snapshot has real content.
                int base = mmap(2097152);
                ptr int p = (ptr int) base;
                int i = 0;
                while (i < 524288) {
                    p[i] = i;
                    i = i + 4096;
                }
            }
            int main() { return 0; }
        "#;
        let src = format!("extern int mmap(int len);\n{src}");
        let env = test_env();
        let def = fl_def(&src, Some("init"));

        let t0 = Instant::now();
        let mut cold = Faaslet::create_cold(1, "u", "f", Arc::clone(&def), &env).unwrap();
        let cold_time = t0.elapsed();
        let proto = cold.capture_proto().unwrap();

        let t1 = Instant::now();
        let iterations = 20;
        for i in 0..iterations {
            let f = Faaslet::restore(10 + i, &proto, Arc::clone(&def), &env).unwrap();
            drop(f);
        }
        let restore_time = t1.elapsed() / iterations as u32;
        assert!(
            restore_time < cold_time,
            "restore ({restore_time:?}) should beat cold start ({cold_time:?})"
        );
    }

    #[test]
    fn unused_registry_helper_lint() {
        // Keep FunctionRegistry referenced from this module's tests.
        let r = FunctionRegistry::new();
        assert!(r.is_empty());
    }
}
