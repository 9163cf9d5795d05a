//! Guest code and the cluster-wide function registry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use faasm_fvm::{ObjectModule, Trap};
use faasm_sched::{CallResult, CallSpec};
use parking_lot::RwLock;

use crate::ctx::NativeApi;
use crate::instance::FaasmInstance;

/// A trusted native guest: workloads the paper compiled from large C/C++
/// codebases to WebAssembly (e.g. TensorFlow Lite) run in this reproduction
/// as native Rust against the same host interface. Native
/// guests receive no linear memory; all interaction goes through
/// [`NativeApi`].
pub trait NativeGuest: Send + Sync {
    /// Run one invocation; the return value is the call's return code.
    ///
    /// # Errors
    ///
    /// A trap fails the call like an FVM trap would.
    fn invoke(&self, api: &mut NativeApi<'_>) -> Result<i32, Trap>;
}

impl<F> NativeGuest for F
where
    F: Fn(&mut NativeApi<'_>) -> Result<i32, Trap> + Send + Sync,
{
    fn invoke(&self, api: &mut NativeApi<'_>) -> Result<i32, Trap> {
        self(api)
    }
}

/// A function isolated by a container instead of a Faaslet: the other
/// isolation mechanism, the one the paper's Knative baseline uses (§6.1).
/// Everything around the container is the runtime's own — placement, bus,
/// workers, the warm pool, start metrics and billing. The container brings
/// what differs: its private image copy and state copies, the host memory
/// limit it is refused at, and the HTTP framing its calls travel in.
pub trait ContainerCode: Send + Sync {
    /// Cold-start a container for `user/function` on `host`; the runtime
    /// counts it as the call's cold start and pools it warm afterwards.
    ///
    /// # Errors
    ///
    /// Why no container could start, e.g. `OOMKilled` at the host's memory
    /// limit.
    fn cold_start(
        &self,
        id: u64,
        user: &str,
        function: &str,
        host: &Arc<FaasmInstance>,
    ) -> Result<Box<dyn Sandbox>, String>;

    /// Padding bytes every hop of a call to the function carries —
    /// ingress, chain and result (see [`crate::msg::frame_msg`]).
    fn http_overhead(&self) -> usize;
}

/// A started container: it runs one call at a time and is billed its whole
/// resident set, since it shares no pages with its neighbours.
pub trait Sandbox: Send {
    /// Run one call to completion.
    fn run(&mut self, call: &CallSpec) -> CallResult;

    /// Resident bytes: the private image copy plus private state copies.
    fn rss_bytes(&self) -> usize;
}

/// The executable form of a function.
#[derive(Clone)]
pub enum GuestCode {
    /// A validated FVM object module (the normal path).
    Fvm(Arc<ObjectModule>),
    /// A trusted native guest.
    Native(Arc<dyn NativeGuest>),
    /// Code isolated in a container rather than a Faaslet.
    Container(Arc<dyn ContainerCode>),
}

impl GuestCode {
    /// The HTTP padding each hop of a call to this code carries: none but
    /// for a container.
    pub(crate) fn http_overhead(&self) -> usize {
        match self {
            GuestCode::Container(code) => code.http_overhead(),
            GuestCode::Fvm(_) | GuestCode::Native(_) => 0,
        }
    }
}

impl std::fmt::Debug for GuestCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuestCode::Fvm(o) => write!(f, "Fvm({} funcs)", o.module.func_count()),
            GuestCode::Native(_) => write!(f, "Native"),
            GuestCode::Container(_) => write!(f, "Container"),
        }
    }
}

/// A registered function.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    /// Executable code.
    pub code: GuestCode,
    /// Entry export invoked per call (FVM guests; default `"main"`). Its
    /// signature must be `[] -> []` or `[] -> [i32]`.
    pub entry: String,
    /// Optional initialisation export run once before the Proto-Faaslet
    /// snapshot is taken (§5.2 "user-defined initialisation code").
    pub init: Option<String>,
    /// Restore the Faaslet from its Proto-Faaslet after every call,
    /// guaranteeing no cross-call data leakage (§5.2).
    pub reset_after_call: bool,
}

/// A function's current upload and the generation it was assigned.
type Upload = (Arc<FunctionDef>, u64);

/// Cluster-wide function registry, shared by every runtime instance.
///
/// Every [`insert`](Self::insert) is one *upload* and is assigned the next
/// **generation**, a registry-wide, strictly increasing number: the
/// identity of everything a host builds from the upload (warm Faaslets,
/// the Proto-Faaslet and its meta chunk in the tier), so none of it is ever
/// used under another upload. A function is replaced, never removed.
#[derive(Debug, Default)]
pub struct FunctionRegistry {
    /// User → function → upload: nested so a lookup borrows its names
    /// instead of allocating a key (placing and sending a call look its
    /// function up several times).
    funcs: RwLock<HashMap<String, HashMap<String, Upload>>>,
    generation: AtomicU64,
}

impl FunctionRegistry {
    /// An empty registry.
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Register (or replace) a function as a new upload.
    pub fn insert(&self, user: &str, function: &str, def: FunctionDef) {
        let mut funcs = self.funcs.write();
        // Bumped under the write lock, so generations order the uploads of
        // one function the way the map saw them.
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        funcs
            .entry(user.to_string())
            .or_default()
            .insert(function.to_string(), (Arc::new(def), generation));
    }

    /// Look up a function: its current upload and that upload's generation.
    pub fn get(&self, user: &str, function: &str) -> Option<(Arc<FunctionDef>, u64)> {
        self.funcs.read().get(user)?.get(function).cloned()
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.funcs.read().values().map(HashMap::len).sum()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.funcs.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasm_fvm::ModuleBuilder;

    #[test]
    fn registry_crud() {
        let r = FunctionRegistry::new();
        assert!(r.is_empty());
        let object = ObjectModule::prepare(ModuleBuilder::new().build()).unwrap();
        r.insert(
            "u",
            "f",
            FunctionDef {
                code: GuestCode::Fvm(object),
                entry: "main".into(),
                init: None,
                reset_after_call: true,
            },
        );
        assert_eq!(r.len(), 1);
        let (first, generation) = r.get("u", "f").unwrap();
        assert!(r.get("u", "g").is_none());
        assert!(r.get("other", "f").is_none(), "functions are per-user");
        // Re-inserting the same definition is a new upload all the same.
        r.insert("u", "f", (*first).clone());
        assert!(r.get("u", "f").unwrap().1 > generation);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn native_guests_from_closures() {
        let guest: Arc<dyn NativeGuest> = Arc::new(|api: &mut NativeApi<'_>| {
            api.write_output(b"native");
            Ok(0)
        });
        let r = FunctionRegistry::new();
        r.insert(
            "u",
            "n",
            FunctionDef {
                code: GuestCode::Native(guest),
                entry: "main".into(),
                init: None,
                reset_after_call: false,
            },
        );
        let (def, _) = r.get("u", "n").unwrap();
        assert!(matches!(def.code, GuestCode::Native(_)));
        let dbg = format!("{:?}", def.code);
        assert!(dbg.contains("Native"));
    }
}
