//! The platform-agnostic function environment.
//!
//! "All experiments are implemented using the same code for both FAASM and
//! Knative, with a Knative-specific implementation of the Faaslet host
//! interface" (§6.1). [`FaasEnv`] is that shared interface: every workload
//! function is written against it once, and the two adapters bind it to the
//! Faaslet host interface ([`FaasmEnv`]) and the container API
//! ([`ContainerEnv`]). The semantics differ exactly where the paper says
//! they do: Faaslets pull state chunks into *shared* regions, containers
//! ship *whole values* into private copies.

use std::sync::Arc;

use faasm_baseline::ContainerApi;
use faasm_core::{NativeApi, StateEntry};

/// The operations workloads need from their platform.
pub trait FaasEnv {
    /// The call's input bytes.
    fn input(&self) -> Vec<u8>;

    /// Append output bytes.
    fn write_output(&mut self, data: &[u8]);

    /// Fill `buf` with the bytes of state `key` at `offset`; `total_size`
    /// is the value's full size (needed to size replicas on first touch).
    /// The caller owns the buffer, so a loop of small reads allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// A platform error message; a range past the end of the value is one.
    fn state_read(
        &mut self,
        key: &str,
        total_size: usize,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), String>;

    /// Write state bytes at `offset`.
    ///
    /// # Errors
    ///
    /// A platform error message.
    fn state_write(
        &mut self,
        key: &str,
        total_size: usize,
        offset: usize,
        data: &[u8],
    ) -> Result<(), String>;

    /// Flush local writes of `key` to the global tier (a no-op on platforms
    /// that write through).
    ///
    /// # Errors
    ///
    /// A platform error message.
    fn state_push(&mut self, key: &str, total_size: usize) -> Result<(), String>;

    /// Flush exactly `[offset, offset + len)` of `key` to the global tier
    /// (`push_state_offset`, Tab. 2). Writers updating disjoint ranges of a
    /// shared value must use this instead of [`FaasEnv::state_push`]:
    /// chunk-granular pushes can clobber a neighbour's concurrent update
    /// with stale local bytes.
    ///
    /// # Errors
    ///
    /// A platform error message.
    fn state_push_range(
        &mut self,
        key: &str,
        total_size: usize,
        offset: usize,
        len: usize,
    ) -> Result<(), String> {
        let _ = (offset, len);
        self.state_push(key, total_size)
    }

    /// Flush several disjoint `(offset, len)` ranges of `key` — the
    /// batched form of [`FaasEnv::state_push_range`] for writers that
    /// touched scattered ranges of a shared value. On Faasm this is a
    /// single global-tier round-trip; the default falls back to one
    /// [`FaasEnv::state_push_range`] per range.
    ///
    /// # Errors
    ///
    /// A platform error message.
    fn state_push_ranges(
        &mut self,
        key: &str,
        total_size: usize,
        ranges: &[(usize, usize)],
    ) -> Result<(), String> {
        for &(offset, len) in ranges {
            self.state_push_range(key, total_size, offset, len)?;
        }
        Ok(())
    }

    /// Settle after a range-flush protocol: the caller asserts every local
    /// write it made to `key` within `ranges` has been flushed (via
    /// [`FaasEnv::state_push_range`]/[`FaasEnv::state_push_ranges`]), so
    /// the platform may drop its local dirty claim on those ranges — a
    /// later chunk-granular [`FaasEnv::state_push`] must not re-upload
    /// whole stale chunks of a shared value. No-op on platforms without
    /// local dirty tracking (containers write through).
    ///
    /// # Errors
    ///
    /// A platform error message.
    fn state_settle_ranges(
        &mut self,
        key: &str,
        total_size: usize,
        ranges: &[(usize, usize)],
    ) -> Result<(), String> {
        let _ = (key, total_size, ranges);
        Ok(())
    }

    /// Size of a state value in the global tier.
    ///
    /// # Errors
    ///
    /// A platform error message.
    fn state_size(&self, key: &str) -> Result<usize, String>;

    /// Atomically add to a global counter; returns the new value.
    ///
    /// # Errors
    ///
    /// A platform error message.
    fn counter_add(&mut self, key: &str, delta: i64) -> Result<i64, String>;

    /// Chain a call to another function of the same user.
    fn chain(&mut self, function: &str, input: Vec<u8>) -> u64;

    /// Await a chained call; returns its return code.
    fn await_call(&mut self, id: u64) -> i32;

    /// Output of an awaited chained call.
    fn call_output(&mut self, id: u64) -> Option<Vec<u8>>;

    /// Read a whole file (model weights, datasets); Faaslets hit the
    /// host-shared read-global filesystem, containers fetch private copies.
    ///
    /// # Errors
    ///
    /// A platform error message.
    fn load_file(&mut self, path: &str) -> Result<Vec<u8>, String>;
}

/// [`FaasEnv`] over the Faaslet host interface.
pub struct FaasmEnv<'a, 'b> {
    api: &'a mut NativeApi<'b>,
    /// The entries this call has touched, resolved through the Faaslet's
    /// mapping table once each: a call names a handful of keys and then
    /// reads them thousands of times. Dropped with the call, so the
    /// sharer count behind `Faaslet::pss_bytes` is as it was.
    entries: Vec<(String, Arc<StateEntry>)>,
}

impl<'a, 'b> FaasmEnv<'a, 'b> {
    /// Wrap a native-guest API.
    pub fn new(api: &'a mut NativeApi<'b>) -> FaasmEnv<'a, 'b> {
        FaasmEnv {
            api,
            entries: Vec::new(),
        }
    }

    fn entry(&mut self, key: &str, total_size: usize) -> Result<&StateEntry, String> {
        let at = match self.entries.iter().position(|(k, _)| k == key) {
            Some(at) => at,
            None => {
                let entry = self.api.state(key, total_size).map_err(|e| e.to_string())?;
                self.entries.push((key.to_string(), entry));
                self.entries.len() - 1
            }
        };
        Ok(&self.entries[at].1)
    }
}

impl FaasEnv for FaasmEnv<'_, '_> {
    fn input(&self) -> Vec<u8> {
        self.api.input().to_vec()
    }

    fn write_output(&mut self, data: &[u8]) {
        self.api.write_output(data);
    }

    fn state_read(
        &mut self,
        key: &str,
        total_size: usize,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), String> {
        let entry = self.entry(key, total_size)?;
        entry.read(offset, buf).map_err(|e| e.to_string())
    }

    fn state_write(
        &mut self,
        key: &str,
        total_size: usize,
        offset: usize,
        data: &[u8],
    ) -> Result<(), String> {
        let entry = self.entry(key, total_size)?;
        entry.write(offset, data).map_err(|e| e.to_string())
    }

    fn state_push(&mut self, key: &str, total_size: usize) -> Result<(), String> {
        let entry = self.entry(key, total_size)?;
        entry.push().map_err(|e| e.to_string())
    }

    fn state_push_range(
        &mut self,
        key: &str,
        total_size: usize,
        offset: usize,
        len: usize,
    ) -> Result<(), String> {
        let entry = self.entry(key, total_size)?;
        entry.push_range(offset, len).map_err(|e| e.to_string())
    }

    fn state_push_ranges(
        &mut self,
        key: &str,
        total_size: usize,
        ranges: &[(usize, usize)],
    ) -> Result<(), String> {
        let entry = self.entry(key, total_size)?;
        entry.push_ranges(ranges).map_err(|e| e.to_string())
    }

    fn state_settle_ranges(
        &mut self,
        key: &str,
        total_size: usize,
        ranges: &[(usize, usize)],
    ) -> Result<(), String> {
        let entry = self.entry(key, total_size)?;
        entry.clear_dirty_ranges(ranges);
        Ok(())
    }

    fn state_size(&self, key: &str) -> Result<usize, String> {
        self.api
            .state_manager()
            .kv()
            .strlen(key)
            .map(|n| n as usize)
            .map_err(|e| e.to_string())
    }

    fn counter_add(&mut self, key: &str, delta: i64) -> Result<i64, String> {
        self.api
            .state_manager()
            .kv()
            .incr(key, delta)
            .map_err(|e| e.to_string())
    }

    fn chain(&mut self, function: &str, input: Vec<u8>) -> u64 {
        self.api.chain(function, input).0
    }

    fn await_call(&mut self, id: u64) -> i32 {
        self.api.await_call(faasm_core::CallId(id))
    }

    fn call_output(&mut self, id: u64) -> Option<Vec<u8>> {
        self.api
            .call_output(faasm_core::CallId(id))
            .map(<[u8]>::to_vec)
    }

    fn load_file(&mut self, path: &str) -> Result<Vec<u8>, String> {
        let fs = self.api.fs();
        let fd = fs
            .open(path, faasm_vfs::OpenFlags::read_only())
            .map_err(|e| e.to_string())?;
        let size = fs.fstat(fd).map_err(|e| e.to_string())?.size as usize;
        let data = fs.read(fd, size).map_err(|e| e.to_string())?;
        let _ = fs.close(fd);
        Ok(data)
    }
}

/// [`FaasEnv`] over the container API.
pub struct ContainerEnv<'a, 'b> {
    api: &'a mut ContainerApi<'b>,
    /// Container-side "filesystem": private copies fetched from the object
    /// store through the platform KVS (containers have no shared read-global
    /// filesystem).
    files: std::collections::HashMap<String, Vec<u8>>,
}

impl<'a, 'b> ContainerEnv<'a, 'b> {
    /// Wrap a container API.
    pub fn new(api: &'a mut ContainerApi<'b>) -> ContainerEnv<'a, 'b> {
        ContainerEnv {
            api,
            files: std::collections::HashMap::new(),
        }
    }
}

impl FaasEnv for ContainerEnv<'_, '_> {
    fn input(&self) -> Vec<u8> {
        self.api.input().to_vec()
    }

    fn write_output(&mut self, data: &[u8]) {
        self.api.write_output(data);
    }

    fn state_read(
        &mut self,
        key: &str,
        _total_size: usize,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), String> {
        // The container's own API is untouched — whole-value fetch, a
        // private copy, a fresh `Vec` per read — so the baseline's traffic
        // and timings are what they were.
        let bytes = self.api.state_read(key, offset, buf.len())?;
        if bytes.len() != buf.len() {
            return Err(format!(
                "read of {} bytes at {offset} runs past the end of {key}",
                buf.len()
            ));
        }
        buf.copy_from_slice(&bytes);
        Ok(())
    }

    fn state_write(
        &mut self,
        key: &str,
        _total_size: usize,
        offset: usize,
        data: &[u8],
    ) -> Result<(), String> {
        self.api.state_write(key, offset, data)
    }

    fn state_push(&mut self, _key: &str, _total_size: usize) -> Result<(), String> {
        // Containers write through on every state_write; nothing to flush.
        Ok(())
    }

    fn state_size(&self, key: &str) -> Result<usize, String> {
        self.api.state_size(key)
    }

    fn counter_add(&mut self, key: &str, delta: i64) -> Result<i64, String> {
        self.api.counter_add(key, delta)
    }

    fn chain(&mut self, function: &str, input: Vec<u8>) -> u64 {
        self.api.chain(function, input).0
    }

    fn await_call(&mut self, id: u64) -> i32 {
        self.api.await_call(faasm_core::CallId(id))
    }

    fn call_output(&mut self, id: u64) -> Option<Vec<u8>> {
        self.api
            .call_output(faasm_core::CallId(id))
            .map(<[u8]>::to_vec)
    }

    fn load_file(&mut self, path: &str) -> Result<Vec<u8>, String> {
        if let Some(f) = self.files.get(path) {
            return Ok(f.clone());
        }
        // Containers fetch files as state values keyed by path: a private,
        // per-container copy shipped over the network every cold start.
        let size = self.api.state_size(&format!("file:{path}"))?;
        if size == 0 {
            return Err(format!("no such file: {path}"));
        }
        let data = self.api.state_read(&format!("file:{path}"), 0, size)?;
        self.files.insert(path.to_string(), data.clone());
        Ok(data)
    }
}

/// Upload a file so both platforms can read it: Faasm's shared object store
/// (read-global filesystem) and the baseline's KVS-backed `file:` namespace.
pub fn publish_file(
    faasm: Option<&faasm_core::Cluster>,
    baseline: Option<&faasm_baseline::BaselinePlatform>,
    path: &str,
    data: &[u8],
) {
    if let Some(c) = faasm {
        c.object_store().put(path, data.to_vec());
    }
    if let Some(b) = baseline {
        b.kv()
            .set(&format!("file:{path}"), data.to_vec())
            .expect("baseline file upload");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasm_baseline::{BaselinePlatform, ContainerGuest};
    use faasm_core::{Cluster, NativeGuest};
    use std::sync::Arc;

    /// A guest that exercises the whole FaasEnv surface, written once.
    fn exercise<E: FaasEnv>(env: &mut E) -> Result<i32, String> {
        let input = env.input();
        env.state_write("wk", 16, 0, &input)?;
        env.state_push("wk", 16)?;
        let mut back = vec![0u8; input.len()];
        env.state_read("wk", 16, 0, &mut back)?;
        if back != input {
            return Err("state roundtrip mismatch".into());
        }
        let n = env.counter_add("wc", 1)?;
        let f = env.load_file("shared/data/blob.bin")?;
        env.write_output(&back);
        env.write_output(&[n as u8, f[0]]);
        Ok(0)
    }

    #[test]
    fn same_code_runs_on_faasm() {
        let cluster = Cluster::new(1);
        publish_file(Some(&cluster), None, "shared/data/blob.bin", &[0xee, 2, 3]);
        let guest: Arc<dyn NativeGuest> = Arc::new(|api: &mut NativeApi<'_>| {
            let mut env = FaasmEnv::new(api);
            exercise(&mut env).map_err(faasm_fvm::Trap::host)
        });
        cluster.register_native("u", "ex", guest, false);
        let r = cluster.invoke("u", "ex", b"hi!!".to_vec());
        assert_eq!(r.return_code(), 0, "status {:?}", r.status);
        assert_eq!(&r.output[..4], b"hi!!");
        assert_eq!(r.output[4], 1);
        assert_eq!(r.output[5], 0xee);
    }

    #[test]
    fn same_code_runs_on_baseline() {
        let platform = BaselinePlatform::with_config(faasm_baseline::BaselineConfig {
            hosts: 1,
            image: faasm_baseline::ImageConfig {
                image_bytes: 64 * 1024,
                layers: 2,
                boot_passes: 1,
            },
            ..Default::default()
        });
        publish_file(None, Some(&platform), "shared/data/blob.bin", &[0xee, 2, 3]);
        let guest: Arc<dyn ContainerGuest> = Arc::new(|api: &mut ContainerApi<'_>| {
            let mut env = ContainerEnv::new(api);
            exercise(&mut env)
        });
        platform.register("u", "ex", guest);
        let r = platform.invoke("u", "ex", b"hi!!".to_vec());
        assert_eq!(r.return_code(), 0, "status {:?}", r.status);
        assert_eq!(&r.output[..4], b"hi!!");
        assert_eq!(r.output[4], 1);
        assert_eq!(r.output[5], 0xee);
    }
}
