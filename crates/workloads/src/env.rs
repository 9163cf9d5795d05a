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
///
/// State access differs by platform the way §4.2 says it does. On Faasm
/// ([`FaasmEnv`]) a read or write is a load or store on the host-shared
/// replica, as through a mapped pointer (Listing 1): word-atomic, no
/// implicit lock, so co-located writers race HOGWILD!-style, and writes
/// reach the global tier only through an explicit push. On containers
/// ([`ContainerEnv`]) every access is a copy to or from a private value
/// that writes through.
pub trait FaasEnv {
    /// The call's input bytes.
    fn input(&self) -> Vec<u8>;

    /// Append output bytes.
    fn write_output(&mut self, data: &[u8]);

    /// Fill `buf` with the bytes of state `key` at `offset`; `total_size`
    /// is the value's full size (needed to size replicas on first touch).
    /// The caller owns the buffer, so a loop of small reads allocates
    /// nothing. On Faasm, chunks absent from the replica are pulled first.
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

    /// Write state bytes at `offset`. On Faasm, a chunk the write covers
    /// only partly is pulled first, so a later push of the whole chunk
    /// keeps the global bytes around the write.
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

    /// Flush `key` to the global tier: on Faasm the whole replica
    /// (`push_state`, Tab. 2), after pulling any chunk this host has not
    /// yet read or written; a no-op on platforms that write through.
    ///
    /// # Errors
    ///
    /// A platform error message.
    fn state_push(&mut self, key: &str, total_size: usize) -> Result<(), String>;

    /// Flush exactly the disjoint `(offset, len)` ranges of `key` to the
    /// global tier (`push_state_offset`, Tab. 2). Writers updating disjoint
    /// ranges of a shared value must use this instead of
    /// [`FaasEnv::state_push`]: a whole-value push can clobber a
    /// neighbour's concurrent update with stale local bytes. On Faasm this
    /// is a single global-tier round-trip; the default is one
    /// [`FaasEnv::state_push`].
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
        let _ = ranges;
        self.state_push(key, total_size)
    }

    /// Size of a state value in the global tier.
    ///
    /// # Errors
    ///
    /// A platform error message.
    fn state_size(&self, key: &str) -> Result<usize, String>;

    /// Chain a call to another function of the same user.
    fn chain(&mut self, function: &str, input: Vec<u8>) -> u64;

    /// Await a chained call; returns its return code.
    fn await_call(&mut self, id: u64) -> i32;

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
        // What a mapped Faaslet does (`get_state_offset`, then loads).
        let entry = self.entry(key, total_size)?;
        entry
            .pull_range(offset, buf.len())
            .map_err(|e| e.to_string())?;
        entry.region().read(offset, buf).map_err(|e| e.to_string())
    }

    fn state_write(
        &mut self,
        key: &str,
        total_size: usize,
        offset: usize,
        data: &[u8],
    ) -> Result<(), String> {
        let entry = self.entry(key, total_size)?;
        entry
            .claim_range(offset, data.len())
            .map_err(|e| e.to_string())?;
        entry
            .region()
            .write(offset, data)
            .map_err(|e| e.to_string())
    }

    fn state_push(&mut self, key: &str, total_size: usize) -> Result<(), String> {
        // Mapped stores leave no dirty bits, so the whole replica goes, as
        // the FL `push_state` sends it. Chunks this host never touched are
        // pulled first (nothing to fetch once all are present), so the
        // push does not overwrite their global bytes with local zeros.
        let entry = self.entry(key, total_size)?;
        entry.pull().map_err(|e| e.to_string())?;
        entry.push_full().map_err(|e| e.to_string())
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

    fn state_size(&self, key: &str) -> Result<usize, String> {
        self.api
            .state_manager()
            .kv()
            .strlen(key)
            .map(|n| n as usize)
            .map_err(|e| e.to_string())
    }

    fn chain(&mut self, function: &str, input: Vec<u8>) -> u64 {
        self.api.chain(function, input).0
    }

    fn await_call(&mut self, id: u64) -> i32 {
        self.api.await_call(faasm_core::CallId(id))
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
}

impl<'a, 'b> ContainerEnv<'a, 'b> {
    /// Wrap a container API.
    pub fn new(api: &'a mut ContainerApi<'b>) -> ContainerEnv<'a, 'b> {
        ContainerEnv { api }
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

    fn chain(&mut self, function: &str, input: Vec<u8>) -> u64 {
        self.api.chain(function, input).0
    }

    fn await_call(&mut self, id: u64) -> i32 {
        self.api.await_call(faasm_core::CallId(id))
    }

    fn load_file(&mut self, path: &str) -> Result<Vec<u8>, String> {
        // Containers have no shared read-global filesystem: a file is a
        // state value keyed by its path, shipped whole into the container's
        // private copy on the first read and served from that copy after.
        let data = self
            .api
            .state_read(&format!("file:{path}"), 0, usize::MAX)?;
        if data.is_empty() {
            return Err(format!("no such file: {path}"));
        }
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
pub(crate) mod tests {
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
        let f = env.load_file("shared/data/blob.bin")?;
        env.write_output(&back);
        env.write_output(&f[..1]);
        Ok(0)
    }

    #[test]
    fn same_code_runs_on_faasm() {
        let cluster = Cluster::new(1);
        publish_file(Some(&cluster), None, "shared/data/blob.bin", &[0xee, 2, 3]);
        cluster.register_native("u", "ex", native(|env| exercise(env).map(drop)));
        let r = cluster.invoke("u", "ex", b"hi!!".to_vec());
        assert_eq!(r.return_code(), 0, "status {:?}", r.status);
        assert_eq!(&r.output[..4], b"hi!!");
        assert_eq!(r.output[4], 0xee);
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
        assert_eq!(r.output[4], 0xee);
    }

    /// A native guest running `body` over a [`FaasmEnv`].
    pub(crate) fn native(
        body: impl Fn(&mut FaasmEnv<'_, '_>) -> Result<(), String> + Send + Sync + 'static,
    ) -> Arc<dyn NativeGuest> {
        Arc::new(move |api: &mut NativeApi<'_>| {
            body(&mut FaasmEnv::new(api)).map_err(faasm_fvm::Trap::host)?;
            Ok(0)
        })
    }

    #[test]
    fn a_faasenv_access_takes_no_local_lock() {
        let cluster = Cluster::new(1);
        let touch = native(|env| {
            env.state_read("held", 64, 8, &mut [0; 8])?;
            env.state_write("held", 64, 16, &7u64.to_le_bytes())
        });
        cluster.register_native("u", "touch", touch);
        let entry = cluster.instances()[0].state().get("held", 64).unwrap();
        entry.pull().unwrap(); // absent globally: the zeroed replica is present
        entry.lock_write();
        let id = cluster.invoke_async("u", "touch", Vec::new());
        let (tx, rx) = std::sync::mpsc::channel();
        let cluster = &cluster;
        let finished = std::thread::scope(|s| {
            s.spawn(move || tx.send(cluster.await_result(id).return_code()));
            let finished = rx.recv_timeout(std::time::Duration::from_secs(20));
            entry.unlock_write();
            finished
        });
        assert_eq!(finished, Ok(0), "the call waited on the held local lock");
    }

    #[test]
    fn co_located_stores_to_one_weight_are_word_atomic() {
        use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering::SeqCst};
        use std::time::{Duration, Instant};
        const PATTERNS: [u64; 2] = [0xAAAA_AAAA_5555_5555, 0x5555_5555_AAAA_AAAA];
        let cluster = Cluster::new(1);
        // The stores start once the loads have and run until the loads have
        // seen each pattern (bit `i` of `seen` = `PATTERNS[i]`), and the
        // loads run until both store calls are done, so the two windows
        // overlap however fast a store is.
        let loading = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(AtomicU8::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        for (name, bits) in ["left", "right"].into_iter().zip(PATTERNS) {
            let (loading, seen, done) =
                (Arc::clone(&loading), Arc::clone(&seen), Arc::clone(&done));
            let store = native(move |env| {
                let end = Instant::now() + Duration::from_secs(30);
                while !loading.load(SeqCst) && Instant::now() < end {
                    std::thread::yield_now();
                }
                while seen.load(SeqCst) != 0b11 && Instant::now() < end {
                    env.state_write("w", 64, 8, &f64::from_bits(bits).to_le_bytes())?;
                }
                done.fetch_add(1, SeqCst);
                Ok(())
            });
            cluster.register_native("u", name, store);
        }
        let load = native(move |env| {
            let end = Instant::now() + Duration::from_secs(30);
            let mut word = [0; 8];
            // Loads that saw a stored pattern while a store call was running.
            let mut mid_store = 0u64;
            loading.store(true, SeqCst);
            while done.load(SeqCst) < 2 && Instant::now() < end {
                env.state_read("w", 64, 8, &mut word)?;
                let bits = u64::from_le_bytes(word);
                if bits != 0 && !PATTERNS.contains(&bits) {
                    return Err(format!("torn read {bits:#x}"));
                }
                if let Some(i) = PATTERNS.iter().position(|&p| p == bits) {
                    seen.fetch_or(1 << i, SeqCst);
                }
                if bits != 0 && done.load(SeqCst) < 2 {
                    mid_store += 1;
                }
            }
            match (done.load(SeqCst), mid_store) {
                (2, 1..) => Ok(()),
                (2, 0) => Err("no load overlapped a store".into()),
                _ => Err("the stores outlasted the loads".into()),
            }
        });
        cluster.register_native("u", "load", load);
        let ids = ["load", "left", "right"].map(|f| cluster.invoke_async("u", f, Vec::new()));
        for id in ids {
            let r = cluster.await_result(id);
            assert_eq!(r.return_code(), 0, "status {:?}", r.status);
        }
    }

    #[test]
    fn a_write_pulls_only_the_chunks_it_covers_partly() {
        let cluster = Cluster::new(1);
        let state = cluster.instances()[0].state();
        let chunk = state.get("chunk-probe", 1).unwrap().chunk_size();
        cluster.kv().set("whole", vec![0x77; 64]).unwrap();
        cluster.kv().set("part", vec![0x77; 64]).unwrap();
        cluster.kv().set("pair", vec![0x77; 2 * chunk]).unwrap();
        let put = native(move |env| match &env.input()[..] {
            b"whole" => env.state_write("whole", 64, 0, &[5; 64]),
            b"part" => {
                env.state_write("part", 64, 8, &[5; 8])?;
                env.state_push_ranges("part", 64, &[(0, 64)])
            }
            b"pair" => {
                env.state_write("pair", 2 * chunk, 0, &vec![5; chunk])?;
                env.state_push("pair", 2 * chunk)
            }
            _ => Ok(()),
        });
        cluster.register_native("u", "put", put);
        let reads = |input: &[u8]| {
            let before = cluster.telemetry();
            assert_eq!(cluster.invoke("u", "put", input.to_vec()).return_code(), 0);
            let after = cluster.telemetry();
            after.delta(&before).get("state-shard", "reads")
        };
        reads(b"warm");
        assert_eq!(
            reads(b"whole"),
            0,
            "a chunk the write covers is not fetched"
        );
        assert_eq!(
            reads(b"part"),
            1,
            "a chunk the write covers partly is pulled"
        );
        let mut want = vec![0x77; 64];
        want[8..16].fill(5);
        assert_eq!(
            cluster.kv().get("part").unwrap(),
            Some(want),
            "neighbours kept"
        );
        // A whole-value push first pulls the chunk the call never touched.
        assert_eq!(reads(b"pair"), 1, "the untouched chunk is pulled");
        let mut want = vec![5; chunk];
        want.resize(2 * chunk, 0x77);
        assert_eq!(cluster.kv().get("pair").unwrap(), Some(want));
    }
}
