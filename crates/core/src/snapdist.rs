//! Snapshot distribution: content-addressed Proto-Faaslet chunks.
//!
//! A restore is only microseconds if the snapshot bytes are already
//! on-host (§5.2). This module turns a [`ProtoFaaslet`] into immutable,
//! hash-keyed chunks shipped through the sharded state tier: one **meta
//! chunk** (user, function, upload generation, globals, indirect-call
//! table, memory header) plus one **page chunk** per memory page, all
//! addressed by SHA-256 digest. A page chunk carries only the page's 4 KiB
//! blocks that hold a non-zero byte, behind a `u16` mask naming them
//! ([`Page::to_chunk`] and [`Page::from_chunk`] are the one encoder and
//! decoder), so a zero page is 2 bytes and a page costs the tier, the wire
//! and the host cache what it holds. A **manifest** — the only mutable
//! key — names the meta digest and the ordered page digests. Content
//! addressing buys two properties at once:
//!
//! * **Dedup across versions.** Memory pages identical between proto
//!   versions (or between different functions) hash to the same chunk and
//!   are stored/shipped once; republishing after a small change ships only
//!   the changed pages. A page's chunk depends only on its contents, so
//!   this holds however the page came to hold them.
//! * **Verified fetches.** A fetcher recomputes every chunk's digest
//!   against the key it asked for, so a corrupt or substituted chunk is
//!   rejected at the cache boundary and never reaches a restore.
//!
//! [`SnapshotCache`] is the host-local side: one store of decoded pages per
//! host, each verified page decoded once and its `Arc` shared by every proto
//! version (and so every Faaslet) that maps it.

use std::collections::HashMap;
use std::sync::Arc;

use faasm_fvm::InstanceSnapshot;
use faasm_kvs::{BoundedLru, Digest};
use faasm_mem::{MemorySnapshot, Page};
use faasm_net::wire::{
    self, len_u32, put_bytes, put_count, put_u32, put_u64, put_u8, Reader, WireError,
};
use parking_lot::Mutex;

use crate::proto::{ProtoEncodeError, ProtoFaaslet};

/// The chunk manifest for one function's proto: everything a host needs to
/// know *what* to fetch before it fetches anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoManifest {
    /// Digest of the meta chunk (globals, table, memory header).
    pub meta: Digest,
    /// Per-page chunk digests in address order (empty for memory-less
    /// protos).
    pub pages: Vec<Digest>,
}

impl ProtoManifest {
    /// Serialise: `meta:32 | count:u32 | page digests:32 each`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(36 + self.pages.len() * 32);
        out.extend_from_slice(&self.meta.0);
        put_count(&mut out, self.pages.len());
        for d in &self.pages {
            out.extend_from_slice(&d.0);
        }
        out
    }

    /// Deserialise; `None` on malformed input (truncation, hostile count,
    /// trailing bytes).
    pub fn from_bytes(buf: &[u8]) -> Option<ProtoManifest> {
        wire::decode(buf, |r| {
            Ok(ProtoManifest {
                meta: Digest(r.array()?),
                pages: r.list(32, |r| r.array().map(Digest))?,
            })
        })
        .ok()
    }
}

/// A proto exploded into content-addressed chunks, ready to publish.
#[derive(Debug)]
pub struct ChunkedProto {
    /// The manifest naming every chunk.
    pub manifest: ProtoManifest,
    /// Unique chunk payloads by digest — pages identical within the proto
    /// already collapse here, so `chunks.len()` can be smaller than
    /// `1 + manifest.pages.len()`.
    pub chunks: HashMap<Digest, Arc<Vec<u8>>>,
}

/// Explode a proto into its meta chunk + per-page chunks.
///
/// # Errors
///
/// [`ProtoEncodeError`] if a meta section overflows its length prefix.
pub fn chunk_proto(proto: &ProtoFaaslet) -> Result<ChunkedProto, ProtoEncodeError> {
    let meta_bytes = encode_meta(proto)?;
    let meta = Digest::of(&meta_bytes);
    let mut chunks = HashMap::new();
    chunks.insert(meta, Arc::new(meta_bytes));
    let mut pages = Vec::new();
    if let Some(mem) = &proto.snapshot.mem {
        for page in mem.pages() {
            let bytes = page.to_chunk();
            let d = Digest::of(&bytes);
            pages.push(d);
            chunks.entry(d).or_insert_with(|| Arc::new(bytes));
        }
    }
    Ok(ChunkedProto {
        manifest: ProtoManifest { meta, pages },
        chunks,
    })
}

/// Reassemble a proto from its verified chunks: the meta chunk plus one
/// page chunk per manifest page, in address order, decoded and handed to
/// [`assemble_pages`]. `None` if a page chunk is malformed or they are.
pub fn assemble_proto(meta_bytes: &[u8], page_chunks: &[Arc<Vec<u8>>]) -> Option<ProtoFaaslet> {
    let pages = page_chunks
        .iter()
        .map(|chunk| Page::from_chunk(chunk).map(Arc::new))
        .collect::<Option<_>>()?;
    assemble_pages(meta_bytes, pages)
}

/// The one assembly path: a proto from its meta chunk and its decoded pages
/// in address order, mapping the `Arc`s it is given. `None` on a malformed
/// meta chunk or a page count it does not declare.
pub fn assemble_pages(meta_bytes: &[u8], pages: Vec<Arc<Page>>) -> Option<ProtoFaaslet> {
    let meta = wire::decode(meta_bytes, read_meta).ok()?;
    let mem = match meta.mem {
        Some((size_pages, max_pages)) if pages.len() == size_pages => {
            Some(MemorySnapshot::from_pages(pages, max_pages)?)
        }
        None if pages.is_empty() => None,
        _ => return None,
    };
    Some(ProtoFaaslet {
        user: meta.user,
        function: meta.function,
        generation: meta.generation,
        snapshot: InstanceSnapshot {
            mem,
            globals: meta.globals,
            table: meta.table,
        },
    })
}

/// The decoded meta chunk: a proto minus its page payloads.
struct ProtoMeta {
    user: String,
    function: String,
    generation: u64,
    /// `(size_pages, max_pages)` when the proto captured a memory.
    mem: Option<(usize, usize)>,
    globals: Vec<u64>,
    table: Vec<Option<u32>>,
}

/// The `u32` form of a section length, or the error naming the section.
fn checked(len: usize, section: &'static str) -> Result<u32, ProtoEncodeError> {
    len_u32(len).ok_or(ProtoEncodeError { section, len })
}

/// Encode the meta chunk: `user | function | generation | mem tag (+
/// size/max pages) | globals | table`.
///
/// Every variable-length section carries a `u32` length prefix, so one at
/// or beyond 4 GiB cannot be represented: the bound is checked in all
/// builds, before anything is written, so no reader ever sees a wrapped
/// prefix.
fn encode_meta(proto: &ProtoFaaslet) -> Result<Vec<u8>, ProtoEncodeError> {
    let snapshot = &proto.snapshot;
    checked(proto.user.len(), "user")?;
    checked(proto.function.len(), "function")?;
    checked(snapshot.globals.len(), "globals")?;
    checked(snapshot.table.len(), "table")?;
    let mut out = Vec::new();
    put_bytes(&mut out, proto.user.as_bytes());
    put_bytes(&mut out, proto.function.as_bytes());
    put_u64(&mut out, proto.generation);
    match &snapshot.mem {
        Some(mem) => {
            put_u8(&mut out, 1);
            put_u32(&mut out, checked(mem.size_pages(), "size_pages")?);
            put_u32(&mut out, checked(mem.max_pages(), "max_pages")?);
        }
        None => put_u8(&mut out, 0),
    }
    put_count(&mut out, snapshot.globals.len());
    for g in &snapshot.globals {
        put_u64(&mut out, *g);
    }
    put_count(&mut out, snapshot.table.len());
    for t in &snapshot.table {
        match t {
            Some(f) => {
                put_u8(&mut out, 1);
                put_u32(&mut out, *f);
            }
            None => put_u8(&mut out, 0),
        }
    }
    Ok(out)
}

fn read_meta(r: &mut Reader<'_>) -> Result<ProtoMeta, WireError> {
    let user = r.string()?;
    let function = r.string()?;
    let generation = r.u64()?;
    let mem = match r.u8()? {
        0 => None,
        1 => {
            let size_pages = r.u32()? as usize;
            let max_pages = r.u32()? as usize;
            if max_pages < size_pages {
                return Err(WireError::Invalid);
            }
            Some((size_pages, max_pages))
        }
        _ => return Err(WireError::Invalid),
    };
    Ok(ProtoMeta {
        user,
        function,
        generation,
        mem,
        globals: r.list(8, Reader::u64)?,
        // Each table entry costs at least its 1-byte presence flag.
        table: r.list(1, |r| match r.u8()? {
            0 => Ok(None),
            1 => r.u32().map(Some),
            _ => Err(WireError::Invalid),
        })?,
    })
}

faasm_telemetry::counters! {
    /// Counters the snapshot plane keeps per instance.
    pub struct SnapStats => SnapStatsSnapshot {
        /// Manifest-driven fetch attempts (peer-fetch resolve steps).
        fetches,
        /// Chunks pulled over the wire.
        chunks_fetched,
        /// Pages served from the host's page store during a fetch.
        chunk_hits,
        /// Fetched chunks whose digest did not match their key.
        verify_failures,
        /// Chunks this instance published (absent from the tier).
        chunks_published,
        /// Chunk bytes this instance published: a page counts the 4 KiB
        /// blocks its chunk carries, plus the 2-byte block mask.
        bytes_published,
        /// Chunks skipped at publish because the tier already held them —
        /// the cross-version dedup counter.
        chunks_deduped,
        /// Chunk bytes dedup saved at publish (counted like
        /// `bytes_published`).
        bytes_deduped,
        /// Pre-stage pushes handled (manifests landed over the bus).
        prestages,
        /// Pages evicted by the store's byte budget.
        evictions,
    }
}

/// Default byte budget for a host's page store, counted in resident bytes:
/// a page costs the 4 KiB blocks it backs, so 64 MiB is a thousand fully
/// written pages or sixteen thousand one-block ones. A full store evicts
/// least-recently-used pages.
pub const DEFAULT_SNAPSHOT_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// The host's page store: decoded proto pages keyed by the digest of their
/// chunk, bounded by a byte budget with least-recently-used eviction. A
/// page is decoded once, when its verified chunk is inserted; a hit clones
/// its `Arc`, so every proto version that names the digest maps the same
/// page. Eviction drops only the store's reference: a page lives on while
/// a proto or a Faaslet maps it. Meta chunks are not stored — each names
/// its upload, so a host meets one only once.
pub struct SnapshotCache {
    pages: Mutex<BoundedLru<Digest, Arc<Page>>>,
    stats: SnapStats,
}

impl SnapshotCache {
    /// A store bounded at `budget` resident bytes.
    pub fn new(budget: usize) -> SnapshotCache {
        SnapshotCache {
            pages: Mutex::new(BoundedLru::new(budget, usize::MAX, |_, page| {
                page.resident_bytes()
            })),
            stats: SnapStats::default(),
        }
    }

    /// The page if stored (marks it most recently used). Counts no hit:
    /// callers attribute hits to the operation they serve.
    pub fn get(&self, d: &Digest) -> Option<Arc<Page>> {
        let mut pages = self.pages.lock();
        pages.touch(d);
        pages.peek(d).cloned()
    }

    /// Store `page` under the digest of its chunk, evicting
    /// least-recently-used pages while over budget. A page larger than the
    /// whole budget is not stored.
    pub fn insert(&self, d: Digest, page: Arc<Page>) {
        let evicted = self.pages.lock().insert(d, page).unwrap_or(0);
        self.stats.evictions.add(evicted as u64);
    }

    /// Decode a page chunk already verified against `d`, store the page and
    /// return it; `None`, storing nothing, if the chunk is not a page.
    pub fn insert_chunk(&self, d: Digest, chunk: &[u8]) -> Option<Arc<Page>> {
        let page = Arc::new(Page::from_chunk(chunk)?);
        self.insert(d, Arc::clone(&page));
        Some(page)
    }

    /// Current resident bytes held.
    pub fn bytes(&self) -> usize {
        self.pages.lock().cost()
    }

    /// The plane's per-instance counters.
    pub fn stats(&self) -> &SnapStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasm_fvm::prelude::*;
    use faasm_mem::{LinearMemory, BLOCK_SIZE, PAGE_SIZE};

    fn proto_with_mem(seed: u8) -> ProtoFaaslet {
        let mut b = ModuleBuilder::new();
        b.memory(3, 6);
        b.global(ValType::I64, true, Val::I64(7));
        b.table(2);
        let sig = b.sig(FuncType::default());
        let f = b.func(sig, vec![], vec![Instr::End]);
        b.elem(0, vec![f]);
        b.export_func("main", f);
        let object = ObjectModule::prepare(b.build()).unwrap();
        let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
        // Dirty only page 1: pages 0 and 2 stay zero and must dedup to a
        // single zero chunk.
        inst.memory_mut()
            .unwrap()
            .write(PAGE_SIZE + 10, &[seed; 64])
            .unwrap();
        ProtoFaaslet {
            user: "u".into(),
            function: format!("f{seed}"),
            generation: u64::from(seed),
            snapshot: inst.snapshot(),
        }
    }

    #[test]
    fn manifest_roundtrip_and_hostile_counts() {
        let proto = proto_with_mem(1);
        let chunked = chunk_proto(&proto).unwrap();
        let bytes = chunked.manifest.to_bytes();
        assert_eq!(ProtoManifest::from_bytes(&bytes).unwrap(), chunked.manifest);
        // Truncations and trailing bytes rejected.
        for cut in [0usize, 35, bytes.len() - 1] {
            assert!(ProtoManifest::from_bytes(&bytes[..cut]).is_none(), "{cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(ProtoManifest::from_bytes(&trailing).is_none());
        // A hostile page count cannot out-size its payload.
        let mut hostile = bytes.clone();
        hostile[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ProtoManifest::from_bytes(&hostile).is_none());
    }

    #[test]
    fn identical_pages_dedup_within_and_across_protos() {
        let a = chunk_proto(&proto_with_mem(1)).unwrap();
        // 3 pages, two of them zero → 1 meta + 2 unique page chunks.
        assert_eq!(a.manifest.pages.len(), 3);
        assert_eq!(a.chunks.len(), 3);
        assert_eq!(a.manifest.pages[0], a.manifest.pages[2]);
        // A second version differing only in its dirty page shares the
        // zero-page chunk digest — the cross-version dedup property.
        let b = chunk_proto(&proto_with_mem(2)).unwrap();
        assert_eq!(a.manifest.pages[0], b.manifest.pages[0]);
        assert_ne!(a.manifest.pages[1], b.manifest.pages[1]);
    }

    #[test]
    fn chunked_proto_reassembles_bitwise() {
        let proto = proto_with_mem(3);
        let chunked = chunk_proto(&proto).unwrap();
        let meta = chunked.chunks.get(&chunked.manifest.meta).unwrap();
        let pages: Vec<Arc<Vec<u8>>> = chunked
            .manifest
            .pages
            .iter()
            .map(|d| Arc::clone(chunked.chunks.get(d).unwrap()))
            .collect();
        let back = assemble_proto(meta, &pages).unwrap();
        assert_eq!(back.user, proto.user);
        assert_eq!(back.function, proto.function);
        assert_eq!(back.generation, proto.generation);
        assert_eq!(back.snapshot.globals, proto.snapshot.globals);
        assert_eq!(back.snapshot.table, proto.snapshot.table);
        assert_eq!(
            LinearMemory::restore(back.snapshot.mem.as_ref().unwrap()).to_vec(),
            LinearMemory::restore(proto.snapshot.mem.as_ref().unwrap()).to_vec()
        );
        // And a memory restored from the reassembled snapshot reads back
        // the warm state the original captured.
        let restored = faasm_mem::LinearMemory::restore(back.snapshot.mem.as_ref().unwrap());
        let mut warm = [0u8; 64];
        restored.read(PAGE_SIZE + 10, &mut warm).unwrap();
        assert_eq!(warm, [3u8; 64]);
        // Structural mismatches are rejected, not mis-assembled.
        assert!(assemble_proto(meta, &pages[..2]).is_none());
        assert!(assemble_proto(b"garbage", &pages).is_none());
        let short: Vec<_> = (0..3).map(|_| Arc::new(vec![0u8; 16])).collect();
        assert!(assemble_proto(meta, &short).is_none());
    }

    #[test]
    fn oversized_sections_error_instead_of_wrapping() {
        // The length check itself, with sizes no test could allocate.
        assert_eq!(checked(0, "x"), Ok(0));
        assert_eq!(checked(u32::MAX as usize, "x"), Ok(u32::MAX));
        let err = checked(u32::MAX as usize + 1, "globals").unwrap_err();
        assert_eq!(err.section, "globals");
        assert_eq!(err.len, u32::MAX as usize + 1);
        assert!(err.to_string().contains("globals"));
        // In-bounds protos still chunk.
        assert!(chunk_proto(&proto_with_mem(1)).is_ok());
    }

    #[test]
    fn malformed_meta_chunks_rejected() {
        let chunked = chunk_proto(&proto_with_mem(4)).unwrap();
        let meta = chunked.chunks.get(&chunked.manifest.meta).unwrap();
        let pages: Vec<Arc<Vec<u8>>> = chunked
            .manifest
            .pages
            .iter()
            .map(|d| Arc::clone(chunked.chunks.get(d).unwrap()))
            .collect();
        assert!(assemble_proto(meta, &pages).is_some());
        // Cut anywhere, or followed by a stray byte: rejected.
        for cut in 0..meta.len() {
            assert!(assemble_proto(&meta[..cut], &pages).is_none(), "cut {cut}");
        }
        let mut trailing = meta.as_ref().clone();
        trailing.push(0);
        assert!(assemble_proto(&trailing, &pages).is_none());
        // A meta chunk claiming u32::MAX table entries but carrying none
        // is rejected before anything is allocated for the claimed count
        // (the table count is the last field of a table-less proto).
        let bare = ProtoFaaslet {
            user: "u".into(),
            function: "f".into(),
            generation: 1,
            snapshot: InstanceSnapshot {
                mem: None,
                globals: vec![],
                table: vec![],
            },
        };
        let mut hostile = encode_meta(&bare).unwrap();
        assert!(assemble_proto(&hostile, &[]).is_some());
        let tail = hostile.len() - 4;
        hostile[tail..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(assemble_proto(&hostile, &[]).is_none());
    }

    #[test]
    fn cache_bounds_bytes_and_evicts_lru() {
        let store = SnapshotCache::new(3 * BLOCK_SIZE);
        // Four one-block pages, each a different chunk.
        let pages: Vec<(Digest, Arc<Page>)> = (1..=4u8)
            .map(|i| {
                let page = Page::from_bytes(&[i; 8]);
                (Digest::of(&page.to_chunk()), Arc::new(page))
            })
            .collect();
        for (d, page) in &pages[..3] {
            store.insert(*d, Arc::clone(page));
        }
        assert_eq!(store.bytes(), 3 * BLOCK_SIZE);
        // Touch page 0 so page 1 becomes the LRU victim.
        assert!(store.get(&pages[0].0).is_some());
        store.insert(pages[3].0, Arc::clone(&pages[3].1));
        assert_eq!(store.bytes(), 3 * BLOCK_SIZE);
        assert!(store.get(&pages[1].0).is_none());
        assert!(Arc::ptr_eq(&store.get(&pages[0].0).unwrap(), &pages[0].1));
        assert!(store.get(&pages[3].0).is_some());
        assert_eq!(store.stats().snapshot().evictions, 1);
        // Eviction dropped only the store's reference.
        assert_eq!(Arc::strong_count(&pages[1].1), 1);
        // An over-budget page is refused outright.
        let huge = Page::from_bytes(&[9u8; 4 * BLOCK_SIZE]);
        store.insert(Digest::of(&huge.to_chunk()), Arc::new(huge));
        assert_eq!(store.bytes(), 3 * BLOCK_SIZE);
        // A verified chunk is decoded once, into the page a hit returns; a
        // chunk that is not a page is not stored.
        let chunk = pages[1].1.to_chunk();
        let decoded = store.insert_chunk(pages[1].0, &chunk).unwrap();
        assert!(Arc::ptr_eq(&store.get(&pages[1].0).unwrap(), &decoded));
        let junk = b"not a page";
        assert!(store.insert_chunk(Digest::of(junk), junk).is_none());
        assert!(store.get(&Digest::of(junk)).is_none());
    }
}
