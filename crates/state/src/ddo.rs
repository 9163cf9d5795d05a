//! Distributed data objects (DDOs, §4).
//!
//! "Stateful serverless applications can be created with Faaslets using
//! distributed data objects (DDO), which are language-specific classes that
//! expose a convenient high-level state interface." Each DDO here wraps one
//! (or a few) state keys and hides the two-tier push/pull mechanics, exactly
//! mirroring the classes of Listing 1: `VectorAsync` ([`SharedVector`]),
//! `MatrixReadOnly` ([`MatrixReadOnly`]), `SparseMatrixReadOnly`
//! ([`SparseMatrixReadOnly`]) — plus a dictionary, an append-only list and a
//! counter with different consistency choices (§4.1: "DDOs may employ push
//! and pull operations to produce variable consistency").

use std::sync::Arc;

use faasm_kvs::{KvBackend, LockMode, SharedKv};

use crate::entry::StateEntry;
use crate::error::StateError;
use crate::manager::StateManager;

/// Convert a little-endian byte slice to `f64`s.
///
/// # Panics
///
/// Panics if the length is not a multiple of 8 (an internal layout
/// invariant, not reachable from user input).
pub fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    assert!(bytes.len().is_multiple_of(8), "f64 buffer misaligned");
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// Convert `f64`s to little-endian bytes.
pub fn f64s_to_bytes(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn u32s_to_bytes(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn bytes_to_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

/// The paper's `VectorAsync`: a shared `f64` vector whose writes accumulate
/// in the local tier and reach the global tier only on an explicit
/// [`SharedVector::push`] — eventual consistency by design; HOGWILD! SGD
/// "tolerates such inconsistencies" (§4.1).
pub struct SharedVector {
    entry: Arc<StateEntry>,
    len: usize,
}

impl std::fmt::Debug for SharedVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedVector")
            .field("key", &self.entry.key())
            .field("len", &self.len)
            .finish()
    }
}

impl SharedVector {
    /// Open (or create) the vector `key` with `len` elements.
    ///
    /// # Errors
    ///
    /// State-layer errors.
    pub fn open(mgr: &StateManager, key: &str, len: usize) -> Result<SharedVector, StateError> {
        let entry = mgr.get(key, len * 8)?;
        Ok(SharedVector { entry, len })
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Initialise all elements and push the full value (driver-side setup).
    ///
    /// # Errors
    ///
    /// State-layer errors; [`StateError::OutOfRange`] on length mismatch.
    pub fn init(&self, values: &[f64]) -> Result<(), StateError> {
        if values.len() != self.len {
            return Err(StateError::OutOfRange {
                offset: 0,
                len: values.len() * 8,
                size: self.len * 8,
            });
        }
        self.entry.write(0, &f64s_to_bytes(values))?;
        self.entry.push()
    }

    /// Read one element from the local tier (pulling its chunk if absent).
    ///
    /// # Errors
    ///
    /// State-layer errors.
    pub fn get(&self, i: usize) -> Result<f64, StateError> {
        let mut buf = [0u8; 8];
        self.entry.read(i * 8, &mut buf)?;
        Ok(f64::from_le_bytes(buf))
    }

    /// Write one element in the local tier.
    ///
    /// # Errors
    ///
    /// State-layer errors.
    pub fn set(&self, i: usize, v: f64) -> Result<(), StateError> {
        self.entry.write(i * 8, &v.to_le_bytes())
    }

    /// `v[i] += delta` — the HOGWILD! update, racy by design: a
    /// [`SharedVector::get`] then a [`SharedVector::set`], each under the
    /// implicit local lock, with nothing held between them, so concurrent
    /// adds to one element can lose updates.
    ///
    /// # Errors
    ///
    /// State-layer errors.
    pub fn add(&self, i: usize, delta: f64) -> Result<(), StateError> {
        let cur = self.get(i)?;
        self.set(i, cur + delta)
    }

    /// Read the whole vector.
    ///
    /// # Errors
    ///
    /// State-layer errors.
    pub fn to_vec(&self) -> Result<Vec<f64>, StateError> {
        let mut buf = vec![0u8; self.len * 8];
        self.entry.read(0, &mut buf)?;
        Ok(bytes_to_f64s(&buf))
    }

    /// Push dirty chunks to the global tier (Listing 1 line 13).
    ///
    /// # Errors
    ///
    /// State-layer errors.
    pub fn push(&self) -> Result<(), StateError> {
        self.entry.push()
    }

    /// Re-pull the whole vector from the global tier.
    ///
    /// # Errors
    ///
    /// State-layer errors.
    pub fn pull(&self) -> Result<(), StateError> {
        self.entry.invalidate();
        self.entry.pull()
    }

    /// The backing entry (for mapping into guest memory).
    pub fn entry(&self) -> &Arc<StateEntry> {
        &self.entry
    }
}

/// A dense, read-only `f64` matrix in column-major layout; `column` pulls
/// only the chunks covering that column (§4.2 state chunks).
pub struct MatrixReadOnly {
    entry: Arc<StateEntry>,
    rows: usize,
    cols: usize,
}

impl std::fmt::Debug for MatrixReadOnly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatrixReadOnly")
            .field("key", &self.entry.key())
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish()
    }
}

impl MatrixReadOnly {
    /// Upload a matrix to the global tier (driver-side).
    ///
    /// # Errors
    ///
    /// Global-tier errors; panics are avoided — a size mismatch returns
    /// [`StateError::OutOfRange`].
    pub fn create(
        kv: &dyn KvBackend,
        key: &str,
        rows: usize,
        cols: usize,
        data: &[f64],
    ) -> Result<(), StateError> {
        if data.len() != rows * cols {
            return Err(StateError::OutOfRange {
                offset: 0,
                len: data.len() * 8,
                size: rows * cols * 8,
            });
        }
        kv.set(key, f64s_to_bytes(data))?;
        Ok(())
    }

    /// Open a replica of the matrix.
    ///
    /// # Errors
    ///
    /// State-layer errors.
    pub fn open(
        mgr: &StateManager,
        key: &str,
        rows: usize,
        cols: usize,
    ) -> Result<MatrixReadOnly, StateError> {
        let entry = mgr.get(key, rows * cols * 8)?;
        Ok(MatrixReadOnly { entry, rows, cols })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read column `j`, pulling only the bytes that back it.
    ///
    /// # Errors
    ///
    /// State-layer errors.
    pub fn column(&self, j: usize) -> Result<Vec<f64>, StateError> {
        let mut buf = vec![0u8; self.rows * 8];
        self.entry.read(j * self.rows * 8, &mut buf)?;
        Ok(bytes_to_f64s(&buf))
    }

    /// Read element `(i, j)`.
    ///
    /// # Errors
    ///
    /// State-layer errors.
    pub fn get(&self, i: usize, j: usize) -> Result<f64, StateError> {
        let mut buf = [0u8; 8];
        self.entry.read((j * self.rows + i) * 8, &mut buf)?;
        Ok(f64::from_le_bytes(buf))
    }

    /// Chunks currently replicated locally (test/metric hook).
    pub fn present_chunks(&self) -> usize {
        self.entry.present_chunks()
    }
}

/// A read-only sparse matrix in compressed-sparse-column form, split over
/// three state values so column slices pull only their own data — the
/// `SparseMatrixReadOnly` of Listing 1.
pub struct SparseMatrixReadOnly {
    vals: Arc<StateEntry>,
    row_idx: Arc<StateEntry>,
    col_ptr: Arc<StateEntry>,
    rows: usize,
    cols: usize,
    nnz: usize,
}

impl std::fmt::Debug for SparseMatrixReadOnly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMatrixReadOnly")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("nnz", &self.nnz)
            .finish()
    }
}

/// Driver-side builder for sparse matrices.
#[derive(Debug, Default)]
pub struct SparseMatrixBuilder {
    rows: usize,
    cols: usize,
    /// (row, col, value) triplets.
    triplets: Vec<(u32, u32, f64)>,
}

impl SparseMatrixBuilder {
    /// A builder for an `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> SparseMatrixBuilder {
        SparseMatrixBuilder {
            rows,
            cols,
            triplets: Vec::new(),
        }
    }

    /// Add a non-zero.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> &mut Self {
        debug_assert!(row < self.rows && col < self.cols, "triplet in bounds");
        self.triplets.push((row as u32, col as u32, value));
        self
    }

    /// Number of non-zeros so far.
    pub fn nnz(&self) -> usize {
        self.triplets.len()
    }

    /// Upload as CSC under `key` (three global values: `key:vals`,
    /// `key:rows`, `key:colptr`).
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn upload(&self, kv: &dyn KvBackend, key: &str) -> Result<(), StateError> {
        let mut sorted = self.triplets.clone();
        sorted.sort_by_key(|(r, c, _)| (*c, *r));
        let mut vals = Vec::with_capacity(sorted.len());
        let mut rows = Vec::with_capacity(sorted.len());
        let mut col_ptr = vec![0u32; self.cols + 1];
        for (r, c, v) in &sorted {
            vals.push(*v);
            rows.push(*r);
            col_ptr[*c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        kv.set(&format!("{key}:vals"), f64s_to_bytes(&vals))?;
        kv.set(&format!("{key}:rows"), u32s_to_bytes(&rows))?;
        kv.set(&format!("{key}:colptr"), u32s_to_bytes(&col_ptr))?;
        Ok(())
    }
}

impl SparseMatrixReadOnly {
    /// Open a replica of the sparse matrix uploaded under `key`.
    ///
    /// # Errors
    ///
    /// State-layer errors ([`StateError::NotFound`] if never uploaded).
    pub fn open(
        mgr: &StateManager,
        key: &str,
        rows: usize,
        cols: usize,
    ) -> Result<SparseMatrixReadOnly, StateError> {
        let nnz = mgr.kv().strlen(&format!("{key}:vals"))? as usize / 8;
        if nnz == 0 && !mgr.kv().exists(&format!("{key}:vals"))? {
            return Err(StateError::NotFound {
                key: format!("{key}:vals"),
            });
        }
        let vals = mgr.get(&format!("{key}:vals"), nnz.max(1) * 8)?;
        let row_idx = mgr.get(&format!("{key}:rows"), nnz.max(1) * 4)?;
        let col_ptr = mgr.get(&format!("{key}:colptr"), (cols + 1) * 4)?;
        Ok(SparseMatrixReadOnly {
            vals,
            row_idx,
            col_ptr,
            rows,
            cols,
            nnz,
        })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Non-zero count.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The non-zeros of column `j` as `(row, value)` pairs, pulling only the
    /// column-pointer window and the value/row spans for that column
    /// ("the entire matrix is not transferred unnecessarily", §4.1).
    ///
    /// # Errors
    ///
    /// State-layer errors.
    pub fn column(&self, j: usize) -> Result<Vec<(u32, f64)>, StateError> {
        let mut ptr_buf = [0u8; 8];
        self.col_ptr.read(j * 4, &mut ptr_buf)?;
        let ptrs = bytes_to_u32s(&ptr_buf);
        let (start, end) = (ptrs[0] as usize, ptrs[1] as usize);
        if start == end {
            return Ok(Vec::new());
        }
        let mut vbuf = vec![0u8; (end - start) * 8];
        self.vals.read(start * 8, &mut vbuf)?;
        let mut rbuf = vec![0u8; (end - start) * 4];
        self.row_idx.read(start * 4, &mut rbuf)?;
        let vals = bytes_to_f64s(&vbuf);
        let rows = bytes_to_u32s(&rbuf);
        Ok(rows.into_iter().zip(vals).collect())
    }
}

/// A distributed dictionary that lazily pulls each field on access (§4.1's
/// "lazily pull values only when they are accessed, such as in a distributed
/// dictionary"). Fields live in the global tier as independent keys.
pub struct SharedDict {
    kv: SharedKv,
    key: String,
}

impl std::fmt::Debug for SharedDict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedDict")
            .field("key", &self.key)
            .finish()
    }
}

impl SharedDict {
    /// Open the dictionary `key`.
    pub fn open(mgr: &StateManager, key: &str) -> SharedDict {
        SharedDict {
            kv: Arc::clone(mgr.kv()),
            key: key.to_string(),
        }
    }

    fn field_key(&self, field: &str) -> String {
        format!("{}:f:{field}", self.key)
    }

    /// Get a field.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn get(&self, field: &str) -> Result<Option<Vec<u8>>, StateError> {
        Ok(self.kv.get(&self.field_key(field))?)
    }

    /// Set a field (write-through).
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn set(&self, field: &str, value: Vec<u8>) -> Result<(), StateError> {
        self.kv.set(&self.field_key(field), value)?;
        self.kv
            .sadd(&format!("{}:fields", self.key), field.as_bytes())?;
        Ok(())
    }

    /// Remove a field; returns whether it existed.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn remove(&self, field: &str) -> Result<bool, StateError> {
        self.kv
            .srem(&format!("{}:fields", self.key), field.as_bytes())?;
        Ok(self.kv.del(&self.field_key(field))?)
    }

    /// All field names, sorted.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn fields(&self) -> Result<Vec<String>, StateError> {
        Ok(self
            .kv
            .smembers(&format!("{}:fields", self.key))?
            .into_iter()
            .filter_map(|b| String::from_utf8(b).ok())
            .collect())
    }
}

/// An append-only distributed list with atomic multi-byte appends (§4.2's
/// example of a list needing explicit locking to "perform multiple writes to
/// its state value when atomically adding an element").
pub struct SharedList {
    kv: SharedKv,
    key: String,
}

impl std::fmt::Debug for SharedList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedList")
            .field("key", &self.key)
            .finish()
    }
}

impl SharedList {
    /// Open the list `key`.
    pub fn open(mgr: &StateManager, key: &str) -> SharedList {
        SharedList {
            kv: Arc::clone(mgr.kv()),
            key: key.to_string(),
        }
    }

    /// Append one element atomically (global write lock around the
    /// length-prefixed record append).
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn push_back(&self, element: &[u8]) -> Result<(), StateError> {
        let mut record = Vec::with_capacity(4 + element.len());
        record.extend_from_slice(&(element.len() as u32).to_le_bytes());
        record.extend_from_slice(element);
        self.kv.lock(&self.key, LockMode::Write)?;
        let result = self.kv.append(&self.key, record);
        self.kv.unlock(&self.key, LockMode::Write)?;
        result?;
        Ok(())
    }

    /// Read every element.
    ///
    /// # Errors
    ///
    /// Global-tier errors; malformed bytes yield a truncated list (cannot
    /// happen through this API).
    pub fn read_all(&self) -> Result<Vec<Vec<u8>>, StateError> {
        let Some(raw) = self.kv.get(&self.key)? else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        let mut pos = 0;
        while pos + 4 <= raw.len() {
            let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            pos += 4;
            if pos + len > raw.len() {
                break;
            }
            out.push(raw[pos..pos + len].to_vec());
            pos += len;
        }
        Ok(out)
    }

    /// Number of elements.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn len(&self) -> Result<usize, StateError> {
        Ok(self.read_all()?.len())
    }

    /// True if the list has no elements.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn is_empty(&self) -> Result<bool, StateError> {
        Ok(self.kv.strlen(&self.key)? == 0)
    }
}

/// A strongly-consistent distributed counter (every update is an atomic
/// global-tier operation).
pub struct SharedCounter {
    kv: SharedKv,
    key: String,
}

impl std::fmt::Debug for SharedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCounter")
            .field("key", &self.key)
            .finish()
    }
}

impl SharedCounter {
    /// Open the counter `key`.
    pub fn open(mgr: &StateManager, key: &str) -> SharedCounter {
        SharedCounter {
            kv: Arc::clone(mgr.kv()),
            key: key.to_string(),
        }
    }

    /// Atomically add `delta`; returns the new value.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn add(&self, delta: i64) -> Result<i64, StateError> {
        Ok(self.kv.incr(&self.key, delta)?)
    }

    /// Current value.
    ///
    /// # Errors
    ///
    /// Global-tier errors.
    pub fn get(&self) -> Result<i64, StateError> {
        Ok(self.kv.incr(&self.key, 0)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasm_kvs::{KvClient, KvStore};

    fn two_hosts() -> (StateManager, StateManager, Arc<KvClient>) {
        let store = Arc::new(KvStore::new());
        let kv1 = Arc::new(KvClient::local(Arc::clone(&store)));
        let kv2 = Arc::new(KvClient::local(Arc::clone(&store)));
        let driver = Arc::new(KvClient::local(store));
        (StateManager::new(kv1), StateManager::new(kv2), driver)
    }

    #[test]
    fn f64_byte_helpers_roundtrip() {
        let vals = vec![0.0, -1.5, std::f64::consts::PI];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&vals)), vals);
    }

    #[test]
    fn shared_vector_push_pull_across_hosts() {
        let (h1, h2, _driver) = two_hosts();
        let v1 = SharedVector::open(&h1, "w", 8).unwrap();
        v1.init(&[0.0; 8]).unwrap();
        v1.add(3, 2.5).unwrap();
        v1.add(3, 0.5).unwrap();
        v1.push().unwrap();

        let v2 = SharedVector::open(&h2, "w", 8).unwrap();
        v2.pull().unwrap();
        assert_eq!(v2.get(3).unwrap(), 3.0);
        assert_eq!(v2.get(0).unwrap(), 0.0);
        assert_eq!(v2.to_vec().unwrap().len(), 8);
    }

    #[test]
    fn shared_vector_local_sharing_without_push() {
        let (h1, _h2, _driver) = two_hosts();
        let a = SharedVector::open(&h1, "w", 4).unwrap();
        let b = SharedVector::open(&h1, "w", 4).unwrap();
        a.set(1, 9.0).unwrap();
        // Same host → same shared region → no push needed.
        assert_eq!(b.get(1).unwrap(), 9.0);
    }

    #[test]
    fn matrix_column_pulls_subset() {
        let (h1, _h2, driver) = two_hosts();
        // 64x64 matrix: one column = 512 bytes; chunk = 16 KiB default →
        // use a small chunk size manager for granularity.
        let store_mgr = StateManager::with_chunk_size(Arc::clone(h1.kv()), 512);
        let rows = 64;
        let cols = 64;
        let data: Vec<f64> = (0..rows * cols).map(|i| i as f64).collect();
        MatrixReadOnly::create(driver.as_ref(), "m", rows, cols, &data).unwrap();
        let m = MatrixReadOnly::open(&store_mgr, "m", rows, cols).unwrap();
        let col5 = m.column(5).unwrap();
        assert_eq!(col5[0], (5 * rows) as f64);
        assert_eq!(col5[rows - 1], (5 * rows + rows - 1) as f64);
        assert_eq!(m.present_chunks(), 1, "only one 512-byte chunk pulled");
        assert_eq!(m.get(2, 5).unwrap(), (5 * rows + 2) as f64);
    }

    #[test]
    fn matrix_create_validates_shape() {
        let (_h1, _h2, driver) = two_hosts();
        assert!(MatrixReadOnly::create(driver.as_ref(), "m", 2, 2, &[1.0]).is_err());
    }

    #[test]
    fn sparse_matrix_columns() {
        let (h1, _h2, driver) = two_hosts();
        let mut b = SparseMatrixBuilder::new(4, 3);
        b.push(0, 0, 1.0).push(2, 0, 3.0).push(1, 2, 5.0);
        assert_eq!(b.nnz(), 3);
        b.upload(driver.as_ref(), "sm").unwrap();
        let m = SparseMatrixReadOnly::open(&h1, "sm", 4, 3).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.column(0).unwrap(), vec![(0, 1.0), (2, 3.0)]);
        assert_eq!(m.column(1).unwrap(), vec![]);
        assert_eq!(m.column(2).unwrap(), vec![(1, 5.0)]);
    }

    #[test]
    fn sparse_matrix_missing_errors() {
        let (h1, _h2, _driver) = two_hosts();
        assert!(matches!(
            SparseMatrixReadOnly::open(&h1, "absent", 2, 2),
            Err(StateError::NotFound { .. })
        ));
    }

    #[test]
    fn shared_dict_lazy_fields() {
        let (h1, h2, _driver) = two_hosts();
        let d1 = SharedDict::open(&h1, "cfg");
        d1.set("alpha", b"1".to_vec()).unwrap();
        d1.set("beta", b"2".to_vec()).unwrap();
        let d2 = SharedDict::open(&h2, "cfg");
        assert_eq!(d2.get("alpha").unwrap(), Some(b"1".to_vec()));
        assert_eq!(d2.get("missing").unwrap(), None);
        assert_eq!(d2.fields().unwrap(), vec!["alpha", "beta"]);
        assert!(d1.remove("alpha").unwrap());
        assert_eq!(d2.fields().unwrap(), vec!["beta"]);
    }

    #[test]
    fn shared_list_appends_atomically() {
        let (h1, h2, _driver) = two_hosts();
        let l1 = SharedList::open(&h1, "log");
        assert!(l1.is_empty().unwrap());
        l1.push_back(b"first").unwrap();
        l1.push_back(b"second record").unwrap();
        let l2 = SharedList::open(&h2, "log");
        assert_eq!(
            l2.read_all().unwrap(),
            vec![b"first".to_vec(), b"second record".to_vec()]
        );
        assert_eq!(l2.len().unwrap(), 2);
    }

    #[test]
    fn shared_list_concurrent_appends_keep_records_intact() {
        let (h1, _h2, _driver) = two_hosts();
        let l = Arc::new(SharedList::open(&h1, "clog"));
        let mut handles = vec![];
        for t in 0..4u8 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u8 {
                    l.push_back(&[t, i]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let all = l.read_all().unwrap();
        assert_eq!(all.len(), 200);
        assert!(all.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn shared_counter() {
        let (h1, h2, _driver) = two_hosts();
        let c1 = SharedCounter::open(&h1, "n");
        let c2 = SharedCounter::open(&h2, "n");
        assert_eq!(c1.add(5).unwrap(), 5);
        assert_eq!(c2.add(3).unwrap(), 8);
        assert_eq!(c1.get().unwrap(), 8);
    }
}
