//! The read-global write-local filesystem and per-Faaslet descriptor tables.
//!
//! Semantics (§3.1): reads resolve against (1) the host's local overlay of
//! written files, (2) the host's cache of global objects, (3) the global
//! object store (counted as a pull). Writes always land in the host-local
//! overlay — the global store is never mutated through the filesystem. Every
//! Faaslet holds its own [`FdTable`] of unforgeable descriptors (the WASI
//! capability model), and all paths are confined to the Faaslet's user root,
//! except the shared read-only `shared/` namespace used for common libraries
//! and datasets.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::error::FsError;
use crate::store::ObjectStore;

/// Open flags (a subset of POSIX).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing (forces the local overlay).
    pub write: bool,
    /// Create the file if missing (requires `write`).
    pub create: bool,
    /// Truncate on open (requires `write`).
    pub truncate: bool,
    /// All writes go to the end (requires `write`).
    pub append: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn read_only() -> OpenFlags {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY | O_CREAT | O_APPEND`.
    pub fn append() -> OpenFlags {
        OpenFlags {
            write: true,
            create: true,
            append: true,
            ..Default::default()
        }
    }
}

/// `whence` values for [`FdTable::seek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// From the start of the file.
    Set,
    /// Relative to the current offset.
    Cur,
    /// Relative to the end of the file.
    End,
}

/// Metadata returned by `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// File size in bytes.
    pub size: u64,
    /// True if the file lives in a read-only namespace (global object).
    pub read_only: bool,
}

enum Backing {
    /// An immutable view of a global object.
    Global(Arc<Vec<u8>>),
    /// A mutable host-local overlay file.
    Local(Arc<RwLock<Vec<u8>>>),
}

struct OpenFile {
    backing: Backing,
    flags: OpenFlags,
    offset: usize,
}

/// One host's filesystem: a cache of global objects plus the write-local
/// overlay shared by all Faaslets on the host.
pub struct HostFs {
    store: Arc<ObjectStore>,
    cache: RwLock<HashMap<String, Arc<Vec<u8>>>>,
    overlay: RwLock<HashMap<String, Arc<RwLock<Vec<u8>>>>>,
}

impl std::fmt::Debug for HostFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostFs")
            .field("cached", &self.cache.read().len())
            .field("overlay", &self.overlay.read().len())
            .finish()
    }
}

/// The shared read-only namespace prefix.
pub const SHARED_PREFIX: &str = "shared/";

impl HostFs {
    /// A host filesystem over the given global store.
    pub fn new(store: Arc<ObjectStore>) -> Arc<HostFs> {
        Arc::new(HostFs {
            store,
            cache: RwLock::new(HashMap::new()),
            overlay: RwLock::new(HashMap::new()),
        })
    }

    /// The global store this host pulls from.
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// Bytes held in the host cache (for footprint accounting).
    pub fn cached_bytes(&self) -> usize {
        self.cache.read().values().map(|v| v.len()).sum()
    }

    fn cached_pull(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        if let Some(hit) = self.cache.read().get(key) {
            return Some(Arc::clone(hit));
        }
        let data = self.store.pull(key)?;
        self.cache
            .write()
            .insert(key.to_string(), Arc::clone(&data));
        Some(data)
    }
}

/// Resolve and sandbox a user path.
///
/// Rules: no empty paths, no `..` components, no leading `/` escapes.
/// `shared/...` resolves into the global shared namespace; anything else is
/// confined under `user:<user>/`.
fn resolve(user: &str, path: &str) -> Result<String, FsError> {
    let trimmed = path.trim_start_matches('/');
    if trimmed.is_empty()
        || trimmed
            .split('/')
            .any(|c| c == ".." || c == "." || c.is_empty())
    {
        return Err(FsError::InvalidPath {
            path: path.to_string(),
        });
    }
    if let Some(rest) = trimmed.strip_prefix(SHARED_PREFIX) {
        Ok(format!("{SHARED_PREFIX}{rest}"))
    } else {
        Ok(format!("user:{user}/{trimmed}"))
    }
}

/// A Faaslet's file-descriptor table: its only handle onto the filesystem.
pub struct FdTable {
    host: Arc<HostFs>,
    user: String,
    fds: HashMap<u32, Arc<Mutex<OpenFile>>>,
    next_fd: u32,
}

impl std::fmt::Debug for FdTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FdTable")
            .field("user", &self.user)
            .field("open", &self.fds.len())
            .finish()
    }
}

impl FdTable {
    /// A fresh descriptor table for `user` on `host`.
    pub fn new(host: Arc<HostFs>, user: &str) -> FdTable {
        FdTable {
            host,
            user: user.to_string(),
            fds: HashMap::new(),
            // 0..2 reserved for stdio by convention.
            next_fd: 3,
        }
    }

    /// The owning user.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The host filesystem this table resolves against.
    pub fn host(&self) -> &Arc<HostFs> {
        &self.host
    }

    /// Open a file, returning a new descriptor.
    ///
    /// # Errors
    ///
    /// * [`FsError::InvalidPath`] for traversal attempts.
    /// * [`FsError::ReadOnlyNamespace`] for writes into `shared/`.
    /// * [`FsError::NotFound`] if missing without `create`.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> Result<u32, FsError> {
        let key = resolve(&self.user, path)?;
        let is_shared = key.starts_with(SHARED_PREFIX);
        if flags.write && is_shared {
            return Err(FsError::ReadOnlyNamespace {
                path: path.to_string(),
            });
        }

        let backing = if flags.write {
            // Write-local: find or create the overlay entry, seeding it from
            // the global object if one exists.
            let existing = self.host.overlay.read().get(&key).cloned();
            let file = match existing {
                Some(f) => {
                    if flags.truncate {
                        f.write().clear();
                    }
                    f
                }
                None => {
                    let base: Vec<u8> = if flags.truncate {
                        Vec::new()
                    } else {
                        self.host
                            .cached_pull(&key)
                            .map(|d| d.as_ref().clone())
                            .unwrap_or_default()
                    };
                    if base.is_empty() && !flags.create && !self.host.store.exists(&key) {
                        return Err(FsError::NotFound {
                            path: path.to_string(),
                        });
                    }
                    let f = Arc::new(RwLock::new(base));
                    self.host
                        .overlay
                        .write()
                        .insert(key.clone(), Arc::clone(&f));
                    f
                }
            };
            Backing::Local(file)
        } else {
            // Read path: overlay → host cache → global store.
            if let Some(local) = self.host.overlay.read().get(&key) {
                Backing::Local(Arc::clone(local))
            } else if let Some(data) = self.host.cached_pull(&key) {
                Backing::Global(data)
            } else {
                return Err(FsError::NotFound {
                    path: path.to_string(),
                });
            }
        };

        let offset = if flags.append {
            match &backing {
                Backing::Global(d) => d.len(),
                Backing::Local(d) => d.read().len(),
            }
        } else {
            0
        };

        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(
            fd,
            Arc::new(Mutex::new(OpenFile {
                backing,
                flags,
                offset,
            })),
        );
        Ok(fd)
    }

    fn file(&self, fd: u32) -> Result<&Arc<Mutex<OpenFile>>, FsError> {
        self.fds.get(&fd).ok_or(FsError::BadFd { fd })
    }

    /// Read up to `len` bytes at the current offset, advancing it.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] / [`FsError::NotReadable`].
    pub fn read(&self, fd: u32, len: usize) -> Result<Vec<u8>, FsError> {
        let file = self.file(fd)?;
        let mut f = file.lock();
        if !f.flags.read {
            return Err(FsError::NotReadable);
        }
        let out = match &f.backing {
            Backing::Global(d) => slice_from(d, f.offset, len),
            Backing::Local(d) => slice_from(&d.read(), f.offset, len),
        };
        f.offset += out.len();
        Ok(out)
    }

    /// Write bytes at the current offset (or the end with `append`),
    /// advancing the offset; returns the bytes written.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] / [`FsError::NotWritable`].
    pub fn write(&self, fd: u32, data: &[u8]) -> Result<usize, FsError> {
        let file = self.file(fd)?;
        let mut f = file.lock();
        if !f.flags.write {
            return Err(FsError::NotWritable);
        }
        let Backing::Local(d) = &f.backing else {
            return Err(FsError::NotWritable);
        };
        let mut buf = d.write();
        let at = if f.flags.append { buf.len() } else { f.offset };
        if buf.len() < at + data.len() {
            buf.resize(at + data.len(), 0);
        }
        buf[at..at + data.len()].copy_from_slice(data);
        drop(buf);
        f.offset = at + data.len();
        Ok(data.len())
    }

    /// Move the file offset; returns the new offset.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] / [`FsError::BadSeek`] for negative targets.
    pub fn seek(&self, fd: u32, offset: i64, whence: Whence) -> Result<u64, FsError> {
        let file = self.file(fd)?;
        let mut f = file.lock();
        let size = match &f.backing {
            Backing::Global(d) => d.len() as i64,
            Backing::Local(d) => d.read().len() as i64,
        };
        let base = match whence {
            Whence::Set => 0,
            Whence::Cur => f.offset as i64,
            Whence::End => size,
        };
        let target = base + offset;
        if target < 0 {
            return Err(FsError::BadSeek);
        }
        f.offset = target as usize;
        Ok(f.offset as u64)
    }

    /// Duplicate a descriptor; both share one offset (POSIX `dup`).
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`].
    pub fn dup(&mut self, fd: u32) -> Result<u32, FsError> {
        let file = Arc::clone(self.file(fd)?);
        let new_fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(new_fd, file);
        Ok(new_fd)
    }

    /// Close a descriptor.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`].
    pub fn close(&mut self, fd: u32) -> Result<(), FsError> {
        self.fds
            .remove(&fd)
            .map(|_| ())
            .ok_or(FsError::BadFd { fd })
    }

    /// Stat an open descriptor.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`].
    pub fn fstat(&self, fd: u32) -> Result<FileStat, FsError> {
        let file = self.file(fd)?;
        let f = file.lock();
        Ok(match &f.backing {
            Backing::Global(d) => FileStat {
                size: d.len() as u64,
                read_only: true,
            },
            Backing::Local(d) => FileStat {
                size: d.read().len() as u64,
                read_only: false,
            },
        })
    }

    /// Stat by path without opening.
    ///
    /// # Errors
    ///
    /// [`FsError::InvalidPath`] / [`FsError::NotFound`].
    pub fn stat(&self, path: &str) -> Result<FileStat, FsError> {
        let key = resolve(&self.user, path)?;
        if let Some(local) = self.host.overlay.read().get(&key) {
            return Ok(FileStat {
                size: local.read().len() as u64,
                read_only: false,
            });
        }
        if let Some(size) = self.host.store.size(&key) {
            return Ok(FileStat {
                size: size as u64,
                read_only: true,
            });
        }
        Err(FsError::NotFound {
            path: path.to_string(),
        })
    }
}

fn slice_from(data: &[u8], offset: usize, len: usize) -> Vec<u8> {
    if offset >= data.len() {
        return Vec::new();
    }
    let end = (offset + len).min(data.len());
    data[offset..end].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `O_RDWR | O_CREAT`.
    const READ_WRITE: OpenFlags = OpenFlags {
        read: true,
        write: true,
        create: true,
        truncate: false,
        append: false,
    };

    /// `O_WRONLY | O_CREAT | O_TRUNC`.
    const WRITE_TRUNCATE: OpenFlags = OpenFlags {
        read: false,
        write: true,
        create: true,
        truncate: true,
        append: false,
    };

    fn setup() -> (Arc<ObjectStore>, Arc<HostFs>) {
        let store = Arc::new(ObjectStore::new());
        store.put("shared/lib.py", b"print('hi')".to_vec());
        store.put("user:alice/data.bin", b"alice data".to_vec());
        store.put("user:bob/data.bin", b"bob data".to_vec());
        let host = HostFs::new(Arc::clone(&store));
        (store, host)
    }

    #[test]
    fn read_global_file() {
        let (_store, host) = setup();
        let mut fs = FdTable::new(host, "alice");
        let fd = fs.open("data.bin", OpenFlags::read_only()).unwrap();
        assert_eq!(fs.read(fd, 5).unwrap(), b"alice");
        assert_eq!(fs.read(fd, 100).unwrap(), b" data");
        assert_eq!(fs.read(fd, 10).unwrap(), b"");
        fs.close(fd).unwrap();
        assert!(fs.read(fd, 1).is_err());
    }

    #[test]
    fn shared_namespace_readable_by_all_users() {
        let (_store, host) = setup();
        let mut alice = FdTable::new(Arc::clone(&host), "alice");
        let mut bob = FdTable::new(host, "bob");
        let fa = alice.open("shared/lib.py", OpenFlags::read_only()).unwrap();
        let fb = bob.open("shared/lib.py", OpenFlags::read_only()).unwrap();
        assert_eq!(alice.read(fa, 100).unwrap(), bob.read(fb, 100).unwrap());
    }

    #[test]
    fn shared_namespace_not_writable() {
        let (_store, host) = setup();
        let mut fs = FdTable::new(host, "alice");
        assert!(matches!(
            fs.open("shared/lib.py", WRITE_TRUNCATE),
            Err(FsError::ReadOnlyNamespace { .. })
        ));
    }

    #[test]
    fn users_are_isolated() {
        let (_store, host) = setup();
        let mut alice = FdTable::new(Arc::clone(&host), "alice");
        let fd = alice.open("data.bin", OpenFlags::read_only()).unwrap();
        assert_eq!(alice.read(fd, 100).unwrap(), b"alice data");
        // Bob's identical relative path resolves to bob's file.
        let mut bob = FdTable::new(host, "bob");
        let fd = bob.open("data.bin", OpenFlags::read_only()).unwrap();
        assert_eq!(bob.read(fd, 100).unwrap(), b"bob data");
    }

    #[test]
    fn path_traversal_rejected() {
        let (_store, host) = setup();
        let mut fs = FdTable::new(host, "alice");
        for bad in ["../bob/data.bin", "a/../../x", "a//b", ".", ""] {
            assert!(
                matches!(
                    fs.open(bad, OpenFlags::read_only()),
                    Err(FsError::InvalidPath { .. })
                ),
                "path {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn write_local_does_not_touch_global() {
        let (store, host) = setup();
        let mut fs = FdTable::new(host, "alice");
        let fd = fs.open("data.bin", READ_WRITE).unwrap();
        fs.write(fd, b"LOCAL").unwrap();
        // Global object unchanged.
        assert_eq!(
            store.pull("user:alice/data.bin").unwrap().as_slice(),
            b"alice data"
        );
        // Local read sees the overlay.
        fs.seek(fd, 0, Whence::Set).unwrap();
        assert_eq!(fs.read(fd, 10).unwrap(), b"LOCAL data");
    }

    #[test]
    fn overlay_shared_across_faaslets_on_host() {
        let (_store, host) = setup();
        let mut f1 = FdTable::new(Arc::clone(&host), "alice");
        let fd1 = f1.open("cache.pyc", WRITE_TRUNCATE).unwrap();
        f1.write(fd1, b"bytecode").unwrap();
        // A second Faaslet of the same user on the same host sees it.
        let mut f2 = FdTable::new(host, "alice");
        let fd2 = f2.open("cache.pyc", OpenFlags::read_only()).unwrap();
        assert_eq!(f2.read(fd2, 100).unwrap(), b"bytecode");
    }

    #[test]
    fn create_truncate_append_semantics() {
        let (_store, host) = setup();
        let mut fs = FdTable::new(host, "alice");
        assert!(matches!(
            fs.open("missing.txt", OpenFlags::read_only()),
            Err(FsError::NotFound { .. })
        ));
        let fd = fs.open("log.txt", OpenFlags::append()).unwrap();
        fs.write(fd, b"one").unwrap();
        fs.write(fd, b"two").unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open("log.txt", OpenFlags::append()).unwrap();
        fs.write(fd, b"three").unwrap();
        fs.seek(fd, 0, Whence::Set).unwrap();
        // Append descriptors may still read if read flag set? This one is
        // write-only:
        assert!(matches!(fs.read(fd, 1), Err(FsError::NotReadable)));
        let fd2 = fs.open("log.txt", OpenFlags::read_only()).unwrap();
        assert_eq!(fs.read(fd2, 100).unwrap(), b"onetwothree");
        // Truncate clears.
        let fd3 = fs.open("log.txt", WRITE_TRUNCATE).unwrap();
        assert_eq!(fs.fstat(fd3).unwrap().size, 0);
    }

    #[test]
    fn seek_whence_semantics() {
        let (_store, host) = setup();
        let mut fs = FdTable::new(host, "alice");
        let fd = fs.open("data.bin", OpenFlags::read_only()).unwrap();
        assert_eq!(fs.seek(fd, 6, Whence::Set).unwrap(), 6);
        assert_eq!(fs.read(fd, 4).unwrap(), b"data");
        assert_eq!(fs.seek(fd, -4, Whence::Cur).unwrap(), 6);
        assert_eq!(fs.seek(fd, -4, Whence::End).unwrap(), 6);
        assert!(matches!(
            fs.seek(fd, -100, Whence::Set),
            Err(FsError::BadSeek)
        ));
    }

    #[test]
    fn dup_shares_offset() {
        let (_store, host) = setup();
        let mut fs = FdTable::new(host, "alice");
        let fd = fs.open("data.bin", OpenFlags::read_only()).unwrap();
        let fd2 = fs.dup(fd).unwrap();
        fs.read(fd, 6).unwrap();
        assert_eq!(fs.read(fd2, 4).unwrap(), b"data", "offset shared via dup");
        fs.close(fd).unwrap();
        assert!(
            fs.read(fd2, 0).is_ok(),
            "the dup is a descriptor of its own"
        );
    }

    #[test]
    fn stat_paths() {
        let (_store, host) = setup();
        let mut fs = FdTable::new(host, "alice");
        let st = fs.stat("data.bin").unwrap();
        assert_eq!(st.size, 10);
        assert!(st.read_only);
        let fd = fs.open("new.txt", WRITE_TRUNCATE).unwrap();
        fs.write(fd, b"abc").unwrap();
        let st = fs.stat("new.txt").unwrap();
        assert_eq!(st.size, 3);
        assert!(!st.read_only);
        assert!(fs.stat("absent").is_err());
    }

    #[test]
    fn host_cache_avoids_repeat_pulls() {
        let (store, host) = setup();
        let mut fs = FdTable::new(Arc::clone(&host), "alice");
        let base = store.pulls();
        let fd = fs.open("data.bin", OpenFlags::read_only()).unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open("data.bin", OpenFlags::read_only()).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(store.pulls() - base, 1, "second open served from cache");
        assert_eq!(host.cached_bytes(), b"alice data".len());
        // A cold host pulls again.
        let mut cold = FdTable::new(HostFs::new(Arc::clone(&store)), "alice");
        let fd = cold.open("data.bin", OpenFlags::read_only()).unwrap();
        cold.close(fd).unwrap();
        assert_eq!(store.pulls() - base, 2, "cold host, pulled again");
    }

    #[test]
    fn close_all_drops_capabilities() {
        // Reset-after-call (§5.2) drops every capability of the previous
        // call by building the Faaslet a fresh table.
        let (_store, host) = setup();
        let mut fs = FdTable::new(Arc::clone(&host), "alice");
        let fd = fs.open("data.bin", OpenFlags::read_only()).unwrap();
        let fresh = FdTable::new(host, "alice");
        assert!(matches!(fresh.read(fd, 1), Err(FsError::BadFd { .. })));
    }
}
