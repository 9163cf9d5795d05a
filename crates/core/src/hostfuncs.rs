//! The Faaslet host interface (Tab. 2) for FVM guests.
//!
//! Every row of the paper's host-interface table is implemented here as a
//! trusted thunk linked into guest modules at instantiation (§3.4). The
//! functions operate on the guest's linear memory and the Faaslet's
//! [`FaasletCtx`]; recoverable failures return `-1` to the guest (errno
//! style), while memory-safety violations and protocol abuse trap.
//!
//! Guest ABI summary (all imports under the `faasm` namespace):
//!
//! | class    | functions |
//! |----------|-----------|
//! | calls    | `input_size` `read_call_input` `write_call_output` `chain_call` `await_call` `get_call_output` |
//! | state    | `get_state` `get_state_offset` `set_state` `set_state_offset` `push_state` `push_state_offset` `pull_state` `pull_state_offset` `append_state` `lock_state_read` `unlock_state_read` `lock_state_write` `unlock_state_write` `lock_state_global_read` `unlock_state_global_read` `lock_state_global_write` `unlock_state_global_write` |
//! | dynlink  | `dlopen` `dlsym` `dlcall` `dlclose` |
//! | memory   | `mmap` `munmap` `brk` `sbrk` |
//! | network  | `socket` `connect` `send` `recv` `sock_close` |
//! | file I/O | `open` `close` `dup` `read` `write` `seek` `stat_size` |
//! | misc     | `gettime` `getrandom` |

use faasm_fvm::{HostCtx, Instance, Linker, ObjectModule, Trap, Val};
use faasm_kvs::LockMode;
use faasm_mem::LinearMemory;
use faasm_net::HostId;
use faasm_sched::CallId;
use faasm_vfs::{OpenFlags, Whence};

use crate::ctx::FaasletCtx;

/// Scratch base address used by the `dlcall` copy-in/copy-out convention.
pub const DL_BUF: u32 = 4096;

fn arg_i32(args: &[Val], i: usize) -> Result<i32, Trap> {
    args.get(i)
        .and_then(Val::as_i32)
        .ok_or_else(|| Trap::host(format!("host call argument {i} must be i32")))
}

fn arg_i64(args: &[Val], i: usize) -> Result<i64, Trap> {
    args.get(i)
        .and_then(Val::as_i64)
        .ok_or_else(|| Trap::host(format!("host call argument {i} must be i64")))
}

/// Split a [`HostCtx`] into the guest memory and the Faaslet context.
fn parts<'a>(ctx: &'a mut HostCtx<'_>) -> Result<(&'a mut LinearMemory, &'a mut FaasletCtx), Trap> {
    let mem = ctx
        .mem
        .as_deref_mut()
        .ok_or_else(|| Trap::host("host call requires guest memory"))?;
    let fctx = ctx
        .data
        .downcast_mut::<FaasletCtx>()
        .ok_or_else(|| Trap::host("instance data is not a FaasletCtx"))?;
    Ok((mem, fctx))
}

fn out_of_bounds(ptr: i32, len: usize) -> Trap {
    Trap::OutOfBoundsMemory {
        addr: u64::from(ptr as u32),
        len: len as u32,
    }
}

/// The guest's `len` as a host buffer size, once `ptr..ptr + len` is known
/// to lie inside guest memory: a guest never sizes a host allocation larger
/// than its own memory.
fn guest_len(mem: &LinearMemory, ptr: i32, len: i32) -> Result<usize, Trap> {
    let len = len as u32 as usize;
    match (ptr as u32 as usize).checked_add(len) {
        Some(end) if end <= mem.size_bytes() => Ok(len),
        _ => Err(out_of_bounds(ptr, len)),
    }
}

fn read_bytes(mem: &LinearMemory, ptr: i32, len: i32) -> Result<Vec<u8>, Trap> {
    let mut buf = vec![0u8; guest_len(mem, ptr, len)?];
    mem.read(ptr as u32 as usize, &mut buf)
        .map_err(|_| out_of_bounds(ptr, buf.len()))?;
    Ok(buf)
}

fn write_bytes(mem: &mut LinearMemory, ptr: i32, data: &[u8]) -> Result<(), Trap> {
    mem.write(ptr as u32 as usize, data)
        .map_err(|_| out_of_bounds(ptr, data.len()))
}

fn read_str(mem: &LinearMemory, ptr: i32, len: i32) -> Result<String, Trap> {
    String::from_utf8(read_bytes(mem, ptr, len)?)
        .map_err(|_| Trap::host("string argument is not valid UTF-8"))
}

fn ok_i32(v: i32) -> Result<Vec<Val>, Trap> {
    Ok(vec![Val::I32(v)])
}

fn ok_i64(v: i64) -> Result<Vec<Val>, Trap> {
    Ok(vec![Val::I64(v)])
}

/// A guest's state `size` as a host size. A negative one traps before it
/// can size a replica: as a `usize` it would ask for exabytes.
fn state_size(size: i32) -> Result<usize, Trap> {
    usize::try_from(size).map_err(|_| Trap::host(format!("negative state size {size}")))
}

/// Map a state entry's region into the guest and return its base address,
/// reusing an existing mapping when present.
fn map_state(
    mem: &mut LinearMemory,
    fctx: &mut FaasletCtx,
    key: &str,
    size: usize,
) -> Result<u32, Trap> {
    let entry = fctx.state_entry(key, size).map_err(Trap::host)?;
    let mapped = fctx
        .mapped_state
        .get_mut(key)
        .expect("state_entry registers the mapping");
    if mapped.guest_addr != 0 {
        return Ok(mapped.guest_addr);
    }
    let addr = mem
        .map_shared(entry.region())
        .map_err(|_| Trap::MemoryLimitExceeded)? as u32;
    mapped.guest_addr = addr;
    Ok(addr)
}

/// Build the host-interface linker shared by every Faaslet in the process.
#[allow(clippy::too_many_lines)]
pub fn faaslet_linker() -> Linker {
    let mut l = Linker::new();

    // ── Calls ──────────────────────────────────────────────────────────
    l.define_fn("faasm", "input_size", |ctx, _args| {
        let (_mem, fctx) = parts(ctx)?;
        ok_i32(fctx.input.len() as i32)
    });
    l.define_fn("faasm", "read_call_input", |ctx, args| {
        let (ptr, len) = (arg_i32(args, 0)?, arg_i32(args, 1)?);
        let (mem, fctx) = parts(ctx)?;
        let n = (len as usize).min(fctx.input.len());
        let data = fctx.input[..n].to_vec();
        write_bytes(mem, ptr, &data)?;
        ok_i32(n as i32)
    });
    l.define_fn("faasm", "write_call_output", |ctx, args| {
        let (ptr, len) = (arg_i32(args, 0)?, arg_i32(args, 1)?);
        let (mem, fctx) = parts(ctx)?;
        let data = read_bytes(mem, ptr, len)?;
        fctx.output.extend_from_slice(&data);
        Ok(vec![])
    });
    l.define_fn("faasm", "chain_call", |ctx, args| {
        let (np, nl, ip, il) = (
            arg_i32(args, 0)?,
            arg_i32(args, 1)?,
            arg_i32(args, 2)?,
            arg_i32(args, 3)?,
        );
        let (mem, fctx) = parts(ctx)?;
        let name = read_str(mem, np, nl)?;
        let input = read_bytes(mem, ip, il)?;
        let id = fctx.chain(&name, input);
        ok_i64(id.0 as i64)
    });
    l.define_fn("faasm", "await_call", |ctx, args| {
        let id = arg_i64(args, 0)?;
        let (_mem, fctx) = parts(ctx)?;
        let code = fctx.await_chained(CallId(id as u64));
        ok_i32(code)
    });
    l.define_fn("faasm", "get_call_output", |ctx, args| {
        let (id, ptr, len) = (arg_i64(args, 0)?, arg_i32(args, 1)?, arg_i32(args, 2)?);
        let (mem, fctx) = parts(ctx)?;
        let Some(r) = fctx.results.get(&CallId(id as u64)) else {
            return ok_i32(-1);
        };
        let n = (len as usize).min(r.output.len());
        let data = r.output[..n].to_vec();
        write_bytes(mem, ptr, &data)?;
        ok_i32(n as i32)
    });

    // ── State ──────────────────────────────────────────────────────────
    l.define_fn("faasm", "get_state", |ctx, args| {
        let (kp, kl, size) = (arg_i32(args, 0)?, arg_i32(args, 1)?, arg_i32(args, 2)?);
        let (mem, fctx) = parts(ctx)?;
        let key = read_str(mem, kp, kl)?;
        let addr = map_state(mem, fctx, &key, state_size(size)?)?;
        let entry = &fctx.mapped_state[&key].entry;
        entry.pull().map_err(Trap::host)?;
        ok_i32(addr as i32)
    });
    l.define_fn("faasm", "get_state_offset", |ctx, args| {
        let (kp, kl, size, off, len) = (
            arg_i32(args, 0)?,
            arg_i32(args, 1)?,
            arg_i32(args, 2)?,
            arg_i32(args, 3)?,
            arg_i32(args, 4)?,
        );
        let (mem, fctx) = parts(ctx)?;
        let key = read_str(mem, kp, kl)?;
        let addr = map_state(mem, fctx, &key, state_size(size)?)?;
        let entry = &fctx.mapped_state[&key].entry;
        entry
            .pull_range(off as usize, len as usize)
            .map_err(Trap::host)?;
        ok_i32((addr + off as u32) as i32)
    });
    l.define_fn("faasm", "set_state", |ctx, args| {
        let (kp, kl, vp, vl) = (
            arg_i32(args, 0)?,
            arg_i32(args, 1)?,
            arg_i32(args, 2)?,
            arg_i32(args, 3)?,
        );
        let (mem, fctx) = parts(ctx)?;
        let key = read_str(mem, kp, kl)?;
        let value = read_bytes(mem, vp, vl)?;
        let entry = fctx.state_entry(&key, value.len()).map_err(Trap::host)?;
        entry.write(0, &value).map_err(Trap::host)?;
        Ok(vec![])
    });
    l.define_fn("faasm", "set_state_offset", |ctx, args| {
        let (kp, kl, size, off, vp, vl) = (
            arg_i32(args, 0)?,
            arg_i32(args, 1)?,
            arg_i32(args, 2)?,
            arg_i32(args, 3)?,
            arg_i32(args, 4)?,
            arg_i32(args, 5)?,
        );
        let (mem, fctx) = parts(ctx)?;
        let key = read_str(mem, kp, kl)?;
        let value = read_bytes(mem, vp, vl)?;
        let entry = fctx
            .state_entry(&key, state_size(size)?)
            .map_err(Trap::host)?;
        entry.write(off as usize, &value).map_err(Trap::host)?;
        Ok(vec![])
    });
    l.define_fn("faasm", "push_state", |ctx, args| {
        let (kp, kl) = (arg_i32(args, 0)?, arg_i32(args, 1)?);
        let (mem, fctx) = parts(ctx)?;
        let key = read_str(mem, kp, kl)?;
        let entry = fctx
            .mapped_state
            .get(&key)
            .map(|m| std::sync::Arc::clone(&m.entry))
            .ok_or_else(|| Trap::host(format!("push_state before get_state: {key}")))?;
        entry.push_full().map_err(Trap::host)?;
        Ok(vec![])
    });
    l.define_fn("faasm", "push_state_offset", |ctx, args| {
        let (kp, kl, off, len) = (
            arg_i32(args, 0)?,
            arg_i32(args, 1)?,
            arg_i32(args, 2)?,
            arg_i32(args, 3)?,
        );
        let (mem, fctx) = parts(ctx)?;
        let key = read_str(mem, kp, kl)?;
        let entry = fctx
            .mapped_state
            .get(&key)
            .map(|m| std::sync::Arc::clone(&m.entry))
            .ok_or_else(|| Trap::host(format!("push_state_offset before get_state: {key}")))?;
        entry
            .push_range(off as usize, len as usize)
            .map_err(Trap::host)?;
        Ok(vec![])
    });
    l.define_fn("faasm", "pull_state", |ctx, args| {
        let (kp, kl, size) = (arg_i32(args, 0)?, arg_i32(args, 1)?, arg_i32(args, 2)?);
        let (mem, fctx) = parts(ctx)?;
        let key = read_str(mem, kp, kl)?;
        let entry = fctx
            .state_entry(&key, state_size(size)?)
            .map_err(Trap::host)?;
        entry.invalidate();
        entry.pull().map_err(Trap::host)?;
        Ok(vec![])
    });
    l.define_fn("faasm", "pull_state_offset", |ctx, args| {
        let (kp, kl, size, off, len) = (
            arg_i32(args, 0)?,
            arg_i32(args, 1)?,
            arg_i32(args, 2)?,
            arg_i32(args, 3)?,
            arg_i32(args, 4)?,
        );
        let (mem, fctx) = parts(ctx)?;
        let key = read_str(mem, kp, kl)?;
        let entry = fctx
            .state_entry(&key, state_size(size)?)
            .map_err(Trap::host)?;
        let (off, len) = (off as usize, len as usize);
        entry.invalidate_range(off, len).map_err(Trap::host)?;
        entry.pull_range(off, len).map_err(Trap::host)?;
        Ok(vec![])
    });
    l.define_fn("faasm", "append_state", |ctx, args| {
        let (kp, kl, vp, vl) = (
            arg_i32(args, 0)?,
            arg_i32(args, 1)?,
            arg_i32(args, 2)?,
            arg_i32(args, 3)?,
        );
        let (mem, fctx) = parts(ctx)?;
        let key = read_str(mem, kp, kl)?;
        let value = read_bytes(mem, vp, vl)?;
        fctx.state.kv().append(&key, value).map_err(Trap::host)?;
        Ok(vec![])
    });

    // Local and global state locks. Each takes (key_ptr, key_len). The
    // context records what the call holds, and an unlock of a lock this
    // call does not hold traps instead of releasing another Faaslet's (a
    // local lock is a count) or a hold the tier keeps for this host (a
    // global lock is a lease per host). Neither kind maps or sizes a
    // replica: both belong to the key.
    macro_rules! state_lock_fn {
        ($name:literal, lock $method:ident, $mode:expr) => {
            l.define_fn("faasm", $name, |ctx, args| {
                let (kp, kl) = (arg_i32(args, 0)?, arg_i32(args, 1)?);
                let (mem, fctx) = parts(ctx)?;
                let key = read_str(mem, kp, kl)?;
                fctx.$method(&key, $mode).map_err(Trap::host)?;
                Ok(vec![])
            });
        };
        ($name:literal, unlock $method:ident, $mode:expr) => {
            l.define_fn("faasm", $name, |ctx, args| {
                let (kp, kl) = (arg_i32(args, 0)?, arg_i32(args, 1)?);
                let (mem, fctx) = parts(ctx)?;
                let key = read_str(mem, kp, kl)?;
                if !fctx.$method(&key, $mode).map_err(Trap::host)? {
                    let name = $name;
                    return Err(Trap::host(format!(
                        "{name}: this call holds no such lock on {key}"
                    )));
                }
                Ok(vec![])
            });
        };
    }
    state_lock_fn!("lock_state_read", lock lock_state_local, LockMode::Read);
    state_lock_fn!("unlock_state_read", unlock unlock_state_local, LockMode::Read);
    state_lock_fn!("lock_state_write", lock lock_state_local, LockMode::Write);
    state_lock_fn!("unlock_state_write", unlock unlock_state_local, LockMode::Write);
    state_lock_fn!("lock_state_global_read", lock lock_state_global, LockMode::Read);
    state_lock_fn!("unlock_state_global_read", unlock unlock_state_global, LockMode::Read);
    state_lock_fn!("lock_state_global_write", lock lock_state_global, LockMode::Write);
    state_lock_fn!("unlock_state_global_write", unlock unlock_state_global, LockMode::Write);

    // ── Dynamic linking ────────────────────────────────────────────────
    l.define_fn("faasm", "dlopen", |ctx, args| {
        let (pp, pl) = (arg_i32(args, 0)?, arg_i32(args, 1)?);
        let (mem, fctx) = parts(ctx)?;
        let path = read_str(mem, pp, pl)?;
        // Load through the Faaslet filesystem (capability checks included).
        let Ok(fd) = fctx.fdtable.open(&path, OpenFlags::read_only()) else {
            return ok_i32(-1);
        };
        let Ok(stat) = fctx.fdtable.fstat(fd) else {
            return ok_i32(-1);
        };
        let bytes = fctx
            .fdtable
            .read(fd, stat.size as usize)
            .unwrap_or_default();
        let _ = fctx.fdtable.close(fd);
        // "All dynamically loaded code must first be compiled to
        // WebAssembly and undergo the same validation process" (§3.2).
        let Ok(object) = ObjectModule::compile(&bytes) else {
            return ok_i32(-1);
        };
        // Plugins are self-contained: they may not import host functions.
        let Ok(instance) = Instance::new(object, &Linker::new(), Box::new(())) else {
            return ok_i32(-1);
        };
        fctx.dl_modules.push(Some(instance));
        ok_i32(fctx.dl_modules.len() as i32 - 1)
    });
    l.define_fn("faasm", "dlsym", |ctx, args| {
        let (handle, np, nl) = (arg_i32(args, 0)?, arg_i32(args, 1)?, arg_i32(args, 2)?);
        let (mem, fctx) = parts(ctx)?;
        let name = read_str(mem, np, nl)?;
        let Some(Some(inst)) = fctx.dl_modules.get(handle as usize) else {
            return ok_i32(-1);
        };
        let Some(func_idx) = inst
            .object()
            .module
            .find_export(&name, faasm_fvm::ExportKind::Func)
        else {
            return ok_i32(-1);
        };
        // Symbol reference encodes (handle, function index).
        ok_i32(((handle as u32) << 16 | (func_idx & 0xffff)) as i32)
    });
    l.define_fn("faasm", "dlcall", |ctx, args| {
        let (symref, ap, al, op, oc) = (
            arg_i32(args, 0)?,
            arg_i32(args, 1)?,
            arg_i32(args, 2)?,
            arg_i32(args, 3)?,
            arg_i32(args, 4)?,
        );
        let (mem, fctx) = parts(ctx)?;
        let arg_data = read_bytes(mem, ap, al)?;
        // The copy-out is sized by the plugin's answer, at most this.
        let out_cap = guest_len(mem, op, oc)?;
        let handle = (symref as u32 >> 16) as usize;
        let func_idx = symref as u32 & 0xffff;
        let Some(Some(inst)) = fctx.dl_modules.get_mut(handle) else {
            return ok_i32(-1);
        };
        // Copy-in at the DL_BUF convention address.
        let Some(sub_mem) = inst.memory_mut() else {
            return ok_i32(-1);
        };
        if sub_mem.write(DL_BUF as usize, &arg_data).is_err() {
            return ok_i32(-1);
        }
        let ret = inst.call_func(
            func_idx,
            &[Val::I32(DL_BUF as i32), Val::I32(arg_data.len() as i32)],
        );
        let Ok(Some(Val::I32(ret_len))) = ret else {
            return ok_i32(-1);
        };
        if ret_len < 0 {
            return ok_i32(-1);
        }
        let n = (ret_len as usize).min(out_cap);
        let mut out = vec![0u8; n];
        if inst
            .memory()
            .expect("checked above")
            .read(DL_BUF as usize, &mut out)
            .is_err()
        {
            return ok_i32(-1);
        }
        write_bytes(mem, op, &out)?;
        ok_i32(n as i32)
    });
    l.define_fn("faasm", "dlclose", |ctx, args| {
        let handle = arg_i32(args, 0)?;
        let (_mem, fctx) = parts(ctx)?;
        match fctx.dl_modules.get_mut(handle as usize) {
            Some(slot @ Some(_)) => {
                *slot = None;
                ok_i32(0)
            }
            _ => ok_i32(-1),
        }
    });

    // ── Memory ─────────────────────────────────────────────────────────
    l.define_fn("faasm", "mmap", |ctx, args| {
        let len = arg_i32(args, 0)?;
        let (mem, _fctx) = parts(ctx)?;
        let pages = faasm_mem::pages_for_bytes(len as u32 as usize).max(1);
        match mem.grow(pages) {
            Ok(old_pages) => ok_i32((old_pages * faasm_mem::PAGE_SIZE) as i32),
            // "These calls fail if growth of the private region would exceed
            // this limit" (§3.2) — fail, not trap.
            Err(_) => ok_i32(-1),
        }
    });
    l.define_fn("faasm", "munmap", |_ctx, _args| {
        // Pages are reclaimed when the Faaslet is reset from its
        // Proto-Faaslet; munmap succeeds as a no-op (documented divergence).
        ok_i32(0)
    });
    l.define_fn("faasm", "brk", |ctx, args| {
        let target = arg_i32(args, 0)? as u32 as usize;
        let (mem, _fctx) = parts(ctx)?;
        if target <= mem.size_bytes() {
            return ok_i32(0);
        }
        let delta = faasm_mem::pages_for_bytes(target - mem.size_bytes());
        match mem.grow(delta) {
            Ok(_) => ok_i32(0),
            Err(_) => ok_i32(-1),
        }
    });
    l.define_fn("faasm", "sbrk", |ctx, args| {
        let delta = arg_i32(args, 0)?;
        let (mem, _fctx) = parts(ctx)?;
        let old = mem.size_bytes();
        if delta > 0 {
            let pages = faasm_mem::pages_for_bytes(delta as usize);
            if mem.grow(pages).is_err() {
                return ok_i32(-1);
            }
        }
        // Negative sbrk is accepted but does not shrink (reset reclaims).
        ok_i32(old as i32)
    });

    // ── Networking ─────────────────────────────────────────────────────
    l.define_fn("faasm", "socket", |ctx, _args| {
        let (_mem, fctx) = parts(ctx)?;
        ok_i32(fctx.socket() as i32)
    });
    l.define_fn("faasm", "connect", |ctx, args| {
        let (sock, host) = (arg_i32(args, 0)?, arg_i32(args, 1)?);
        let (_mem, fctx) = parts(ctx)?;
        let ok = fctx.connect(sock as u32, HostId(host as u32));
        ok_i32(if ok { 0 } else { -1 })
    });
    l.define_fn("faasm", "send", |ctx, args| {
        let (sock, ptr, len) = (arg_i32(args, 0)?, arg_i32(args, 1)?, arg_i32(args, 2)?);
        let (mem, fctx) = parts(ctx)?;
        let data = read_bytes(mem, ptr, len)?;
        match fctx.sock_send(sock as u32, &data) {
            Ok(n) => ok_i32(n as i32),
            Err(_) => ok_i32(-1),
        }
    });
    l.define_fn("faasm", "recv", |ctx, args| {
        let (sock, ptr, len) = (arg_i32(args, 0)?, arg_i32(args, 1)?, arg_i32(args, 2)?);
        let (mem, fctx) = parts(ctx)?;
        let mut buf = vec![0u8; guest_len(mem, ptr, len)?];
        let n = fctx.sock_recv(sock as u32, &mut buf);
        write_bytes(mem, ptr, &buf[..n])?;
        ok_i32(n as i32)
    });
    l.define_fn("faasm", "sock_close", |ctx, args| {
        let sock = arg_i32(args, 0)?;
        let (_mem, fctx) = parts(ctx)?;
        ok_i32(if fctx.sock_close(sock as u32) { 0 } else { -1 })
    });

    // ── File I/O ───────────────────────────────────────────────────────
    l.define_fn("faasm", "open", |ctx, args| {
        let (pp, pl, flags) = (arg_i32(args, 0)?, arg_i32(args, 1)?, arg_i32(args, 2)?);
        let (mem, fctx) = parts(ctx)?;
        let path = read_str(mem, pp, pl)?;
        let flags = OpenFlags {
            read: flags & 0x1 != 0,
            write: flags & 0x2 != 0,
            create: flags & 0x4 != 0,
            truncate: flags & 0x8 != 0,
            append: flags & 0x10 != 0,
        };
        match fctx.fdtable.open(&path, flags) {
            Ok(fd) => ok_i32(fd as i32),
            Err(_) => ok_i32(-1),
        }
    });
    l.define_fn("faasm", "close", |ctx, args| {
        let fd = arg_i32(args, 0)?;
        let (_mem, fctx) = parts(ctx)?;
        match fctx.fdtable.close(fd as u32) {
            Ok(()) => ok_i32(0),
            Err(_) => ok_i32(-1),
        }
    });
    l.define_fn("faasm", "dup", |ctx, args| {
        let fd = arg_i32(args, 0)?;
        let (_mem, fctx) = parts(ctx)?;
        match fctx.fdtable.dup(fd as u32) {
            Ok(fd2) => ok_i32(fd2 as i32),
            Err(_) => ok_i32(-1),
        }
    });
    l.define_fn("faasm", "read", |ctx, args| {
        let (fd, ptr, len) = (arg_i32(args, 0)?, arg_i32(args, 1)?, arg_i32(args, 2)?);
        let (mem, fctx) = parts(ctx)?;
        match fctx.fdtable.read(fd as u32, len as u32 as usize) {
            Ok(data) => {
                write_bytes(mem, ptr, &data)?;
                ok_i32(data.len() as i32)
            }
            Err(_) => ok_i32(-1),
        }
    });
    l.define_fn("faasm", "write", |ctx, args| {
        let (fd, ptr, len) = (arg_i32(args, 0)?, arg_i32(args, 1)?, arg_i32(args, 2)?);
        let (mem, fctx) = parts(ctx)?;
        let data = read_bytes(mem, ptr, len)?;
        match fctx.fdtable.write(fd as u32, &data) {
            Ok(n) => ok_i32(n as i32),
            Err(_) => ok_i32(-1),
        }
    });
    l.define_fn("faasm", "seek", |ctx, args| {
        let (fd, off, whence) = (arg_i32(args, 0)?, arg_i64(args, 1)?, arg_i32(args, 2)?);
        let (_mem, fctx) = parts(ctx)?;
        let whence = match whence {
            0 => Whence::Set,
            1 => Whence::Cur,
            2 => Whence::End,
            _ => return ok_i64(-1),
        };
        match fctx.fdtable.seek(fd as u32, off, whence) {
            Ok(pos) => ok_i64(pos as i64),
            Err(_) => ok_i64(-1),
        }
    });
    l.define_fn("faasm", "stat_size", |ctx, args| {
        let (pp, pl) = (arg_i32(args, 0)?, arg_i32(args, 1)?);
        let (mem, fctx) = parts(ctx)?;
        let path = read_str(mem, pp, pl)?;
        match fctx.fdtable.stat(&path) {
            Ok(st) => ok_i64(st.size as i64),
            Err(_) => ok_i64(-1),
        }
    });

    // ── Misc ───────────────────────────────────────────────────────────
    l.define_fn("faasm", "gettime", |ctx, _args| {
        let (_mem, fctx) = parts(ctx)?;
        ok_i64(fctx.gettime_ns() as i64)
    });
    l.define_fn("faasm", "getrandom", |ctx, args| {
        let (ptr, len) = (arg_i32(args, 0)?, arg_i32(args, 1)?);
        let (mem, fctx) = parts(ctx)?;
        let mut buf = vec![0u8; guest_len(mem, ptr, len)?];
        fctx.rng.fill(&mut buf);
        write_bytes(mem, ptr, &buf)?;
        ok_i32(len)
    });

    l
}

#[cfg(test)]
mod tests;
