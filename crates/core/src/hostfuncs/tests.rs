//! Host-interface tests: FL guests exercising every class of Tab. 2.

use std::sync::Arc;
use std::time::Instant;

use faasm_fvm::{Instance, ObjectModule, Trap, Val};

use super::faaslet_linker;
use crate::ctx::tests::test_ctx;
use crate::ctx::FaasletCtx;

/// Compile an FL guest, link the host interface, and return the instance.
fn guest(src: &str, ctx: FaasletCtx) -> Instance {
    let module = faasm_lang::compile(src).unwrap_or_else(|e| panic!("compile: {e}"));
    let object = ObjectModule::prepare(module).expect("validates");
    Instance::new(object, &faaslet_linker(), Box::new(ctx)).expect("links")
}

fn guest_ctx(src: &str) -> Instance {
    guest(src, test_ctx())
}

#[test]
fn input_and_output_roundtrip() {
    let src = r#"
        extern int input_size();
        extern int read_call_input(ptr int buf, int len);
        extern void write_call_output(ptr int buf, int len);
        extern int mmap(int len);
        int main() {
            int n = input_size();
            int buf = mmap(n);
            int got = read_call_input((ptr int) buf, n);
            write_call_output((ptr int) buf, got);
            return 0;
        }
    "#;
    let mut ctx = test_ctx();
    ctx.input = b"echo me".to_vec();
    let mut inst = guest(src, ctx);
    let r = inst.invoke("main", &[]).unwrap();
    assert_eq!(r, Some(Val::I32(0)));
    let fctx = inst.data_as::<FaasletCtx>().unwrap();
    assert_eq!(fctx.output, b"echo me");
}

#[test]
fn state_via_mapped_pointer() {
    // get_state maps a shared region into guest memory; writing through the
    // pointer and pushing makes it globally visible.
    let src = r#"
        extern int get_state(ptr int key, int key_len, int size);
        extern void push_state(ptr int key, int key_len);
        int main() {
            // Write the key name "vec" into guest memory at 64.
            ptr int k = (ptr int) 64;
            k[0] = 0x636576; // "v","e","c",0 little-endian
            ptr double s = (ptr double) get_state((ptr int) 64, 3, 32);
            s[0] = 1.5;
            s[1] = 2.5;
            push_state((ptr int) 64, 3);
            return 0;
        }
    "#;
    let mut inst = guest_ctx(src);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(0)));
    let fctx = inst.data_as::<FaasletCtx>().unwrap();
    let global = fctx.state.kv().get("vec").unwrap().expect("pushed");
    assert_eq!(global.len(), 32);
    assert_eq!(f64::from_le_bytes(global[0..8].try_into().unwrap()), 1.5);
    assert_eq!(f64::from_le_bytes(global[8..16].try_into().unwrap()), 2.5);
}

#[test]
fn state_set_get_api() {
    let src = r#"
        extern void set_state(ptr int key, int key_len, ptr int val, int val_len);
        extern void push_state(ptr int key, int key_len);
        extern int get_state(ptr int key, int key_len, int size);
        int main() {
            ptr int k = (ptr int) 64;
            k[0] = 0x00796b; // "ky"
            ptr int v = (ptr int) 128;
            v[0] = 12345;
            set_state((ptr int) 64, 2, (ptr int) 128, 4);
            ptr int back = (ptr int) get_state((ptr int) 64, 2, 4);
            return back[0];
        }
    "#;
    let mut inst = guest_ctx(src);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(12345)));
}

#[test]
fn state_offset_and_append() {
    let src = r#"
        extern void set_state_offset(ptr int key, int key_len, int size, int off, ptr int val, int val_len);
        extern void push_state_offset(ptr int key, int key_len, int off, int len);
        extern void append_state(ptr int key, int key_len, ptr int val, int val_len);
        int main() {
            ptr int k = (ptr int) 64;
            k[0] = 0x6b; // "k"
            ptr int v = (ptr int) 128;
            v[0] = -1;
            set_state_offset((ptr int) 64, 1, 16, 4, (ptr int) 128, 4);
            push_state_offset((ptr int) 64, 1, 4, 4);
            ptr int a = (ptr int) 192;
            a[0] = 0x61; // appended byte "a"
            append_state((ptr int) 64, 1, (ptr int) 192, 1);
            return 0;
        }
    "#;
    let mut inst = guest_ctx(src);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(0)));
    let fctx = inst.data_as::<FaasletCtx>().unwrap();
    let global = fctx.state.kv().get("k").unwrap().unwrap();
    // push_state_offset wrote bytes 4..8 = -1; append added one byte.
    assert_eq!(global.len(), 9);
    assert_eq!(&global[4..8], &[0xff, 0xff, 0xff, 0xff]);
    assert_eq!(global[8], 0x61);
}

/// Invoke `probe` with `args`, expecting a trap of the kind `want` names:
/// a hostile argument traps, and never panics the host.
fn assert_traps(inst: &mut Instance, args: &[i32], want: &str) {
    let args: Vec<Val> = args.iter().map(|&a| Val::I32(a)).collect();
    let r = inst.invoke("probe", &args);
    let kind = match &r {
        Err(Trap::OutOfBoundsMemory { .. }) => "oob",
        Err(Trap::Host(_)) => "host",
        _ => "none",
    };
    assert_eq!(kind, want, "probe{args:?} gave {r:?}");
}

/// A 32 KiB value of two 16 KiB chunks: chunk 0 all 1s, chunk 1 all 2s.
fn two_chunk_value() -> Vec<u8> {
    let mut value = vec![1u8; 32768];
    value[16384..].fill(2);
    value
}

#[test]
fn get_state_offset_maps_base_plus_off_and_pulls_only_that_range() {
    let src = r#"
        extern int get_state_offset(ptr int key, int key_len, int size, int off, int len);
        extern void write_call_output(ptr int buf, int len);
        int main() {
            ptr int k = (ptr int) 64;
            k[0] = 0x6f; // "o"
            int at = get_state_offset(k, 1, 32768, 16384, 16);
            ptr int v = (ptr int) at;
            ptr int out = (ptr int) 128;
            out[0] = at;
            out[1] = v[0];
            write_call_output(out, 8);
            return 0;
        }
        int probe(int key, int size, int off, int len) {
            return get_state_offset((ptr int) key, 1, size, off, len);
        }
    "#;
    let ctx = test_ctx();
    ctx.state.kv().set("o", two_chunk_value()).unwrap();
    // 64 chunks: an empty range at the very end names no chunk past them.
    ctx.state.kv().set("m", vec![5u8; 1 << 20]).unwrap();
    let mut inst = guest(src, ctx);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(0)));
    let fctx = inst.data_as::<FaasletCtx>().unwrap();
    let mapped = &fctx.mapped_state["o"];
    let at = i32::from_le_bytes(fctx.output[0..4].try_into().unwrap());
    assert_eq!(at as u32, mapped.guest_addr + 16384, "base + off");
    assert_eq!(
        &fctx.output[4..8],
        &[2; 4],
        "the range reads the global value"
    );
    assert_eq!(
        mapped.entry.present_chunks(),
        1,
        "only the range's chunk pulled"
    );
    let mut head = [9u8; 4];
    mapped.entry.region().read(0, &mut head).unwrap();
    assert_eq!(head, [0; 4], "chunk 0 never left the tier");

    assert_traps(&mut inst, &[99_999_999, 32768, 0, 16], "oob");
    for (off, len) in [(-1, 16), (0, -1), (32768, 16), (16380, 100_000), (-16, 16)] {
        // Key "o" lives at 64, written by main.
        assert_traps(&mut inst, &[64, 32768, off, len], "host");
    }
    // A negative size on a key no call has mapped yet ("z" at 76).
    inst.memory_mut().unwrap().write(76, b"z\0").unwrap();
    assert_traps(&mut inst, &[76, -1, 0, 16], "host");
    inst.memory_mut().unwrap().write(72, b"m\0").unwrap();
    let end = inst.invoke("probe", &[72, 1 << 20, 1 << 20, 0].map(Val::I32));
    let base = inst.data_as::<FaasletCtx>().unwrap().mapped_state["m"].guest_addr;
    assert_eq!(end, Ok(Some(Val::I32((base + (1 << 20)) as i32))));
}

#[test]
fn pull_state_offset_refreshes_only_its_range() {
    let src = r#"
        extern int get_state(ptr int key, int key_len, int size);
        extern void pull_state_offset(ptr int key, int key_len, int size, int off, int len);
        int map() {
            ptr int k = (ptr int) 64;
            k[0] = 0x70; // "p"
            return get_state(k, 1, 32768);
        }
        int refresh() {
            pull_state_offset((ptr int) 64, 1, 32768, 16384, 16384);
            return 0;
        }
        int probe(int key, int size, int off, int len) {
            pull_state_offset((ptr int) key, 1, size, off, len);
            return 0;
        }
    "#;
    let ctx = test_ctx();
    ctx.state.kv().set("p", two_chunk_value()).unwrap();
    let mut inst = guest(src, ctx);
    let Some(Val::I32(at)) = inst.invoke("map", &[]).unwrap() else {
        panic!("get_state returns an address");
    };
    // Another writer pushes a new value to the global tier.
    let fctx = inst.data_as::<FaasletCtx>().unwrap();
    fctx.state.kv().set("p", vec![3u8; 32768]).unwrap();
    assert_eq!(inst.invoke("refresh", &[]).unwrap(), Some(Val::I32(0)));
    let mem = inst.memory().unwrap();
    let byte = |off: usize| {
        let mut b = [0u8; 1];
        mem.read(at as usize + off, &mut b).unwrap();
        b[0]
    };
    assert_eq!(
        (byte(0), byte(16383)),
        (1, 1),
        "outside the range: the old value"
    );
    assert_eq!(
        (byte(16384), byte(32767)),
        (3, 3),
        "the range: the new value"
    );

    assert_traps(&mut inst, &[99_999_999, 32768, 0, 16], "oob");
    for (off, len) in [(-1, 16), (0, -1), (32768, 16), (16380, 100_000)] {
        assert_traps(&mut inst, &[64, 32768, off, len], "host");
    }
    // A negative size on a key no call has mapped yet ("z" at 76).
    inst.memory_mut().unwrap().write(76, b"z\0").unwrap();
    assert_traps(&mut inst, &[76, -1, 0, 16], "host");
}

#[test]
fn global_read_locks_share_and_an_unheld_unlock_traps() {
    use faasm_kvs::{KvClient, KvStore, LockMode};
    use faasm_state::StateManager;
    let src = r#"
        extern void lock_state_global_read(ptr int key, int key_len);
        extern void unlock_state_global_read(ptr int key, int key_len);
        int lock() {
            ptr int k = (ptr int) 64;
            k[0] = 0x72; // "r"
            lock_state_global_read(k, 1);
            return 0;
        }
        int unlock() {
            unlock_state_global_read((ptr int) 64, 1);
            return 0;
        }
        int probe(int key) {
            lock_state_global_read((ptr int) key, 1);
            return 0;
        }
    "#;
    // The tier is visible here, so other hosts' holds can be taken on it.
    let store = Arc::new(KvStore::new());
    let mut ctx = test_ctx();
    ctx.state = Arc::new(StateManager::new(Arc::new(KvClient::local(Arc::clone(
        &store,
    )))));
    let (reader, writer) = (u64::MAX, u64::MAX - 1);
    let mut inst = guest(src, ctx);

    assert_eq!(inst.invoke("lock", &[]).unwrap(), Some(Val::I32(0)));
    assert!(
        store.try_lock("r", LockMode::Read, reader, Instant::now()),
        "a second read lock shares"
    );
    assert!(
        !store.try_lock("r", LockMode::Write, writer, Instant::now()),
        "readers exclude a writer"
    );
    assert_eq!(inst.invoke("unlock", &[]).unwrap(), Some(Val::I32(0)));
    assert!(
        !store.try_lock("r", LockMode::Write, writer, Instant::now()),
        "the other reader holds on"
    );
    store.unlock("r", LockMode::Read, reader);

    // This call holds nothing now: a second unlock traps.
    let r = inst.invoke("unlock", &[]);
    assert!(
        matches!(&r, Err(Trap::Host(m)) if m.contains("holds no such lock")),
        "{r:?}"
    );
    assert!(
        store.try_lock("r", LockMode::Write, writer, Instant::now()),
        "nothing left held"
    );
    store.unlock("r", LockMode::Write, writer);

    // A hold the call leaves is returned when the call ends.
    assert_eq!(inst.invoke("lock", &[]).unwrap(), Some(Val::I32(0)));
    inst.data_as::<FaasletCtx>().unwrap().release_state_locks();
    assert!(
        store.try_lock("r", LockMode::Write, writer, Instant::now()),
        "released at call end"
    );

    assert_traps(&mut inst, &[99_999_999], "oob");
    assert_traps(&mut inst, &[-1], "oob");
}

#[test]
fn state_locks_do_not_deadlock_single_faaslet() {
    let src = r#"
        extern void lock_state_write(ptr int key, int key_len);
        extern void unlock_state_write(ptr int key, int key_len);
        extern void lock_state_read(ptr int key, int key_len);
        extern void unlock_state_read(ptr int key, int key_len);
        extern void lock_state_global_write(ptr int key, int key_len);
        extern void unlock_state_global_write(ptr int key, int key_len);
        int main() {
            ptr int k = (ptr int) 64;
            k[0] = 0x6c; // "l"
            lock_state_write((ptr int) 64, 1);
            unlock_state_write((ptr int) 64, 1);
            lock_state_read((ptr int) 64, 1);
            unlock_state_read((ptr int) 64, 1);
            lock_state_global_write((ptr int) 64, 1);
            unlock_state_global_write((ptr int) 64, 1);
            return 0;
        }
    "#;
    let mut inst = guest_ctx(src);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(0)));
}

#[test]
fn locking_a_key_before_get_state_keeps_its_value() {
    // A lock belongs to the key: taking one before the first get_state
    // must not leave behind a replica too small for the value.
    let src = r#"
        extern void lock_state_write(ptr int key, int key_len);
        extern void unlock_state_write(ptr int key, int key_len);
        extern void lock_state_global_write(ptr int key, int key_len);
        extern void unlock_state_global_write(ptr int key, int key_len);
        extern int get_state(ptr int key, int key_len, int size);
        extern void push_state(ptr int key, int key_len);
        extern void write_call_output(ptr int buf, int len);
        int main() {
            ptr int l = (ptr int) 64;
            l[0] = 0x6c; // "l": under the local lock
            ptr int g = (ptr int) 72;
            g[0] = 0x67; // "g": under the global lock
            ptr int out = (ptr int) 128;
            lock_state_write(l, 1);
            ptr int s = (ptr int) get_state(l, 1, 4096);
            out[0] = s[100];
            s[10] = 5;
            push_state(l, 1);
            unlock_state_write(l, 1);
            lock_state_global_write(g, 1);
            ptr int t = (ptr int) get_state(g, 1, 4096);
            out[1] = t[100];
            t[10] = 5;
            push_state(g, 1);
            unlock_state_global_write(g, 1);
            write_call_output(out, 8);
            return 0;
        }
    "#;
    let ctx = test_ctx();
    for key in ["l", "g"] {
        ctx.state.kv().set(key, vec![7u8; 4096]).unwrap();
    }
    let mut inst = guest(src, ctx);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(0)));
    let fctx = inst.data_as::<FaasletCtx>().unwrap();
    let sevens = i32::from_le_bytes([7; 4]);
    let read = |at: usize| i32::from_le_bytes(fctx.output[at..at + 4].try_into().unwrap());
    assert_eq!(
        (read(0), read(4)),
        (sevens, sevens),
        "get_state after a lock reads the global value"
    );
    for key in ["l", "g"] {
        let global = fctx.state.kv().get(key).unwrap().unwrap();
        assert_eq!(global.len(), 4096, "push_state kept {key}'s size");
        assert_eq!(&global[40..44], &5i32.to_le_bytes());
        assert!(global[..40].iter().chain(&global[44..]).all(|&b| b == 7));
    }
}

#[test]
fn memory_host_calls() {
    let src = r#"
        int main() {
            int before = memsize();
            int addr = mmap(65536);
            if (addr < 0) { return -1; }
            int after = memsize();
            if (after != before + 1) { return -2; }
            int old = sbrk(100);
            if (old < 0) { return -3; }
            if (brk((after + 2) * 65536) != 0) { return -4; }
            if (munmap(addr, 65536) != 0) { return -5; }
            return memsize();
        }
    "#;
    // mmap/brk/sbrk are host imports; declare them via externs.
    let src = format!(
        r#"
        extern int mmap(int len);
        extern int munmap(int addr, int len);
        extern int brk(int addr);
        extern int sbrk(int delta);
        {src}
    "#
    );
    let mut inst = guest_ctx(&src);
    let r = inst.invoke("main", &[]).unwrap().unwrap().as_i32().unwrap();
    // 4 initial + 1 mmap + 1 sbrk + brk to (after+2)=8 → expect >= 7 pages.
    assert!(r >= 7, "final page count {r}");
}

#[test]
fn mmap_fails_cleanly_at_limit() {
    let src = r#"
        extern int mmap(int len);
        int main() {
            // Default FL memory limit is 256 pages; ask for far more.
            return mmap(1073741824);
        }
    "#;
    let mut inst = guest_ctx(src);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(-1)));
}

#[test]
fn file_io_host_calls() {
    let src = r#"
        extern int open(ptr int path, int len, int flags);
        extern int close(int fd);
        extern int dup(int fd);
        extern int read(int fd, ptr int buf, int len);
        extern int write(int fd, ptr int buf, int len);
        extern long seek(int fd, long off, int whence);
        extern long stat_size(ptr int path, int len);
        int main() {
            ptr int p = (ptr int) 64;
            p[0] = 0x676f6c; // "log"
            // flags: read|write|create|trunc = 0xF
            int fd = open((ptr int) 64, 3, 15);
            if (fd < 0) { return -1; }
            ptr int data = (ptr int) 128;
            data[0] = 0x64636261; // "abcd"
            if (write(fd, (ptr int) 128, 4) != 4) { return -2; }
            if (seek(fd, 0L, 0) != 0L) { return -3; }
            int fd2 = dup(fd);
            ptr int buf = (ptr int) 256;
            if (read(fd2, (ptr int) 256, 4) != 4) { return -4; }
            if (buf[0] != 0x64636261) { return -5; }
            if (stat_size((ptr int) 64, 3) != 4L) { return -6; }
            close(fd);
            close(fd2);
            return 0;
        }
    "#;
    let mut inst = guest_ctx(src);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(0)));
}

#[test]
fn misc_time_and_random() {
    let src = r#"
        extern long gettime();
        extern int getrandom(ptr int buf, int len);
        int main() {
            long t1 = gettime();
            getrandom((ptr int) 64, 8);
            long t2 = gettime();
            if (t2 < t1) { return -1; }
            ptr int r = (ptr int) 64;
            if (r[0] == 0 && r[1] == 0) { return -2; }
            return 0;
        }
    "#;
    let mut inst = guest_ctx(src);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(0)));
}

#[test]
fn sockets_from_guest() {
    use faasm_net::{Fabric, TokenBucket};
    // Stand up an echo service and point the guest at it.
    let fabric = Fabric::new();
    let server_nic = fabric.add_host();
    let client_nic = fabric.add_host();
    let server_id = server_nic.id();
    let t = std::thread::spawn(move || {
        let env = server_nic.recv().unwrap();
        server_nic.respond(&env, env.payload.clone()).unwrap();
    });

    let src = format!(
        r#"
        extern int socket();
        extern int connect(int sock, int host);
        extern int send(int sock, ptr int buf, int len);
        extern int recv(int sock, ptr int buf, int len);
        extern int sock_close(int sock);
        int main() {{
            int s = socket();
            if (connect(s, {server}) != 0) {{ return -1; }}
            ptr int out = (ptr int) 64;
            out[0] = 0x2a;
            if (send(s, (ptr int) 64, 4) != 4) {{ return -2; }}
            ptr int in = (ptr int) 128;
            if (recv(s, (ptr int) 128, 4) != 4) {{ return -3; }}
            if (in[0] != 0x2a) {{ return -4; }}
            sock_close(s);
            return 0;
        }}
    "#,
        server = server_id.0
    );
    let mut ctx = test_ctx();
    ctx.vif = Arc::new(client_nic.virtual_interface(TokenBucket::unlimited()));
    let mut inst = guest(&src, ctx);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(0)));
    t.join().unwrap();
}

#[test]
fn dynlink_load_and_call() {
    // Build a plugin exporting `dl_entry(ptr, len) -> len` that doubles each
    // byte, upload it to the Faaslet's filesystem, then dlopen/dlsym/dlcall.
    let plugin_src = r#"
        int dl_entry(ptr int buf, int len) {
            int i = 0;
            while (i < len) {
                ptr int b = buf;
                i = i + 4;
            }
            // Double the first i32.
            buf[0] = buf[0] * 2;
            return 4;
        }
    "#;
    let plugin = faasm_lang::compile(plugin_src).unwrap();
    let plugin_bytes = faasm_fvm::encode_module(&plugin);

    let ctx = test_ctx();
    // Place the plugin in the user's filesystem.
    ctx.fdtable
        .host()
        .store()
        .put("user:tester/plugin.fvm", plugin_bytes);

    let src = r#"
        extern int dlopen(ptr int path, int len);
        extern int dlsym(int handle, ptr int name, int len);
        extern int dlcall(int sym, ptr int arg, int arg_len, ptr int out, int out_cap);
        extern int dlclose(int handle);
        int main() {
            // path "plugin.fvm" at 64.
            ptr int p = (ptr int) 64;
            p[0] = 0x67756c70; // "plug"
            p[1] = 0x662e6e69; // "in.f"
            p[2] = 0x6d76;     // "vm"
            int h = dlopen((ptr int) 64, 10);
            if (h < 0) { return -1; }
            // symbol "dl_entry" at 128.
            ptr int n = (ptr int) 128;
            n[0] = 0x655f6c64; // "dl_e"
            n[1] = 0x7972746e; // "ntry"
            int sym = dlsym(h, (ptr int) 128, 8);
            if (sym < 0) { return -2; }
            ptr int arg = (ptr int) 192;
            arg[0] = 21;
            int got = dlcall(sym, (ptr int) 192, 4, (ptr int) 256, 4);
            if (got != 4) { return -3; }
            ptr int out = (ptr int) 256;
            if (dlclose(h) != 0) { return -4; }
            if (dlclose(h) != -1) { return -5; }
            return out[0];
        }
    "#;
    let mut inst = guest(src, ctx);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(42)));
}

#[test]
fn dlopen_rejects_garbage_module() {
    let ctx = test_ctx();
    ctx.fdtable
        .host()
        .store()
        .put("user:tester/bad.fvm", b"not a module".to_vec());
    let src = r#"
        extern int dlopen(ptr int path, int len);
        int main() {
            ptr int p = (ptr int) 64;
            p[0] = 0x2e646162; // "bad."
            p[1] = 0x6d7666;   // "fvm"
            return dlopen((ptr int) 64, 7);
        }
    "#;
    let mut inst = guest(src, ctx);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(-1)));
}

#[test]
fn host_calls_with_bad_pointers_trap() {
    let src = r#"
        extern void write_call_output(ptr int buf, int len);
        int main() {
            write_call_output((ptr int) 99999999, 16);
            return 0;
        }
    "#;
    let mut inst = guest_ctx(src);
    assert!(matches!(
        inst.invoke("main", &[]),
        Err(Trap::OutOfBoundsMemory { .. })
    ));
}

#[test]
fn missing_file_open_returns_errno() {
    let src = r#"
        extern int open(ptr int path, int len, int flags);
        int main() {
            ptr int p = (ptr int) 64;
            p[0] = 0x656e6f6e; // "none"
            return open((ptr int) 64, 4, 1);
        }
    "#;
    let mut inst = guest_ctx(src);
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(-1)));
}
