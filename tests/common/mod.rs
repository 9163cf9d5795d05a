//! The FL guests the integration tests share, one per shape, and the input
//! layouts they read. A test file takes them with `mod common;`; an
//! example, with `#[path = "../tests/common/mod.rs"] mod common;`.

#![allow(dead_code)]

use faasm::core::Cluster;

/// Answer with the input.
pub const ECHO: &str = r#"
    extern int input_size();
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    int main() {
        int n = input_size();
        read_call_input((ptr int) 1024, n);
        write_call_output((ptr int) 1024, n);
        return 0;
    }
"#;

/// Increment the 8-byte counter the whole input names, under its global
/// write lock: the lock, an authoritative pull, the add and the push are
/// one step, so no increment is lost whatever the state tier does
/// between calls. Outputs the new value.
pub const BUMP: &str = r#"
    extern int input_size();
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    extern void lock_state_global_write(ptr int key, int key_len);
    extern void unlock_state_global_write(ptr int key, int key_len);
    extern void pull_state(ptr int key, int key_len, int size);
    extern int get_state(ptr int key, int key_len, int size);
    extern void push_state(ptr int key, int key_len);
    int main() {
        ptr int key = (ptr int) 1024;
        int n = input_size();
        read_call_input(key, n);
        lock_state_global_write(key, n);
        pull_state(key, n, 8);
        ptr long v = (ptr long) get_state(key, n, 8);
        ptr long out = (ptr long) 2048;
        out[0] = v[0] + 1L;
        v[0] = out[0];
        push_state(key, n);
        unlock_state_global_write(key, n);
        write_call_output((ptr int) out, 8);
        return 0;
    }
"#;

/// Add one to slot `input[0]` (slot 0 for an empty input) of the 4 KiB
/// accumulator `acc` and push that slot: a state read on a Faaslet's first
/// touch and a global-tier write on every call, with no lock. Outputs the
/// slot's new value.
pub const ACCUMULATE: &str = r#"
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    extern int get_state(ptr int key, int key_len, int size);
    extern void push_state_offset(ptr int key, int key_len, int off, int len);
    int main() {
        ptr int key = (ptr int) 64;
        key[0] = 6513505; // "acc"
        ptr int input = (ptr int) 1024;
        input[0] = 0;
        read_call_input(input, 1);
        int slot = input[0] & 255;
        ptr long acc = (ptr long) get_state(key, 3, 4096);
        ptr long out = (ptr long) 2048;
        out[0] = acc[slot] + 1L;
        acc[slot] = out[0];
        push_state_offset(key, 3, slot * 8, 8);
        write_call_output((ptr int) out, 8);
        return 0;
    }
"#;

/// Answer with one byte: twice the input's first.
pub const DOUBLE: &str = r#"
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    int main() {
        ptr int b = (ptr int) 1024;
        read_call_input(b, 1);
        b[0] = (b[0] * 2) & 255;
        write_call_output(b, 1);
        return 0;
    }
"#;

/// Chain `child` with the input and answer with one byte: the child's
/// first plus one. Returns 1 if the child failed.
pub const PARENT: &str = r#"
    extern int input_size();
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    extern long chain_call(ptr int name, int name_len, ptr int in, int in_len);
    extern int await_call(long id);
    extern int get_call_output(long id, ptr int buf, int len);
    int main() {
        ptr int name = (ptr int) 64;
        name[0] = 1818847331; // "chil"
        name[1] = 100;        // "d"
        int n = input_size();
        read_call_input((ptr int) 1024, n);
        long id = chain_call(name, 5, (ptr int) 1024, n);
        if (await_call(id) != 0) { return 1; }
        ptr int b = (ptr int) 2048;
        get_call_output(id, b, 1);
        b[0] = (b[0] + 1) & 255;
        write_call_output(b, 1);
        return 0;
    }
"#;

/// Chain `callee` with this call's input; answer with its output and its
/// return code.
pub fn relay(callee: &str) -> String {
    let name: String = callee
        .as_bytes()
        .chunks(4)
        .enumerate()
        .map(|(i, word)| {
            let mut w = [0; 4];
            w[..word.len()].copy_from_slice(word);
            format!("name[{i}] = {};\n", i32::from_le_bytes(w))
        })
        .collect();
    format!(
        r#"
        extern int input_size();
        extern int read_call_input(ptr int buf, int len);
        extern void write_call_output(ptr int buf, int len);
        extern long chain_call(ptr int name, int name_len, ptr int in, int in_len);
        extern int await_call(long id);
        extern int get_call_output(long id, ptr int buf, int len);
        int main() {{
            ptr int name = (ptr int) 64;
            {name}
            int n = input_size();
            read_call_input((ptr int) 1024, n);
            long id = chain_call(name, {len}, (ptr int) 1024, n);
            int rc = await_call(id);
            int got = get_call_output(id, (ptr int) 4096, 4096);
            write_call_output((ptr int) 4096, got);
            return rc;
        }}
        "#,
        len = callee.len(),
    )
}

/// The state key [`GATE`] calls wait on.
pub const GATE_KEY: &str = "gate";

/// Wait until the state value `gate` reaches the call's ticket, then echo
/// the payload. The input is [`held`]'s: an 8-byte ticket, then the
/// payload. The test, not a sleep, decides how long a call stays in
/// flight: it lets calls through with [`let_through`]. A call gives up
/// with return code 1 after 4 Mi pulls (seconds of real time), so a
/// failing test cannot hang.
pub const GATE: &str = r#"
    extern int input_size();
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    extern int get_state(ptr int key, int key_len, int size);
    extern void pull_state(ptr int key, int key_len, int size);
    int main() {
        ptr int key = (ptr int) 64;
        key[0] = 1702125927; // "gate"
        int n = input_size();
        read_call_input((ptr int) 1024, n);
        ptr long ticket = (ptr long) 1024;
        ptr long gate = (ptr long) get_state(key, 4, 8);
        int pulls = 0;
        while (gate[0] < ticket[0]) {
            if (pulls == 4194304) { return 1; }
            pulls = pulls + 1;
            pull_state(key, 4, 8);
        }
        write_call_output((ptr int) 1032, n - 8);
        return 0;
    }
"#;

/// The input of a [`GATE`] call that passes once the gate reaches
/// `ticket`, echoing `payload`.
pub fn held(ticket: i64, payload: &[u8]) -> Vec<u8> {
    let mut input = ticket.to_le_bytes().to_vec();
    input.extend_from_slice(payload);
    input
}

/// Let every [`GATE`] call whose ticket is at most `ticket` through;
/// `i64::MAX` opens the gate for good.
pub fn let_through(cluster: &Cluster, ticket: i64) {
    cluster
        .kv()
        .set(GATE_KEY, ticket.to_le_bytes().to_vec())
        .expect("the gate is a state value");
}
