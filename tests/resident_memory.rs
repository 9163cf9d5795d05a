//! What a state replica costs: a 4 KiB value pulled into the local tier
//! holds one 4 KiB block, not a 64 KiB page. Checked twice — in the
//! system's own accounting (`host_memory_bytes`) and in the memory the OS
//! handed the process (`VmRSS`) — so the saving is not only a number the
//! runtime reports about itself. Its own test binary: nothing else may
//! allocate in the process while it measures. (A zero-filled page costs
//! VmRSS wherever its zeros are written: always in a debug build, and on a
//! reused heap in release; a fresh release heap may hand out untouched
//! zero pages, so there the VmRSS half is the weaker check.)

use faasm::core::Cluster;

const VALUES: usize = 4096;
const VALUE_BYTES: usize = 4096;
const MIB: usize = 1 << 20;

/// The process's resident set in bytes, from `/proc/self/status`.
fn vm_rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kib: usize = line
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .expect("VmRSS in kB");
    kib * 1024
}

#[test]
fn a_4kib_state_value_costs_4kib_on_the_host() {
    let cluster = Cluster::new(1);
    let host = &cluster.instances()[0];
    // Every value is non-zero throughout, so each one backs its block.
    for i in 0..VALUES {
        let value = vec![(i % 251) as u8 | 1; VALUE_BYTES];
        cluster.kv().set(&format!("rm:{i}"), value).unwrap();
    }
    let (accounted, resident) = (host.host_memory_bytes(), vm_rss());

    let entries: Vec<_> = (0..VALUES)
        .map(|i| {
            let entry = host.state().get(&format!("rm:{i}"), VALUE_BYTES).unwrap();
            entry.pull().unwrap();
            entry
        })
        .collect();
    let mut probe = [0u8; 1];
    entries[VALUES - 1]
        .region()
        .read(VALUE_BYTES - 1, &mut probe)
        .unwrap();
    assert_eq!(probe[0], ((VALUES - 1) % 251) as u8 | 1, "pulled in full");

    // 16 MiB of values; a zero-filled 64 KiB page per value would be 256.
    let accounted_growth = host.host_memory_bytes() - accounted;
    assert!(
        accounted_growth <= 32 * MIB,
        "host_memory_bytes grew by {} MiB",
        accounted_growth / MIB
    );
    let resident_growth = vm_rss().saturating_sub(resident);
    assert!(
        resident_growth < 64 * MIB,
        "VmRSS grew by {} MiB",
        resident_growth / MIB
    );
}
