//! The live-resharding coordinator: epoch-bumped key migration.
//!
//! Growing or shrinking the tier is a three-phase, wire-driven protocol
//! (Cloudburst-style storage autoscaling; the rendezvous routing in
//! [`sharded`](crate::sharded) guarantees the delta is minimal):
//!
//! 1. **Freeze + export** — each donor shard receives `Migrate{epoch+1,
//!    new_count}`: it atomically switches its ownership check to the new
//!    table (in-flight and future operations on *moving* keys answer
//!    `WrongEpoch` and are retried by clients), then exports exactly the
//!    moving keys — values, counters and lock state with owners and
//!    remaining leases intact. The freeze-and-export runs behind the
//!    shard's serving gate, so all of the donor's keyed traffic pauses
//!    for the export snapshot itself; outside that snapshot, non-moving
//!    keys are served throughout the migration.
//! 2. **Handoff** — the coordinator streams each donor's export to the
//!    keys' new owner shard, which installs it.
//! 3. **Commit + publish** — every shard of the new table receives
//!    `EpochCommit{epoch+1, new_count}` (donors purge the keys they no
//!    longer own); only then is the new [`RoutingTable`] published through
//!    the shared [`RoutingCell`], releasing every client blocked on the
//!    `WrongEpoch` handshake onto the new table.
//!
//! No acknowledged write can be lost: a write either lands before the
//! freeze (and is exported with the key) or is rejected with `WrongEpoch`
//! and retried against the new owner after the commit. No read can see the
//! wrong shard: ownership is checked on every keyed request.
//!
//! On a replicated tier (`replication > 1`) two more epoch transitions
//! exist, neither of which migrates any data:
//!
//! - [`failover`] — a slot died. Its index is tombstoned in the new table,
//!   which re-ranks every one of its keys onto the key's first surviving
//!   replica: the promotion *is* the epoch bump, because the backup
//!   already holds every acknowledged write (the quorum guaranteed it).
//!   Survivors then re-ship replicas to the members each key gained, so
//!   the tier returns to full redundancy.
//! - [`retire`] — a planned removal: identical, except the victim also
//!   receives the commit (purging its entire store) and is returned for
//!   shutdown. [`shrink`] takes this path on such a tier.
//!
//! Every tier, whatever its shard count and replication factor, is booted
//! by [`start_tier`], and every shard that joins one by [`start_joiner`].

use std::sync::Arc;

use faasm_net::{Fabric, HostId, Nic};

use crate::client::{KvClient, KvError};
use crate::codec::{Wire, EPOCH_ANY};
use crate::server::KvServer;
use crate::sharded::{shard_index_for, RoutingCell, RoutingTable};
use crate::store::{KeyMigration, KvStore};

/// Boot a routed tier at epoch 1: `shards` shard servers of `workers`
/// threads each, every key held by `replication` of them, and the routing
/// cell publishing their table. The fabric hands out every main host first,
/// in slot order, then — on a replicated tier only — every replica-traffic
/// host.
///
/// # Panics
///
/// If `replication` is not in `1..=shards`.
pub fn start_tier(
    fabric: &Fabric,
    shards: usize,
    replication: usize,
    workers: usize,
) -> (Vec<KvServer>, Arc<RoutingCell>) {
    assert!(
        (1..=shards).contains(&replication),
        "a tier of {shards} shards cannot hold {replication} replicas per key"
    );
    let nics: Vec<Nic> = (0..shards).map(|_| fabric.add_host()).collect();
    // Only a replicated tier has replica traffic to serve.
    let repl_nics: Vec<Nic> = (0..shards)
        .filter(|_| replication > 1)
        .map(|_| fabric.add_host())
        .collect();
    let table = RoutingTable {
        epoch: 1,
        hosts: nics.iter().map(Nic::id).collect(),
        replication,
        dead: Vec::new(),
        repl_hosts: repl_nics.iter().map(Nic::id).collect(),
    };
    let mut repl_nics = repl_nics.into_iter();
    let servers = nics
        .into_iter()
        .enumerate()
        .map(|(slot, nic)| {
            let store = Arc::new(KvStore::new());
            KvServer::start_shard(nic, repl_nics.next(), workers, store, &table, slot)
        })
        .collect();
    (servers, RoutingCell::new(table))
}

/// Boot the shard that joins `table` as its next slot, routed at the next
/// epoch and ready for [`grow`]. On a replicated tier it takes its
/// replica-traffic host from the fabric before its main host.
pub fn start_joiner(fabric: &Fabric, table: &RoutingTable, workers: usize) -> KvServer {
    let repl_nic = (table.replication > 1).then(|| fabric.add_host());
    let nic = fabric.add_host();
    let next = table.joined(nic.id(), repl_nic.as_ref().map(Nic::id));
    let store = Arc::new(KvStore::new());
    KvServer::start_shard(nic, repl_nic, workers, store, &next, table.hosts.len())
}

fn control(coord: &Nic, host: HostId) -> KvClient {
    KvClient::connect_at(coord.clone(), host, EPOCH_ANY, coord.fresh_tag())
}

/// Cut an export into frames of at most
/// [`HANDOFF_FRAME_ENTRIES`](crate::server::HANDOFF_FRAME_ENTRIES) entries
/// and [`HANDOFF_FRAME_BYTES`](crate::server::HANDOFF_FRAME_BYTES) encoded
/// bytes (one entry larger than that travels alone) — no single fabric
/// message carries an unbounded export. No frame is empty.
pub(crate) fn handoff_frames(entries: Vec<KeyMigration>) -> Vec<Vec<KeyMigration>> {
    let mut frames: Vec<Vec<KeyMigration>> = Vec::new();
    let mut bytes = 0usize;
    for e in entries {
        let w = e.wire_len();
        let full = |cur: &Vec<KeyMigration>| {
            cur.len() >= crate::server::HANDOFF_FRAME_ENTRIES
                || bytes + w > crate::server::HANDOFF_FRAME_BYTES
        };
        if frames.last().is_none_or(full) {
            frames.push(Vec::new());
            bytes = 0;
        }
        bytes += w;
        frames.last_mut().expect("a frame was just ensured").push(e);
    }
    frames
}

/// Stream `entries` to `target` as bounded, sequence-numbered
/// [`HandoffFrame`](crate::codec::Request::HandoffFrame)s.
pub fn send_handoff_chunked(target: &KvClient, entries: Vec<KeyMigration>) -> Result<(), KvError> {
    let frames = handoff_frames(entries);
    // The transfer id comes from the target's fabric, which every sender
    // to that receiver shares, so two concurrent migrations to one
    // receiver never interleave frame sequences. A local store refuses
    // handoffs whatever the id.
    let xfer = target.nic().map_or(0, Nic::fresh_tag);
    let count = frames.len();
    for (seq, frame) in frames.into_iter().enumerate() {
        target.handoff_frame(xfer, seq as u32, seq + 1 == count, frame)?;
    }
    Ok(())
}

/// The `(dead, hosts)` wire arguments of an
/// [`EpochCommit`](crate::codec::Request::EpochCommit) for `table`.
fn commit_args(table: &RoutingTable) -> (Vec<u32>, Vec<u32>) {
    (
        table.dead.iter().map(|d| *d as u32).collect(),
        table.repl_hosts.iter().map(|h| h.0).collect(),
    )
}

/// Grow the tier by one shard: migrate every key whose replica set under
/// the grown table gains the new slot onto `joiner` (booted by
/// [`start_joiner`] from the current table), commit the epoch on every
/// shard and publish the new table through `cell`. Rendezvous ranking over
/// the surviving slots is unchanged by the new slot, so the only member any
/// key's replica set gains is the newcomer — every exported entry streams
/// to it, chunked.
///
/// On a mid-protocol failure the frozen donors are rolled back to the old
/// table (their keys were never purged) and the error is returned; the
/// caller owns shutting down the unused new server.
///
/// # Errors
///
/// Returns [`KvError`] when a shard cannot be reached or rejects a phase,
/// or when a replicated tier's joiner has no replica-traffic host.
pub fn grow(
    coord: &Nic,
    cell: &RoutingCell,
    joiner: &KvServer,
) -> Result<Arc<RoutingTable>, KvError> {
    // Flight-recorder trigger: snapshot recent shard activity at migration
    // boundaries, where retry storms and freeze waits cluster.
    coord.recorder().note_anomaly("reshard grow begin");
    let old = cell.load();
    if old.replication > 1 && joiner.repl_host_id().is_none() {
        return Err(KvError::Server(
            "a replicated tier's new shard needs a replica-traffic host".into(),
        ));
    }
    let new_table = old.joined(joiner.host_id(), joiner.repl_host_id());
    let new_epoch = new_table.epoch;
    let new_count = new_table.hosts.len() as u64;
    let (dead_u32, hosts_u32) = commit_args(&new_table);
    let (old_dead_u32, old_hosts_u32) = commit_args(&old);

    let target = control(coord, joiner.host_id());
    let mut frozen: Vec<HostId> = Vec::new();
    let migrated = (|| {
        for slot in old.live_slots() {
            let donor = old.hosts[slot];
            frozen.push(donor);
            let entries = control(coord, donor).migrate(new_epoch, new_count)?;
            send_handoff_chunked(&target, entries)?;
        }
        Ok(())
    })();
    if let Err(e) = migrated {
        // Roll back: donors re-commit the old table. Nothing was purged,
        // so service resumes exactly as before the attempt.
        for &donor in &frozen {
            let _ = control(coord, donor).epoch_commit(
                old.epoch,
                old.hosts.len() as u64,
                &old_dead_u32,
                &old_hosts_u32,
            );
        }
        return Err(e);
    }
    // Commit is best-effort per shard, and the table publishes regardless:
    // every donor is already pending on the new table (its ownership
    // answers are identical to the committed state), and the new shard
    // booted routed at the new epoch — so service is correct even if a
    // commit frame is lost. A shard that missed its commit merely delays
    // purging its moved copies until the next epoch change overwrites its
    // pending state. Aborting here instead would be strictly worse: the
    // donors' freeze only releases once the cell reaches the epoch they
    // name in `WrongEpoch`.
    for slot in new_table.live_slots() {
        let _ = control(coord, new_table.hosts[slot])
            .epoch_commit(new_epoch, new_count, &dead_u32, &hosts_u32);
    }
    cell.store(new_table);
    coord.recorder().note_anomaly("reshard grow commit");
    Ok(cell.load())
}

/// Fail a dead slot out of a replicated tier: tombstone its index at
/// `epoch + 1`, commit the new table to every surviving slot (service for
/// the dead slot's keys resumes at each survivor's commit — this window
/// is the failover blackout), publish, then have every survivor re-ship
/// replicas for the set members its keys gained, restoring redundancy.
///
/// No data migrates at the epoch bump itself: tombstoning re-ranks each of
/// the dead slot's keys onto its first surviving replica, which — because
/// acked writes required the full quorum — already holds every
/// acknowledged write. On an unreplicated tier (`replication == 1`) the
/// failover still reroutes the keys but their data is lost with the shard.
///
/// # Errors
///
/// Returns [`KvError`] when `dead_slot` is not a live slot of the current
/// table or is the last one.
pub fn failover(
    coord: &Nic,
    cell: &RoutingCell,
    dead_slot: usize,
) -> Result<Arc<RoutingTable>, KvError> {
    fail_slot(coord, cell, dead_slot, false).map(|(table, _)| table)
}

/// Planned removal of a live slot from a replicated tier: [`failover`]
/// except the victim also receives the commit — purging its entire store —
/// and its main host is returned for shutdown.
///
/// # Errors
///
/// Returns [`KvError`] when `slot` is not live or is the last live slot.
pub fn retire(
    coord: &Nic,
    cell: &RoutingCell,
    slot: usize,
) -> Result<(Arc<RoutingTable>, HostId), KvError> {
    fail_slot(coord, cell, slot, true)
}

fn fail_slot(
    coord: &Nic,
    cell: &RoutingCell,
    dead_slot: usize,
    planned: bool,
) -> Result<(Arc<RoutingTable>, HostId), KvError> {
    let old = cell.load();
    if dead_slot >= old.hosts.len() || !old.is_live(dead_slot) {
        return Err(KvError::Server(format!(
            "slot {dead_slot} is not a live slot of the current table"
        )));
    }
    if old.live_count() <= 1 {
        return Err(KvError::Server(
            "cannot fail over the last live shard".into(),
        ));
    }
    coord.recorder().note_anomaly(if planned {
        "state shard retire begin"
    } else {
        "state shard failover begin"
    });
    let victim = old.hosts[dead_slot];
    let new_epoch = old.epoch + 1;
    let mut dead = old.dead.clone();
    dead.push(dead_slot);
    dead.sort_unstable();
    let new_table = RoutingTable {
        epoch: new_epoch,
        dead,
        ..RoutingTable::clone(&old)
    };
    let (dead_u32, hosts_u32) = commit_args(&new_table);
    let count = old.hosts.len() as u64;
    if planned {
        // The victim must stop serving (and purge) before its keys are
        // served elsewhere; a dead host in an unplanned failover cannot.
        control(coord, victim).epoch_commit(new_epoch, count, &dead_u32, &hosts_u32)?;
    }
    // Best-effort per survivor, publish regardless: a survivor that missed
    // its commit redirects clients by epoch until it catches up.
    for slot in new_table.live_slots() {
        let _ = control(coord, new_table.hosts[slot])
            .epoch_commit(new_epoch, count, &dead_u32, &hosts_u32);
    }
    cell.store(new_table);
    // Blackout over: parked clients resume against the promoted replicas.
    // Now restore full redundancy — each survivor re-ships the keys whose
    // replica set gained a member when the slot was tombstoned.
    let prev_dead_u32: Vec<u32> = old.dead.iter().map(|d| *d as u32).collect();
    let installed = cell.load();
    for slot in installed.live_slots() {
        let _ = control(coord, installed.hosts[slot]).rebuild(&prev_dead_u32);
    }
    coord.recorder().note_anomaly(if planned {
        "state shard retire commit"
    } else {
        "state shard failover commit"
    });
    Ok((installed, victim))
}

/// Shrink the tier by one shard. On an unreplicated, untombstoned table
/// the last shard exports **all** of its keys (frozen for the duration),
/// the coordinator hands each key to its owner under the shrunk table, the
/// remaining shards commit the epoch and the new table is published. On a
/// replicated (or tombstoned) table no migration is needed: the last live
/// slot is [`retire`]d, since its keys' backups already hold everything.
/// Returns the new table and the retired host (the caller owns shutting
/// its server down).
///
/// # Errors
///
/// Returns [`KvError`] when the tier has only one live shard, or a shard
/// cannot be reached mid-protocol (the retiring shard is then rolled back).
pub fn shrink(coord: &Nic, cell: &RoutingCell) -> Result<(Arc<RoutingTable>, HostId), KvError> {
    let old = cell.load();
    if old.replication > 1 || !old.dead.is_empty() {
        let last = *old
            .live_slots()
            .last()
            .expect("a published table has live slots");
        return retire(coord, cell, last);
    }
    coord.recorder().note_anomaly("reshard shrink begin");
    if old.hosts.len() <= 1 {
        return Err(KvError::Server("cannot retire the last state shard".into()));
    }
    let new_epoch = old.epoch + 1;
    let hosts = old.hosts[..old.hosts.len() - 1].to_vec();
    let retiring = *old.hosts.last().expect("len checked");
    let new_count = hosts.len() as u64;

    let entries = control(coord, retiring).migrate(new_epoch, new_count)?;
    // Group the retiring shard's keys by their owner under the new table.
    let mut per_target: Vec<Vec<KeyMigration>> = vec![Vec::new(); hosts.len()];
    for entry in entries {
        per_target[shard_index_for(&entry.key, hosts.len())].push(entry);
    }
    let handed = (|| {
        for (idx, batch) in per_target.into_iter().enumerate() {
            if !batch.is_empty() {
                send_handoff_chunked(&control(coord, hosts[idx]), batch)?;
            }
        }
        Ok(())
    })();
    if let Err(e) = handed {
        let _ = control(coord, retiring).epoch_commit(old.epoch, old.hosts.len() as u64, &[], &[]);
        return Err(e);
    }
    // Unlike grow, the surviving shards have seen nothing yet: until each
    // commits, it still rejects the keys it just imported. A commit
    // failure therefore rolls the whole shrink back — retiring shard
    // first (releasing its freeze; its copies were never purged), then
    // any survivor that already committed (re-committing the old table,
    // whose purge also drops the imported copies it no longer owns).
    let mut committed: Vec<HostId> = Vec::new();
    for &host in &hosts {
        if let Err(e) = control(coord, host).epoch_commit(new_epoch, new_count, &[], &[]) {
            let _ =
                control(coord, retiring).epoch_commit(old.epoch, old.hosts.len() as u64, &[], &[]);
            for &done in &committed {
                let _ =
                    control(coord, done).epoch_commit(old.epoch, old.hosts.len() as u64, &[], &[]);
            }
            return Err(e);
        }
        committed.push(host);
    }
    cell.store(RoutingTable::new(new_epoch, hosts));
    coord.recorder().note_anomaly("reshard shrink commit");
    Ok((cell.load(), retiring))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::KvBackend;
    use crate::sharded::ShardedKvClient;
    use crate::store::LockMode;

    #[test]
    fn an_unreplicated_tier_takes_one_host_per_shard_in_slot_order() {
        let fabric = Fabric::new();
        let (servers, cell) = start_tier(&fabric, 3, 1, 1);
        let table = cell.load();
        let ids = |raw: &[u32]| raw.iter().map(|&id| HostId(id)).collect::<Vec<_>>();
        assert_eq!(table.epoch, 1);
        assert_eq!(table.hosts, ids(&[0, 1, 2]));
        assert!(table.repl_hosts.is_empty() && table.dead.is_empty());
        assert_eq!(table.replication, 1);
        for (slot, server) in servers.iter().enumerate() {
            assert_eq!(server.host_ids(), vec![table.hosts[slot]]);
            assert_eq!(server.routing().slot(), slot);
            assert_eq!(server.routing().epoch(), 1);
        }

        let joiner = start_joiner(&fabric, &table, 1);
        assert_eq!(joiner.host_ids(), ids(&[3]));
        assert_eq!(joiner.routing().slot(), 3);
        assert_eq!(joiner.routing().epoch(), 2);
    }

    #[test]
    fn a_replicated_tier_takes_every_main_host_then_every_replica_host() {
        let fabric = Fabric::new();
        let (servers, cell) = start_tier(&fabric, 3, 2, 1);
        let table = cell.load();
        let ids = |raw: &[u32]| raw.iter().map(|&id| HostId(id)).collect::<Vec<_>>();
        assert_eq!(table.epoch, 1);
        assert_eq!(table.hosts, ids(&[0, 1, 2]));
        assert_eq!(table.repl_hosts, ids(&[3, 4, 5]));
        assert!(table.dead.is_empty());
        assert_eq!(table.replication, 2);
        for (slot, server) in servers.iter().enumerate() {
            assert_eq!(
                server.host_ids(),
                vec![table.hosts[slot], table.repl_hosts[slot]]
            );
            assert_eq!(server.routing().slot(), slot);
            assert_eq!(server.stats().replication, 2);
        }

        // The joiner takes its replica host first, then its main host.
        let joiner = start_joiner(&fabric, &table, 1);
        assert_eq!(joiner.repl_host_id(), Some(HostId(6)));
        assert_eq!(joiner.host_id(), HostId(7));
        assert_eq!(joiner.routing().slot(), 3);
        assert_eq!(joiner.routing().epoch(), 2);
        let grown = grow(&fabric.add_host(), &cell, &joiner).unwrap();
        assert_eq!(*grown, table.joined(HostId(7), Some(HostId(6))));
    }

    #[test]
    fn grow_moves_exactly_the_rendezvous_delta_and_loses_nothing() {
        let fabric = Fabric::new();
        let (servers, cell) = start_tier(&fabric, 2, 1, 2);
        let client = ShardedKvClient::connect(fabric.add_host(), Arc::clone(&cell));
        let keys: Vec<String> = (0..64).map(|i| format!("reshard:k{i}")).collect();
        for (i, key) in keys.iter().enumerate() {
            client.set(key, vec![i as u8; 8]).unwrap();
            client.incr(&format!("{key}:ctr"), i as i64).unwrap();
        }

        let newcomer = start_joiner(&fabric, &cell.load(), 2);
        let table = grow(&fabric.add_host(), &cell, &newcomer).unwrap();
        assert_eq!(table.epoch, 2);
        assert_eq!(table.hosts.len(), 3);

        // Every acknowledged write is still readable through the client…
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(client.get(key).unwrap(), Some(vec![i as u8; 8]), "{key}");
            assert_eq!(client.incr(&format!("{key}:ctr"), 0).unwrap(), i as i64);
        }
        // …and each key lives on exactly its new owner shard (no wrong-shard
        // copies left behind, no gratuitous movement beyond the delta).
        let stores: Vec<_> = servers
            .iter()
            .map(|s| Arc::clone(s.store()))
            .chain(std::iter::once(Arc::clone(newcomer.store())))
            .collect();
        for key in &keys {
            let owner = shard_index_for(key, 3);
            for (idx, store) in stores.iter().enumerate() {
                assert_eq!(
                    store.exists(key),
                    idx == owner,
                    "{key} must live only on shard {owner}, found on {idx}"
                );
            }
            assert_eq!(
                shard_index_for(key, 2) != owner,
                owner == 2,
                "a moved key moved only because the new shard won it"
            );
        }
    }

    #[test]
    fn stale_clients_are_redirected_not_failed() {
        let fabric = Fabric::new();
        let (_servers, cell) = start_tier(&fabric, 2, 1, 2);
        // This client builds its connections now and learns of the grow
        // only through the WrongEpoch handshake.
        let stale = ShardedKvClient::connect(fabric.add_host(), Arc::clone(&cell));
        for i in 0..32 {
            stale.set(&format!("k{i}"), vec![i]).unwrap();
        }
        let epoch_before = stale.epoch();

        let newcomer = start_joiner(&fabric, &cell.load(), 2);
        grow(&fabric.add_host(), &cell, &newcomer).unwrap();

        // Some of these keys moved to the new shard; the stale client must
        // transparently refresh and serve all of them.
        for i in 0..32 {
            assert_eq!(stale.get(&format!("k{i}")).unwrap(), Some(vec![i]));
        }
        assert!(stale.epoch() > epoch_before, "client followed the epoch");
        assert!(
            newcomer.store().key_count() > 0,
            "the delta for 32 keys over 2→3 shards is virtually never empty"
        );
        assert!(
            newcomer.routing().counters().wrong_epoch_redirects() == 0,
            "nothing should hit the new shard before the table was published"
        );
    }

    #[test]
    fn lock_owners_survive_migration() {
        let fabric = Fabric::new();
        let (_servers, cell) = start_tier(&fabric, 2, 1, 2);
        let holder = ShardedKvClient::connect(fabric.add_host(), Arc::clone(&cell));
        let rival = ShardedKvClient::connect(fabric.add_host(), Arc::clone(&cell));
        let keys: Vec<String> = (0..16).map(|i| format!("locked:{i}")).collect();
        for key in &keys {
            assert!(holder.try_lock(key, LockMode::Write).unwrap());
        }

        let newcomer = start_joiner(&fabric, &cell.load(), 2);
        grow(&fabric.add_host(), &cell, &newcomer).unwrap();

        for key in &keys {
            assert!(
                !rival.try_lock(key, LockMode::Write).unwrap(),
                "{key}: the migrated lock must still exclude other owners"
            );
            holder.unlock(key, LockMode::Write).unwrap();
            assert!(
                rival.try_lock(key, LockMode::Write).unwrap(),
                "{key}: the original owner's unlock must release the moved lock"
            );
            rival.unlock(key, LockMode::Write).unwrap();
        }
    }

    #[test]
    fn writes_during_the_freeze_window_block_then_land_on_the_new_owner() {
        let fabric = Fabric::new();
        let (servers, cell) = start_tier(&fabric, 2, 1, 2);
        let client = Arc::new(ShardedKvClient::connect(
            fabric.add_host(),
            Arc::clone(&cell),
        ));
        // Find a key that moves to the new shard under 3 shards.
        let key = (0..1000)
            .map(|i| format!("mover:{i}"))
            .find(|k| shard_index_for(k, 3) == 2)
            .expect("some key moves to the new shard");
        client.set(&key, b"old".to_vec()).unwrap();

        // Freeze the donors by hand (Migrate without commit): the key is
        // now in its migration window.
        let coord = fabric.add_host();
        let newcomer = start_joiner(&fabric, &cell.load(), 2);
        let mut exported = Vec::new();
        for server in &servers {
            exported.extend(control(&coord, server.host_id()).migrate(2, 3).unwrap());
        }

        // A write issued mid-window must not fail and must not land on the
        // donor: it blocks in the WrongEpoch handshake until the commit.
        let writer = {
            let client = Arc::clone(&client);
            let key = key.clone();
            std::thread::spawn(move || client.set(&key, b"new".to_vec()))
        };
        // A donor has turned the write away at least once.
        let redirects = || -> u64 {
            servers
                .iter()
                .map(|s| s.stats().wrong_epoch_redirects)
                .sum()
        };
        while redirects() == 0 {
            std::thread::yield_now();
        }
        assert!(!writer.is_finished(), "the write must wait out the freeze");

        // Complete the migration: handoff, commit, publish.
        send_handoff_chunked(&control(&coord, newcomer.host_id()), exported).unwrap();
        let mut hosts: Vec<HostId> = servers.iter().map(KvServer::host_id).collect();
        hosts.push(newcomer.host_id());
        for &host in &hosts {
            control(&coord, host).epoch_commit(2, 3, &[], &[]).unwrap();
        }
        cell.store(RoutingTable::new(2, hosts));

        writer.join().unwrap().unwrap();
        assert_eq!(
            newcomer.store().get(&key),
            Some(b"new".to_vec()),
            "the blocked write lands on the new owner after the commit"
        );
        assert_eq!(client.get(&key).unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn shrink_returns_the_retired_shards_keys_to_the_survivors() {
        let fabric = Fabric::new();
        let (servers, cell) = start_tier(&fabric, 3, 1, 2);
        let client = ShardedKvClient::connect(fabric.add_host(), Arc::clone(&cell));
        for i in 0..48 {
            client.set(&format!("shrink:{i}"), vec![i]).unwrap();
        }
        let coord = fabric.add_host();
        let (table, retired) = shrink(&coord, &cell).unwrap();
        assert_eq!(table.hosts.len(), 2);
        assert_eq!(retired, servers[2].host_id());
        for i in 0..48 {
            assert_eq!(client.get(&format!("shrink:{i}")).unwrap(), Some(vec![i]));
        }
        // And the two survivors hold everything between them, correctly
        // placed under the shrunk table.
        for i in 0..48 {
            let key = format!("shrink:{i}");
            let owner = shard_index_for(&key, 2);
            assert!(servers[owner].store().exists(&key), "{key}");
        }
        // One shard cannot be retired.
        let lone_fabric = Fabric::new();
        let (_s, lone_cell) = start_tier(&lone_fabric, 1, 1, 2);
        assert!(shrink(&lone_fabric.add_host(), &lone_cell).is_err());
    }
}
