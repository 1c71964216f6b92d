//! Partition torture harness: the cluster under an unreliable network.
//!
//! Where `cluster_torture.rs` kills devices, this suite attacks the
//! *links*: seeded per-link drop/duplicate/reorder/delay faults plus
//! scheduled bidirectional partitions (DESIGN.md §14). The invariants:
//!
//! * **Acked durability** — under swept partition schedules, every write
//!   whose COMPACT was acknowledged survives any single-primary death;
//!   a seal that cannot reach the replica log is never acked.
//! * **No split-brain** — at most one primary acks per fencing epoch:
//!   a suspect-deposed primary keeps executing, but every ack it would
//!   return is fenced (`EpochFenced`) and every artifact it ships is
//!   rejected at the replica's receive fence.
//! * **Convergence** — after a partition heals, anti-entropy
//!   reconciliation re-ships exactly the artifact gap and a subsequent
//!   promotion serves every committed pair from the replica log.
//! * **Determinism** — the same plan seed reproduces the identical
//!   partition, failover and link-event schedule, byte for byte.
//!
//! The `fast_` tests are the CI torture subset (run in the debug profile,
//! under the race detector and perturbation seeds); the sweeps run with
//! the tier-1 suite.

mod contract;

use contract::{value_for, Fleet, ReplicationTrace};
use kvcsd::cluster::{ClusterConfig, FailoverEvent};
use kvcsd::proto::{DeviceHandler, KvCommand, KvResponse, KvStatus, ShipKind};
use kvcsd::sim::FaultPlan;

const SHARDS: u32 = 2;
const PAIRS_PER_BATCH: u32 = 40;
const VALUE_LEN: usize = 20;

fn fleet(plan: FaultPlan, shards: u32, partition_failover: bool) -> Fleet {
    Fleet::new(
        ClusterConfig {
            shards,
            fault_plan: plan,
            partition_failover,
            ..ClusterConfig::default()
        },
        'p',
        PAIRS_PER_BATCH,
        VALUE_LEN,
    )
}

// ---------------------------------------------------------------------
// CI fast subset
// ---------------------------------------------------------------------

/// Sweep the partition open point across the ship schedule so the cut
/// lands before, during and after the first seal's retry budget. Every
/// acked write must survive a full fleet promotion afterwards.
#[test]
fn fast_acked_writes_survive_swept_partition_schedules() {
    for at in [1u64, 3, 7, 15, 31] {
        let mut plan = FaultPlan::none().with_partition_at(at, Some(6));
        plan.seed = 0xC0FF_EE00 ^ at;
        let mut f = fleet(plan, SHARDS, true);
        f.commit_batches(2);
        f.kill_all_primaries();
        f.verify_committed();
    }
}

/// Split-brain containment: after a suspect-deposition both sides of the
/// partition keep executing, but only the promoted primary can ack — the
/// deposed one is fenced on every client-visible path and its ships are
/// rejected at the replica's receive fence.
#[test]
fn fast_at_most_one_primary_acks_per_epoch() {
    // A permanent partition: under suspect-failover the durability
    // contract means no COMPACT can ever ack (the seal cannot reach the
    // replica log), so this test drives the raw handler, not a batch.
    let f = fleet(FaultPlan::none().with_partition_at(1, None), 1, true);
    let r = &f.router;
    let ks = match r.handle(KvCommand::CreateKeyspace { name: "t".into() }) {
        KvResponse::Created { ks } => ks,
        other => panic!("create: {other:?}"),
    };
    let keys: Vec<Vec<u8>> = (0..10).map(|i| format!("k{i:02}").into_bytes()).collect();
    for k in &keys {
        let resp = r.handle(KvCommand::Put {
            ks,
            key: k.clone(),
            value: value_for(k, VALUE_LEN),
        });
        assert!(
            matches!(resp, KvResponse::PutOk),
            "device-local puts ack across the partition: {resp:?}"
        );
    }
    let resp = r.handle(KvCommand::Compact { ks });
    assert!(
        matches!(
            resp,
            KvResponse::Err(KvStatus::FailoverInProgress { shard: 0 })
        ),
        "a seal that cannot reach the replica must not ack: {resp:?}"
    );
    let events = r.events();
    assert_eq!(events.len(), 1);
    assert!(events[0].suspected, "deposed on suspicion, not death");
    assert_eq!(
        r.shard_epoch(0),
        2,
        "the promotion mints exactly one fencing epoch"
    );
    assert!(r.has_deposed(0), "the suspect is kept around, fenced");
    // The deposed ex-primary still executes every command class — it has
    // the keyspace and the volatile puts — but every ack is fenced, so
    // per epoch only the promoted primary acks.
    let local = r
        .with_deposed_device(0, |d| d.keyspaces().list().first().map(|(id, _, _)| *id))
        .flatten()
        .expect("deposed primary kept its keyspaces");
    for cmd in [
        KvCommand::Put {
            ks: local,
            key: b"rogue".to_vec(),
            value: b"write".to_vec(),
        },
        KvCommand::Get {
            ks: local,
            key: keys[0].clone(),
        },
        KvCommand::Compact { ks: local },
    ] {
        assert_eq!(
            r.exec_on_deposed(0, cmd).unwrap_err(),
            KvStatus::EpochFenced { shard: 0 },
            "deposed primary must not ack in the new epoch"
        );
    }
    // Meanwhile the promoted primary acks fresh writes in the new epoch
    // (the deposed one's volatile puts are gone — they were never acked
    // as durable, only a COMPACT ack promises replica durability; and
    // reading them back would need a COMPACT, which correctly cannot ack
    // while the partition stays open).
    for k in &keys {
        f.drive(|| KvCommand::Put {
            ks,
            key: k.clone(),
            value: value_for(k, VALUE_LEN),
        })
        .expect("the promoted primary must ack in its own epoch");
    }
    // And even with the link healed, the stale epoch cannot ship.
    let fenced_before = r.replica_log(0).fenced();
    r.shard_link(0).heal_link_now();
    let name = r
        .with_deposed_device(0, |d| {
            d.keyspaces().list().first().map(|(_, n, _)| n.clone())
        })
        .flatten()
        .expect("deposed primary kept its keyspaces");
    r.ship_from_deposed(0, &name)
        .expect("the deposed primary exports its sealed keyspace")
        .expect("healed link delivers the stale ship");
    assert_eq!(
        r.replica_log(0).fenced(),
        fenced_before + 1,
        "stale-epoch ship must be rejected at the receive fence"
    );
}

/// Availability mode: the primary rides out the partition, acked seals
/// bounce retryably, and after the heal anti-entropy re-ships exactly
/// the gap — proven by promoting the replica and reading everything.
#[test]
fn fast_replicas_converge_after_heal() {
    let mut f = fleet(FaultPlan::none(), 1, false);
    let r = std::sync::Arc::clone(&f.router);
    f.commit_batches(1);
    r.shard_link(0).partition_now();
    // Writes keep landing (puts are device-local) but the durability
    // gate holds: a COMPACT that cannot ship does not ack.
    let ks = f.create("during-partition");
    for i in 0..PAIRS_PER_BATCH {
        f.put("during-partition", format!("gapk{i:05}").as_bytes())
            .expect("puts are device-local; the partition must not block them");
    }
    assert!(
        matches!(
            f.drive(|| KvCommand::Compact { ks }),
            Err(KvStatus::TransientDeviceError(_))
        ),
        "a seal across an open partition must bounce retryably"
    );
    assert!(r.events().is_empty(), "availability mode never deposes");
    assert_eq!(r.reconcile(), 0, "a partitioned link loses the exchange");
    r.shard_link(0).heal_link_now();
    assert!(r.reconcile() >= 1, "the heal exposes the artifact gap");
    assert!(
        f.compact_to_done("during-partition"),
        "the retried seal now ships"
    );
    assert_eq!(r.reconcile(), 0, "replica converged — nothing to re-ship");
    // The convergence proof: promote the replica and read it all back.
    f.kill_all_primaries();
    f.verify_committed();
}

/// One plan seed fixes the whole torture run: the partition schedule,
/// the failover/deposition sequence, every per-link fault event and the
/// fabric traffic totals reproduce exactly.
#[test]
fn fast_same_seed_yields_the_same_partition_and_failover_schedule() {
    let run = |seed: u64| {
        let mut plan = FaultPlan::none()
            .with_link_faults(0.2, 0.1, 0.1, 0.2)
            .with_link_delay_ns(40_000)
            .with_partition_at(4, Some(6));
        plan.seed = seed;
        let mut f = fleet(plan, SHARDS, true);
        f.commit_batches(2);
        f.verify_committed();
        let links: Vec<_> = (0..SHARDS)
            .map(|ix| f.router.shard_link(ix).link_events())
            .collect();
        (f.replication_trace(), links)
    };
    let a = run(0xDEAD_BEEF);
    let b = run(0xDEAD_BEEF);
    assert_eq!(a, b, "same seed must reproduce the full schedule");
    // Pinned, not just repeatable: a ship or generation exchange added,
    // dropped or reordered moves the link lane's draws and so changes
    // these numbers. At this seed and open point a seal-time ship hits
    // the partition on both links, so both primaries are deposed on
    // suspicion.
    let deposed = |shard| FailoverEvent {
        shard,
        generation: 1,
        replayed_artifacts: 1,
        recompacted: 1,
        suspected: true,
    };
    let pinned = ReplicationTrace {
        events: vec![deposed(1), deposed(0)],
        epochs: vec![2, 2],
        bus_msgs: 15,
        bus_bytes: 12_817,
        link_events: vec![4, 6],
        replicas: vec![(5, 0, 0), (4, 0, 0)],
    };
    assert_eq!(a.0, pinned, "the replication trace moved");
}

/// A scheduled partition that opens after the last seal-time ship still
/// ends: each background pass's generation exchange probes the downed
/// link, the lost probes count toward the scheduled heal, and anti-entropy
/// then ships the compacted forms the replicas lack.
#[test]
fn fast_background_passes_heal_a_scheduled_partition_and_converge() {
    let mut plan = FaultPlan::none()
        .with_link_faults(0.2, 0.1, 0.1, 0.2)
        .with_link_delay_ns(40_000)
        .with_partition_at(5, Some(6));
    plan.seed = 0xDEAD_BEEF;
    let mut f = fleet(plan, SHARDS, true);
    f.commit_batches(2);
    let r = std::sync::Arc::clone(&f.router);
    let committed = f.model.keyspaces();
    assert_eq!(committed.len(), 2, "both batches committed");
    let converged = |ix: u32| {
        let gens = r.replica_log(ix).generations();
        committed.iter().all(|name| {
            gens.iter()
                .any(|g| &g.0 == name && g.1 == ShipKind::Compacted)
        })
    };
    for ix in 0..SHARDS {
        assert!(r.shard_link(ix).is_partitioned(), "shard {ix}: window open");
        assert!(
            !converged(ix),
            "shard {ix}: the compacted forms are behind it"
        );
    }
    for _ in 0..12 {
        if (0..SHARDS).all(|ix| !r.shard_link(ix).is_partitioned() && converged(ix)) {
            break;
        }
        r.run_background();
    }
    for ix in 0..SHARDS {
        assert!(
            !r.shard_link(ix).is_partitioned(),
            "shard {ix}: still partitioned"
        );
        assert!(converged(ix), "shard {ix}: replica lacks a compacted form");
    }
    assert!(r.events().is_empty(), "a background pass never deposes");
    f.kill_all_primaries();
    f.verify_committed();
}

// ---------------------------------------------------------------------
// Slower sweeps (tier-1 only)
// ---------------------------------------------------------------------

/// Duplicate every delivery: at-least-once transport, exactly-once
/// application. The replica log dedups on (keyspace, seq) so a dup storm
/// changes neither the promoted state nor the acked data.
#[test]
fn duplicated_deliveries_apply_exactly_once() {
    let mut plan = FaultPlan::none().with_link_faults(0.0, 1.0, 0.0, 0.0);
    plan.seed = 7;
    let mut f = fleet(plan, 1, true);
    f.commit_batches(2);
    assert!(
        f.router.replica_log(0).duplicates() > 0,
        "a dup probability of 1.0 must exercise the dedup path"
    );
    f.kill_all_primaries();
    f.verify_committed();
}

/// A thoroughly lossy link — drops, dups, reorders and delays at once —
/// slows replication down but never corrupts it: retries and the receive
/// fence keep every acked batch intact through a full fleet promotion.
#[test]
fn lossy_links_preserve_acked_durability() {
    for seed in [11u64, 29, 47] {
        let mut plan = FaultPlan::none()
            .with_link_faults(0.25, 0.15, 0.1, 0.3)
            .with_link_delay_ns(80_000);
        plan.seed = seed;
        let mut f = fleet(plan, SHARDS, true);
        f.commit_batches(2);
        f.kill_all_primaries();
        f.verify_committed();
    }
}
