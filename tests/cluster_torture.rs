//! Fleet-wide torture harness for the sharded cluster.
//!
//! Drives routed client sessions against a [`ClusterRouter`] while a
//! seeded [`FaultPlan`] cuts power to shard primaries — the cut op-count
//! is swept so deaths land in every phase: ingest, the synchronous seal,
//! mid-compaction (the idempotent-seal case), index builds and reads.
//! After every promotion the harness checks the fleet against the
//! reference model (`tests/contract/mod.rs`), where an acknowledged
//! COMPACT (seal + artifact ship) is the durability point, and asserts:
//!
//! * a stalled/busy shard charges virtual-clock latency only to its own
//!   keyspace ranges, never to healthy shards;
//! * the same plan seed reproduces the identical failover schedule
//!   (shard order, generations, replayed-artifact counts).

mod contract;

use std::collections::BTreeMap;
use std::sync::Arc;

use contract::{found, value_for, Contract, Fleet, ReplicationTrace};
use kvcsd::cluster::{ClusterConfig, ClusterRouter, FailoverEvent, ShardHealth, ShardStrategy};
use kvcsd::device::{AdmissionConfig, DeviceConfig};
use kvcsd::proto::{Bound, DeviceHandler, KvCommand, KvResponse, KvStatus};
use kvcsd::sim::{FaultPlan, IoLedger};
use kvcsd_client::{ClientError, Keyspace, KvCsd};

const SHARDS: u32 = 3;
const BATCHES: usize = 3;
const PAIRS_PER_BATCH: u32 = 60;
const VALUE_LEN: usize = 24;

fn fleet(cfg: ClusterConfig) -> Fleet {
    Fleet::new(cfg, 'b', PAIRS_PER_BATCH, VALUE_LEN)
}

/// Run the full batched workload against a cluster whose fault plan cuts
/// power at `cut_at` ops, then kill every still-healthy primary so the
/// final verification reads every batch from promoted replicas.
fn run_workload(cut_at: u64, seed: u64) -> Fleet {
    let mut f = fleet(ClusterConfig {
        shards: SHARDS,
        fault_plan: FaultPlan::power_cut_at(cut_at, seed),
        ..ClusterConfig::default()
    });
    f.commit_batches(BATCHES);
    f.kill_all_primaries();
    f
}

#[test]
fn power_cut_sweep_survives_failover_at_every_phase() {
    // Cut points chosen to land in ingest, seal, compaction sort, index
    // read-back and steady-state phases of the batched workload.
    for &cut_at in &[60u64, 140, 300, 520, 900, 1600, 2600, 4200] {
        let mut f = run_workload(cut_at, 0xC0FFEE ^ cut_at);
        f.verify_committed();
        assert_eq!(f.fenced(), 0, "cut_at={cut_at}: fenced without a partition");
        // The plan cut plus the final manual sweep: every shard is
        // promoted at least once (twice when the plan got there first,
        // which also exercises the re-seeded replica log), and
        // generations count up per shard without gaps.
        let mut gens: BTreeMap<u32, u32> = BTreeMap::new();
        for ev in f.router.events() {
            let g = gens.entry(ev.shard).or_insert(0);
            *g += 1;
            assert_eq!(
                ev.generation, *g,
                "cut_at={cut_at}: generations must be per-shard monotonic"
            );
        }
        assert_eq!(
            gens.len() as u32,
            SHARDS,
            "cut_at={cut_at}: every shard must have failed over"
        );
    }
}

#[test]
fn same_seed_reproduces_the_same_failover_schedule() {
    let runs: Vec<ReplicationTrace> = (0..2)
        .map(|_| {
            let mut f = run_workload(300, 0xDEAD_BEEF);
            f.verify_committed();
            assert_eq!(f.fenced(), 0, "fenced without a partition");
            f.replication_trace()
        })
        .collect();
    assert_eq!(
        runs[0], runs[1],
        "same seed must reproduce the identical failover schedule"
    );
    // Pinned, not just repeatable: a ship added, dropped or reordered
    // changes the bus totals or the replica counters.
    let promoted = |shard| FailoverEvent {
        shard,
        generation: 1,
        replayed_artifacts: 3,
        recompacted: 0,
        suspected: false,
    };
    let pinned = ReplicationTrace {
        events: vec![promoted(0), promoted(1), promoted(2)],
        epochs: vec![2, 2, 2],
        bus_msgs: 27,
        bus_bytes: 52_182,
        link_events: vec![0, 0, 0],
        replicas: vec![(9, 0, 0), (9, 0, 0), (9, 0, 0)],
    };
    assert_eq!(runs[0], pinned, "the replication trace moved");
    let other = run_workload(300, 0xFEED_F00D).router.events();
    // Not a hard invariant of the design, but with distinct seeds the
    // replayed-artifact profile almost surely differs somewhere; if this
    // ever flakes the seeds happened to collide and may be changed.
    assert!(
        !other.is_empty(),
        "control run with a different seed must still fail over"
    );
}

/// A routed client session over a fresh cluster: `keys` loaded into
/// keyspace `name` and compacted. Returns the router, the keyspace, the
/// model holding it sealed, and the client's host ledger.
fn routed_session(
    cfg: ClusterConfig,
    name: &str,
    keys: &[Vec<u8>],
) -> (Arc<ClusterRouter>, Keyspace, Contract, Arc<IoLedger>) {
    let r = Arc::new(ClusterRouter::new(cfg));
    let host_ledger = Arc::new(IoLedger::new(r.config().shards, 4096));
    let db = KvCsd::connect(
        Arc::clone(&r) as Arc<dyn DeviceHandler>,
        Arc::clone(&host_ledger),
    );
    let mut model = Contract::default();
    let ks = db.create_keyspace(name).expect("create");
    model.create(name);
    for k in keys {
        let v = value_for(k, VALUE_LEN);
        ks.put(k, &v).expect("put");
        model.put(name, k, &v);
    }
    let job = ks.compact().expect("compact");
    while !job.is_terminal().expect("poll") {}
    model.seal(name);
    (r, ks, model, host_ledger)
}

#[test]
fn routed_client_sessions_ride_through_failover_with_fail_fast_redirects() {
    let keys: Vec<Vec<u8>> = (0..90u32)
        .map(|i| format!("rk{i:05}").into_bytes())
        .collect();
    let cfg = ClusterConfig {
        shards: SHARDS,
        ..ClusterConfig::default()
    };
    let (r, ks, mut model, host_ledger) = routed_session(cfg, "routed", &keys);
    // Cut power behind the router's back: the next routed command makes
    // the router discover the death, answer FailoverInProgress, and the
    // client's retry loop resends immediately to the promoted replica.
    r.shard_injector(0).power_off_now();
    for k in &keys {
        let got = found(ks.get(k)).unwrap();
        model.check_get("routed", k, got.as_deref());
    }
    assert_eq!(r.events().len(), 1, "exactly one promotion");
    assert!(
        host_ledger.custom("client_failover_redirects") >= 1,
        "the client must have taken the fail-fast redirect path"
    );
    let fenced = host_ledger.custom("client_fence_redirects");
    assert_eq!(fenced, 0, "fenced without a partition");
    // Scatter-gather through the client API too.
    let es = ks
        .range(Bound::Unbounded, Bound::Unbounded, None)
        .expect("range");
    model.check_scan("routed", &es);
}

#[test]
fn dead_unreplicated_shard_degrades_only_its_own_keyspace_ranges() {
    let keys: Vec<Vec<u8>> = (0..40u32)
        .flat_map(|i| [format!("a{i:04}"), format!("z{i:04}")])
        .map(String::into_bytes)
        .collect();
    let cfg = ClusterConfig {
        shards: 2,
        replicate: false,
        strategy: ShardStrategy::RangeKeys {
            boundaries: vec![b"m".to_vec()],
        },
        ..ClusterConfig::default()
    };
    let (r, ks, mut model, host_ledger) = routed_session(cfg, "split", &keys);
    r.kill_shard(1);
    assert_eq!(r.shard_health(1), ShardHealth::Dead);
    // The healthy half keeps serving: range pruned to shard 0 only.
    let (lo, hi) = (
        Bound::Included(b"a".to_vec()),
        Bound::Excluded(b"b".to_vec()),
    );
    let es = ks
        .range(lo.clone(), hi.clone(), None)
        .expect("low range must still work");
    model.check_range("split", &lo, &hi, None, &es);
    // The dead half fails with the typed, non-retryable-but-degraded
    // error — and the client classifies it as degraded, not fatal.
    let err = ks
        .range(Bound::Included(b"z".to_vec()), Bound::Unbounded, None)
        .expect_err("dead shard's range must fail");
    assert!(
        matches!(
            err,
            ClientError::Device(KvStatus::ShardUnavailable { shard: 1 })
                | ClientError::RetriesExhausted {
                    last: KvStatus::ShardUnavailable { shard: 1 },
                    ..
                }
        ),
        "unexpected error: {err:?}"
    );
    assert!(err.is_degraded() && !err.is_fatal());
    let fenced = host_ledger.custom("client_fence_redirects");
    assert_eq!(fenced, 0, "fenced without a partition");
}

#[test]
fn busy_shard_charges_latency_only_to_its_own_key_ranges() {
    // Tighten the admission gate so compaction debt on the loaded shard
    // charges visible slowdown latency to *its* virtual clock.
    let base = ClusterConfig::default();
    let mut f = fleet(ClusterConfig {
        shards: 2,
        strategy: ShardStrategy::RangeKeys {
            boundaries: vec![b"m".to_vec()],
        },
        device: DeviceConfig {
            admission: AdmissionConfig {
                debt_slowdown_bytes: 2 << 10,
                debt_stall_bytes: 1 << 20,
                debt_reject_bytes: 8 << 20,
                ..AdmissionConfig::default()
            },
            ..base.device
        },
        ..base
    });
    let r = Arc::clone(&f.router);
    let ks = f.create("skew");
    // All data lives below the boundary: shard 0 does real compaction
    // work (clock advances), shard 1 seals an empty keyspace (trivial).
    for i in 0..300u32 {
        f.put("skew", format!("a{i:06}").as_bytes()).expect("put");
    }
    assert!(f.compact_to_done("skew"), "compaction must finish");
    let busy = r.shard_clock(0).now_ns();
    let idle = r.shard_clock(1).now_ns();
    assert!(busy > 0, "loaded shard must have charged time");
    assert!(
        idle < busy / 10,
        "idle shard charged {idle} ns vs busy {busy} ns — stall isolation broken"
    );
    // Queries confined to the idle shard's range do not pay the busy
    // shard's latency: they never touch shard 0's clock or ledger.
    let ranges0 = r.shard_ledger(0).custom("dev_ranges");
    let clock0 = r.shard_clock(0).now_ns();
    let (lo, hi) = (Bound::Included(b"z".to_vec()), Bound::Unbounded);
    match r.handle(KvCommand::Range {
        ks,
        lo: lo.clone(),
        hi: hi.clone(),
        limit: None,
    }) {
        KvResponse::Entries(es) => f.model.check_range("skew", &lo, &hi, None, &es),
        other => panic!("{other:?}"),
    }
    assert_eq!(r.shard_ledger(0).custom("dev_ranges"), ranges0);
    assert_eq!(r.shard_clock(0).now_ns(), clock0);
    assert_eq!(f.fenced(), 0, "fenced without a partition");
}
