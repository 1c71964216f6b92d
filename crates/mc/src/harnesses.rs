//! The checked harnesses: small closures over real product types whose
//! invariants the explorer verifies across **every** interleaving
//! (within the configured budgets), not just the ones a torture run
//! happens to sample.
//!
//! Each harness has a `*_body` function (the closure the explorer runs
//! once per schedule — also what a replay needs) and a report-returning
//! wrapper that names it. Bodies construct all state internally and
//! touch shared state only through the `kvcsd_sim::sync` shims, so every
//! cross-thread interaction is a scheduling point.

use std::sync::Arc;

use kvcsd_client::{InflightWindow, RetryPolicy};
use kvcsd_cluster::shard::HealthCell;
use kvcsd_cluster::ReplicaLog;
use kvcsd_core::{
    AdmissionConfig, AdmissionGate, ArtifactPayload, Decision, KeyspaceArtifacts, PressureSample,
};
use kvcsd_proto::{DeviceHandler, KvCommand, KvResponse, QueuePair};
use kvcsd_sim::sync::{spawn, Mutex, Shared};
use kvcsd_sim::{BusConfig, BusResource, IoLedger, VirtualClock};

use crate::{check, McConfig, McReport, Trace};

/// Three failover detectors race [`HealthCell::begin_failover`] — the
/// compare-and-swap every promotion decision gates on. Exactly one must
/// win under every interleaving; two winners would mean two promotions
/// for one dead primary.
pub fn health_promotion_body() {
    let cell = Arc::new(HealthCell::new());
    let detectors: Vec<_> = (0..3)
        .map(|_| {
            let cell = Arc::clone(&cell);
            spawn(move || cell.begin_failover())
        })
        .collect();
    let mut winners = 0;
    for d in detectors {
        if d.join().unwrap_or(false) {
            winners += 1;
        }
    }
    assert_eq!(
        winners, 1,
        "exactly one failover detector must win the CAS, got {winners}"
    );
}

pub fn health_promotion(cfg: &McConfig) -> McReport {
    check("health-promotion", cfg, health_promotion_body)
}

/// Two writers hit the [`AdmissionGate`] concurrently: one sample above
/// the high watermark (engages the stall band), one between the
/// watermarks (outcome depends on whether it observes the engaged
/// flag). Every interleaving must yield a decision legal for its band,
/// and the gate must end engaged — the mid sample can never release it.
pub fn admission_bands_body() {
    let gate = Arc::new(AdmissionGate::new(AdmissionConfig::default()));
    let high = PressureSample {
        dram_usage: 0.90,
        pending_jobs: 0,
        compaction_debt: 0,
    };
    let mid = PressureSample {
        dram_usage: 0.70,
        pending_jobs: 0,
        compaction_debt: 0,
    };
    let g = Arc::clone(&gate);
    let t_high = spawn(move || g.admit_write(&high));
    let g = Arc::clone(&gate);
    let t_mid = spawn(move || g.admit_write(&mid));
    let d_high = t_high.join().unwrap_or(Decision::Admit);
    let d_mid = t_mid.join().unwrap_or(Decision::Admit);
    assert!(
        matches!(d_high, Decision::Stall { .. }),
        "a sample above the high watermark must stall, got {d_high:?}"
    );
    assert!(
        matches!(d_mid, Decision::Slowdown { .. } | Decision::Stall { .. }),
        "a between-watermarks sample slows down (gate not yet engaged) or stalls \
         (observed the engaged flag), got {d_mid:?}"
    );
    assert!(
        gate.is_engaged(),
        "the stall band must stay engaged: only a below-low sample may release it"
    );
}

pub fn admission_bands(cfg: &McConfig) -> McReport {
    check("admission-bands", cfg, admission_bands_body)
}

fn artifacts(pairs: u64) -> KeyspaceArtifacts {
    KeyspaceArtifacts {
        name: "ks".to_string(),
        pairs,
        data_bytes: pairs * 16,
        min_key: Some(vec![0]),
        max_key: Some(vec![0xFF]),
        payload: ArtifactPayload::SealedLogs {
            klog: vec![0u8; 32],
            vlog: vec![0u8; 64],
        },
    }
}

/// Two primaries-of-the-moment ship the same keyspace concurrently over
/// a clean bus. Sequence numbers come from a shared counter and the
/// receiver applies highest-seq-wins, so across every interleaving the
/// two ships must land as exactly one acceptance plus one duplicate, or
/// two acceptances in seq order — never a lost or doubly-applied state.
pub fn replica_dedup_body() {
    let ledger = Arc::new(IoLedger::new(1, 4096));
    let bus = BusResource::new(BusConfig::default(), ledger);
    let log = Arc::new(ReplicaLog::new(0, bus, Arc::new(VirtualClock::new())));
    let a = Arc::clone(&log);
    let t1 = spawn(move || {
        let _ = a.ship("ks", artifacts(1), 1);
    });
    let b = Arc::clone(&log);
    let t2 = spawn(move || {
        let _ = b.ship("ks", artifacts(2), 1);
    });
    let _ = t1.join();
    let _ = t2.join();
    let accepted = log.accepted();
    let duplicates = log.duplicates();
    assert_eq!(
        accepted + duplicates,
        2,
        "both ships must be classified (accepted {accepted} + duplicates {duplicates})"
    );
    assert!(accepted >= 1, "at least the winning ship must apply");
    let latest = log.latest_per_keyspace();
    assert_eq!(latest.len(), 1, "one keyspace, one surviving artifact");
    assert_eq!(log.applied_epoch(), 1);
}

pub fn replica_dedup(cfg: &McConfig) -> McReport {
    check("replica-dedup", cfg, replica_dedup_body)
}

/// The seeded-racy fixture: two threads do a read-modify-write through
/// self-synchronized `Shared::get`/`set`, which is atomic per access but
/// not across the pair. The happens-before race detector stays quiet
/// (every access is synchronized); only schedule enumeration exposes the
/// lost update. The explorer must find the interleaving where both
/// threads read the same snapshot.
pub fn racy_increment_body() {
    let counter = Arc::new(Shared::new(0u32));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let counter = Arc::clone(&counter);
            spawn(move || {
                let v = counter.get();
                counter.set(v + 1);
            })
        })
        .collect();
    for w in workers {
        let _ = w.join();
    }
    assert_eq!(
        counter.get(),
        2,
        "lost update: both increments read the same snapshot"
    );
}

pub fn racy_increment(cfg: &McConfig) -> McReport {
    check("racy-increment", cfg, racy_increment_body)
}

/// Replay a recorded `racy-increment` counterexample.
pub fn racy_increment_replay(trace: &Trace) -> McReport {
    crate::replay(trace, racy_increment_body)
}

/// Three threads, two locks: t1 and t2 contend on lock A while t3 works
/// alone on lock B. t3's steps commute with everything, so DPOR must
/// explore strictly fewer schedules than the naive DFS while reaching
/// the same verdict — the measurable reduction test.
pub fn three_locks_body() {
    let a = Arc::new(Mutex::new(0u32));
    let b = Arc::new(Mutex::new(0u32));
    let a1 = Arc::clone(&a);
    let t1 = spawn(move || *a1.lock() += 1);
    let a2 = Arc::clone(&a);
    let t2 = spawn(move || *a2.lock() += 1);
    let b3 = Arc::clone(&b);
    let t3 = spawn(move || *b3.lock() += 1);
    let _ = t1.join();
    let _ = t2.join();
    let _ = t3.join();
    assert_eq!(*a.lock(), 2);
    assert_eq!(*b.lock(), 1);
}

pub fn three_locks(cfg: &McConfig) -> McReport {
    check("three-locks", cfg, three_locks_body)
}

/// Echo device: a `Get` completes with its own key as the value, so a
/// completion routed to the wrong in-flight op is self-evident.
struct EchoDevice;

impl DeviceHandler for EchoDevice {
    fn handle(&self, cmd: KvCommand) -> KvResponse {
        match cmd {
            KvCommand::Get { key, .. } => KvResponse::Value(key),
            _ => KvResponse::PutOk,
        }
    }
}

/// Two threads share one [`InflightWindow`] and each submit + wait one
/// op with a distinct key. Under every interleaving, each thread must
/// claim exactly its own completion (a thread's `wait` may drain —
/// *pump* — the other's completion into the done map, never steal it),
/// and both threads must terminate: the submit/poll critical section
/// must be deadlock-free and the wait loop bounded.
pub fn window_matching_body() {
    let qp = QueuePair::new(Arc::new(EchoDevice), Arc::new(IoLedger::new(1, 4096)));
    let win = Arc::new(InflightWindow::new(
        qp,
        RetryPolicy::none(),
        Arc::new(VirtualClock::new()),
    ));
    let threads: Vec<_> = (0..2u8)
        .map(|i| {
            let win = Arc::clone(&win);
            spawn(move || {
                let key = vec![i];
                let op = win.submit(
                    None,
                    KvCommand::Get {
                        ks: 0,
                        key: key.clone(),
                    },
                );
                match win.wait(op) {
                    Ok(KvResponse::Value(v)) => {
                        assert_eq!(v, key, "completion matched to the wrong op")
                    }
                    other => panic!("wait: {other:?}"),
                }
            })
        })
        .collect();
    for t in threads {
        let _ = t.join();
    }
    assert_eq!(win.inflight_len(), 0, "no orphaned ops after both claims");
}

pub fn window_matching(cfg: &McConfig) -> McReport {
    check("window-matching", cfg, window_matching_body)
}
