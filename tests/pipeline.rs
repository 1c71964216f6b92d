//! Pipelined-ingest contract tests: acked-only durability of the write
//! accelerator across power cuts, out-of-order completion matching
//! under seeded device faults, and schedule determinism.
//!
//! The durability sweep cuts power at several flash-op positions while
//! the accelerator has a batch staged host-side and bulks in flight,
//! then reopens the device fault-free and checks it against the
//! reference model (`tests/contract/mod.rs`): a pair is durable once a
//! `flush()` + `fsync()` covering it returned `Ok`.

mod contract;

use std::sync::Arc;

use contract::{found, value_for, CrashBed};
use kvcsd::proto::{DeviceHandler, JobState, KvCommand, KvResponse, QueuePair};
use kvcsd::sim::{FaultPlan, VirtualClock};
use kvcsd_client::{InflightWindow, OpId, RetryPolicy};

const PAIRS: u32 = 600;
const SYNC_EVERY: u32 = 150;
const VALUE_LEN: usize = 48;

fn key_for(i: u32) -> Vec<u8> {
    format!("p{i:05}").into_bytes()
}

/// One sweep member: accelerated ingest with a power cut at flash op
/// `cut_at`. Returns whether a crash actually fired.
fn run_power_cut(cut_at: u64, seed: u64) -> bool {
    let mut t = CrashBed::new(FaultPlan::power_cut_at(cut_at, seed));
    let name = "accel";
    'attempt: {
        let ks = match t.client.create_keyspace(name) {
            Ok(ks) => ks,
            Err(e) => {
                t.crash(&e);
                break 'attempt;
            }
        };
        t.model.create(name);
        // Small batches + shallow window so the cut lands with entries
        // staged host-side and bulks in flight.
        let accel = ks.write_accelerator().with_target_bytes(2048).with_depth(2);
        let synced = |t: &mut CrashBed| match accel.flush().and_then(|_| ks.fsync()) {
            Ok(()) => {
                t.model.sync(name);
                true
            }
            Err(e) => {
                t.crash(&e);
                false
            }
        };
        for i in 0..PAIRS {
            let k = key_for(i);
            let v = value_for(&k, VALUE_LEN);
            if let Err(e) = accel.put(&k, &v) {
                t.crash(&e);
                break 'attempt;
            }
            t.model.put(name, &k, &v);
            if (i + 1).is_multiple_of(SYNC_EVERY) && !synced(&mut t) {
                break 'attempt;
            }
        }
        synced(&mut t);
    }

    // Recovery contract. Point gets need a compacted keyspace, so the
    // survivors are sealed first (fault-free — the plan's single cut
    // has fired or is disarmed). If the cut predated keyspace creation
    // there is nothing to check; nothing was ever reported durable.
    t.stack.disarm();
    if let Some(ks) = t.settle(name) {
        for j in 0..PAIRS {
            let k = key_for(j);
            let got = found(ks.get(&k)).unwrap();
            t.model.check_get(name, &k, got.as_deref());
        }
        t.model.check_all(name, &ks);
    }
    t.crashes > 0
}

#[test]
fn power_cut_mid_staged_batch_sweep() {
    // The run costs ~23 flash ops (creation, then WAL pages per sync):
    // these positions land cuts in creation, mid-fsync and between
    // syncs while the accelerator holds staged pairs and pending acks.
    let mut crashes = 0;
    for (i, cut_at) in [2u64, 4, 7, 11, 15, 20].into_iter().enumerate() {
        if run_power_cut(cut_at, 4200 + i as u64) {
            crashes += 1;
        }
    }
    assert!(
        crashes >= 2,
        "sweep must actually exercise mid-batch cuts, got {crashes}"
    );
}

/// A pipelined window (depth 16, 4 in flight) over a fresh device with
/// seeded transient faults at `error_prob`, a keyspace `name` created
/// through it, and `n` puts submitted in key order.
fn submit_puts(
    error_prob: f64,
    seed: u64,
    name: &str,
    n: u32,
) -> (CrashBed, InflightWindow, Arc<VirtualClock>, u32, Vec<OpId>) {
    let mut plan = FaultPlan::none().with_error_prob(error_prob);
    plan.seed = seed;
    let t = CrashBed::new(plan);
    let clock = Arc::new(VirtualClock::new());
    let qp = QueuePair::new(
        Arc::clone(t.stack.device()) as Arc<dyn DeviceHandler>,
        Arc::clone(t.stack.ledger()),
    )
    .with_pipeline(Arc::clone(&clock), 16, 4, None);
    let win = InflightWindow::new(qp, RetryPolicy::default(), Arc::clone(&clock));
    let ks = match win.call(None, KvCommand::CreateKeyspace { name: name.into() }) {
        Ok(KvResponse::Created { ks }) => ks,
        other => panic!("create: {other:?}"),
    };
    let ops = (0..n)
        .map(|i| {
            let key = key_for(i);
            let value = value_for(&key, VALUE_LEN);
            win.submit(None, KvCommand::Put { ks, key, value })
        })
        .collect();
    (t, win, clock, ks, ops)
}

/// Pipelined window over a device with seeded transient faults: 200
/// puts submitted in order, claimed in *reverse*; each completion must
/// match its own command (retries included), and the data must land.
#[test]
fn out_of_order_completions_match_under_seeded_faults() {
    let (t, win, _, ks, ops) = submit_puts(0.03, 9002, "ooo", 200);
    for op in ops.into_iter().rev() {
        match win.wait(op) {
            Ok(KvResponse::PutOk) => {}
            other => panic!("put under faults: {other:?}"),
        }
    }
    // Every pair matched its own completion: the values must all be
    // present and byte-exact despite retries and reordering. Gets need
    // a compacted keyspace; seal fault-free.
    t.stack.disarm();
    let job = match win.call(None, KvCommand::Compact { ks }) {
        Ok(KvResponse::JobStarted { job }) => job,
        other => panic!("compact: {other:?}"),
    };
    loop {
        t.stack.device().run_pending_jobs();
        match win.call(None, KvCommand::PollJob { job }) {
            Ok(KvResponse::Job {
                state: JobState::Done,
            }) => break,
            Ok(KvResponse::Job {
                state: JobState::Failed(e),
            }) => panic!("compaction failed: {e}"),
            Ok(KvResponse::Job { .. }) => {}
            other => panic!("poll: {other:?}"),
        }
    }
    for i in 0..200u32 {
        let k = key_for(i);
        match win.call(None, KvCommand::Get { ks, key: k.clone() }) {
            Ok(KvResponse::Value(v)) => assert_eq!(v, value_for(&k, VALUE_LEN), "pair {i}"),
            other => panic!("get {i}: {other:?}"),
        }
    }
}

/// One seeded pipelined ingest run: returns (final virtual time, every
/// completion latency in claim order).
fn ingest_schedule(seed: u64) -> (u64, Vec<u64>) {
    let (_, win, clock, _, ops) = submit_puts(0.02, seed, "det", 150);
    for op in ops {
        match win.wait(op) {
            Ok(KvResponse::PutOk) => {}
            other => panic!("put: {other:?}"),
        }
    }
    (clock.now_ns(), win.completion_latencies())
}

#[test]
fn same_seed_yields_the_same_completion_schedule() {
    let a = ingest_schedule(1337);
    let b = ingest_schedule(1337);
    assert_eq!(a, b, "pipelined completion schedule must be deterministic");
    assert!(!a.1.is_empty() && a.0 > 0);
}
