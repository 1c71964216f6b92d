//! Pipelined-ingest contract tests: acked-only durability of the write
//! accelerator across power cuts, out-of-order completion matching
//! under seeded device faults, and schedule determinism.
//!
//! The durability sweep cuts power at several flash-op positions while
//! the accelerator has a batch staged host-side and bulks in flight,
//! then reopens the device fault-free and asserts:
//!
//! * every pair covered by a successful `flush()` + `fsync()` is
//!   present byte-exact (acked-and-synced data is never lost);
//! * every *visible* pair recomputes from its key (nothing is ever torn
//!   or half-visible, staged batch or not);
//! * pairs the accelerator never reported durable may vanish freely.

use std::sync::Arc;

use kvcsd::device::{DeviceConfig, DeviceStack};
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::{DeviceHandler, JobState, KvCommand, KvResponse, KvStatus, QueuePair};
use kvcsd::sim::{FaultInjector, FaultPlan, VirtualClock};
use kvcsd_client::{ClientError, InflightWindow, KvCsd, RetryPolicy};

const PAIRS: u32 = 600;
const SYNC_EVERY: u32 = 150;

fn key_for(i: u32) -> Vec<u8> {
    format!("p{i:05}").into_bytes()
}

/// Value is a pure function of the key so a torn pair is caught by
/// recomputation.
fn value_for(key: &[u8]) -> Vec<u8> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for &b in key {
        x ^= b as u64;
        x = x.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (0..48)
        .map(|i| ((x >> ((i % 8) * 8)) as u8).wrapping_add(i as u8))
        .collect()
}

/// Minimal crash-recovery stack (the torture harness's skeleton).
struct Stack {
    stack: DeviceStack,
    inj: Arc<FaultInjector>,
    client: KvCsd,
}

impl Stack {
    fn new(plan: FaultPlan) -> Self {
        let mut stack = DeviceStack::new(
            FlashGeometry {
                channels: 8,
                blocks_per_channel: 256,
                pages_per_block: 16,
                page_bytes: 4096,
            },
            ZnsConfig {
                zone_blocks: 1,
                max_open_zones: 1 << 16,
            },
            DeviceConfig {
                cluster_width: 8,
                soc_dram_bytes: 8 << 20,
                seed: 11,
                wal: true,
                ..DeviceConfig::default()
            },
        );
        let client = connect(&stack);
        let inj = stack.arm(plan);
        Self { stack, inj, client }
    }

    /// Power-cycle after an injected cut: reopen from flash fault-free.
    fn crash(&mut self, err: &ClientError) {
        let expected = matches!(err, ClientError::Device(KvStatus::PowerLoss))
            || matches!(err, ClientError::RetriesExhausted { .. })
            || self.inj.is_powered_off();
        assert!(expected, "unexpected error under power-cut plan: {err:?}");
        self.stack
            .power_cycle()
            .expect("fault-free recovery must succeed");
        self.stack.device().run_pending_jobs();
        self.client = connect(&self.stack);
    }
}

fn connect(stack: &DeviceStack) -> KvCsd {
    KvCsd::connect(
        Arc::clone(stack.device()) as Arc<dyn DeviceHandler>,
        Arc::clone(stack.ledger()),
    )
}

/// One sweep member: accelerated ingest with a power cut at flash op
/// `cut_at`. Returns whether a crash actually fired.
fn run_power_cut(cut_at: u64, seed: u64) -> bool {
    let mut t = Stack::new(FaultPlan::power_cut_at(cut_at, seed));
    let name = "accel";
    let mut last_synced: i64 = -1;
    let crashed = 'attempt: {
        let ks = match t.client.create_keyspace(name) {
            Ok(ks) => ks,
            Err(e) => {
                t.crash(&e);
                break 'attempt true;
            }
        };
        // Small batches + shallow window so the cut lands with entries
        // staged host-side and bulks in flight.
        let accel = ks.write_accelerator().with_target_bytes(2048).with_depth(2);
        let mut i = 0u32;
        while i < PAIRS {
            let k = key_for(i);
            if let Err(e) = accel.put(&k, &value_for(&k)) {
                t.crash(&e);
                break 'attempt true;
            }
            i += 1;
            if i.is_multiple_of(SYNC_EVERY) {
                let synced = accel.flush().and_then(|_| ks.fsync().map(|_| ()));
                match synced {
                    Ok(()) => last_synced = i as i64 - 1,
                    Err(e) => {
                        t.crash(&e);
                        break 'attempt true;
                    }
                }
            }
        }
        match accel.flush().and_then(|_| ks.fsync().map(|_| ())) {
            Ok(()) => {
                last_synced = PAIRS as i64 - 1;
                false
            }
            Err(e) => {
                t.crash(&e);
                true
            }
        }
    };

    // Recovery contract. Point gets need a compacted keyspace, so the
    // survivors are sealed first (fault-free — the plan's single cut
    // has fired or is disarmed). If the cut predated keyspace creation
    // there is nothing to check; nothing was ever reported durable.
    t.stack.disarm();
    match t.client.open_keyspace(name) {
        Ok((ks, _)) => {
            let job = match ks.compact() {
                Ok(job) => job,
                Err(e) => {
                    assert!(last_synced < 0, "compact after recovery: {e:?}");
                    return crashed;
                }
            };
            loop {
                t.stack.device().run_pending_jobs();
                match job.poll().expect("poll recovery compaction") {
                    JobState::Done => break,
                    JobState::Failed(e) => panic!("recovery compaction failed: {e}"),
                    _ => {}
                }
            }
            for j in 0..PAIRS {
                let k = key_for(j);
                match ks.get(&k) {
                    Ok(v) => assert_eq!(
                        v,
                        value_for(&k),
                        "pair {j} is torn/half-visible after cut at {cut_at}"
                    ),
                    Err(ClientError::Device(KvStatus::KeyNotFound)) => assert!(
                        j as i64 > last_synced,
                        "acked+synced pair {j} lost after cut at {cut_at} (synced through {last_synced})"
                    ),
                    Err(e) => panic!("get after recovery: {e:?}"),
                }
            }
        }
        Err(_) => assert!(
            last_synced < 0,
            "keyspace with synced data vanished after cut at {cut_at}"
        ),
    }
    crashed
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

/// Pipelined window over a device with seeded transient faults: 200
/// puts submitted in order, claimed in *reverse*; each completion must
/// match its own command (retries included), and the data must land.
#[test]
fn out_of_order_completions_match_under_seeded_faults() {
    let mut plan = FaultPlan::none().with_error_prob(0.03);
    plan.seed = 9002;
    let t = Stack::new(plan);
    let clock = Arc::new(VirtualClock::new());
    let qp = QueuePair::new(
        Arc::clone(t.stack.device()) as Arc<dyn DeviceHandler>,
        Arc::clone(t.stack.ledger()),
    )
    .with_pipeline(Arc::clone(&clock), 16, 4, None);
    let win = InflightWindow::new(qp, RetryPolicy::default(), clock);
    let ks = match win.call(None, KvCommand::CreateKeyspace { name: "ooo".into() }) {
        Ok(KvResponse::Created { ks }) => ks,
        other => panic!("create: {other:?}"),
    };
    let mut ops = Vec::new();
    for i in 0..200u32 {
        let k = key_for(i);
        let v = value_for(&k);
        ops.push(win.submit(
            None,
            KvCommand::Put {
                ks,
                key: k,
                value: v,
            },
        ));
    }
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
            Ok(KvResponse::Value(v)) => assert_eq!(v, value_for(&k), "pair {i}"),
            other => panic!("get {i}: {other:?}"),
        }
    }
}

/// One seeded pipelined ingest run: returns (final virtual time, every
/// completion latency in claim order).
fn ingest_schedule(seed: u64) -> (u64, Vec<u64>) {
    let mut plan = FaultPlan::none().with_error_prob(0.02);
    plan.seed = seed;
    let t = Stack::new(plan);
    let clock = Arc::new(VirtualClock::new());
    let qp = QueuePair::new(
        Arc::clone(t.stack.device()) as Arc<dyn DeviceHandler>,
        Arc::clone(t.stack.ledger()),
    )
    .with_pipeline(Arc::clone(&clock), 16, 4, None);
    let win = InflightWindow::new(qp, RetryPolicy::default(), Arc::clone(&clock));
    match win.call(None, KvCommand::CreateKeyspace { name: "det".into() }) {
        Ok(KvResponse::Created { ks }) => {
            let mut ops = Vec::new();
            for i in 0..150u32 {
                let k = key_for(i);
                let v = value_for(&k);
                ops.push(win.submit(
                    None,
                    KvCommand::Put {
                        ks,
                        key: k,
                        value: v,
                    },
                ));
            }
            for op in ops {
                match win.wait(op) {
                    Ok(KvResponse::PutOk) => {}
                    other => panic!("put: {other:?}"),
                }
            }
        }
        other => panic!("create: {other:?}"),
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
