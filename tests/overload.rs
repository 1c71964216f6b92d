//! End-to-end overload-control harness.
//!
//! Drives the client → device stack through seeded open-loop bursts with
//! deliberately tight admission watermarks and asserts the overload
//! contract of DESIGN.md §10:
//!
//! * write stalls engage at the high watermark and release below the low
//!   one (hysteresis: a clean engage → drain → release cycle, no flap);
//! * queries keep serving while writes are stalled;
//! * no deadline-carrying operation ever completes after its deadline;
//! * the same seed replays to the identical sequence of admission
//!   decisions, charges and counters;
//! * a device driven to space exhaustion degrades the victim keyspace to
//!   READ_ONLY instead of panicking, keeps every acknowledged pair, and
//!   recovers to COMPACTED once space is reclaimed — across power cycles.
//!
//! All waiting is simulated: stalls and retry backoff charge the shared
//! [`VirtualClock`], never a wall-clock sleep.
//!
//! The `fast_` tests are the CI subset (run alongside the torture subset
//! in the debug profile, lock-order detector armed); the rest ride in the
//! full `cargo test` sweep.

mod contract;

use std::sync::Arc;

use contract::{connect, found, value_for, Contract};

use kvcsd::device::{AdmissionConfig, DeviceConfig, DeviceStack};
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::{JobState, KeyspaceState, KvStatus};
use kvcsd::sim::{VirtualClock, XorShift64};
use kvcsd_client::{ClientError, KvCsd, RetryPolicy};

/// Tight watermarks so a few hundred small puts cross every band. DRAM
/// thresholds sit high enough that the 192 KiB ingest buffers never trip
/// them — in these tests pressure comes from compaction debt and the job
/// queue, which are exactly reproducible.
fn tight_admission() -> AdmissionConfig {
    AdmissionConfig {
        dram_high: 0.90,
        dram_low: 0.85,
        dram_reject: 0.97,
        max_pending_jobs: 2,
        debt_slowdown_bytes: 8 << 10,
        debt_stall_bytes: 32 << 10,
        debt_reject_bytes: 128 << 10,
        slowdown_ns: 1_000,
        stall_ns: 10_000,
    }
}

struct Bed {
    stack: DeviceStack,
    client: KvCsd,
    clock: Arc<VirtualClock>,
}

fn testbed(admission: AdmissionConfig, seed: u64) -> Bed {
    let clock = Arc::new(VirtualClock::new());
    let stack = DeviceStack::new(
        FlashGeometry {
            channels: 8,
            blocks_per_channel: 256,
            pages_per_block: 16,
            page_bytes: 4096,
        },
        ZnsConfig::default(),
        DeviceConfig {
            cluster_width: 8,
            soc_dram_bytes: 8 << 20,
            seed,
            admission,
            clock: Some(Arc::clone(&clock)),
            ..DeviceConfig::default()
        },
    );
    // No automatic retries: the harness wants to observe every raw
    // Stalled/Busy/DeadlineExceeded status the device hands back.
    let client = connect(&stack)
        .with_retry_policy(RetryPolicy::none())
        .with_clock(Arc::clone(&clock));
    Bed {
        stack,
        client,
        clock,
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:06}").into_bytes()
}

fn value(i: u32, len: usize) -> Vec<u8> {
    value_for(&key(i), len)
}

/// Stalls engage at the debt high watermark, persist while pressure stays
/// above the low one, and release once it drops — while queries keep
/// serving throughout. The CI fast path for tentpole property 1.
#[test]
fn fast_write_stalls_engage_and_release() {
    let bed = testbed(tight_admission(), 7);

    // A small compacted keyspace to prove reads survive the storm.
    let warm = bed.client.create_keyspace("warm").unwrap();
    for i in 0..8 {
        warm.put(&key(i), &value(i, 64)).unwrap();
    }
    warm.compact().unwrap();
    bed.stack.device().run_pending_jobs();
    assert_eq!(warm.get(&key(3)).unwrap(), value(3, 64));

    // Open-loop burst into one keyspace: 256 B values pile up compaction
    // debt until the stall band engages.
    let burst = bed.client.create_keyspace("burst").unwrap();
    let mut admitted = 0u32;
    let mut stalled = 0u32;
    for i in 0..1_000u32 {
        match burst.put(&key(i), &value(i, 256)) {
            Ok(()) => {
                assert_eq!(
                    stalled, 0,
                    "a write was admitted after the stall band engaged \
                     while debt kept rising"
                );
                admitted += 1;
            }
            Err(ClientError::Device(KvStatus::Stalled)) => stalled += 1,
            Err(e) => panic!("unexpected error under burst: {e:?}"),
        }
        if stalled >= 5 {
            break;
        }
    }
    assert!(
        admitted > 0 && stalled >= 5,
        "{admitted} ok / {stalled} stalled"
    );
    assert!(bed.stack.device().admission_gate().is_engaged());
    assert!(bed.stack.ledger().custom("dev_admission_stalls") >= u64::from(stalled));
    assert!(bed.stack.ledger().custom("dev_admission_slowdowns") > 0);
    // Stall time was charged to the virtual clock, never slept.
    let waited = bed.stack.ledger().custom("dev_admission_wait_ns");
    assert!(waited > 0);
    assert!(bed.clock.now_ns() >= waited);

    // Queries keep serving while the stall band is engaged.
    assert_eq!(warm.get(&key(3)).unwrap(), value(3, 64));

    // Drain: compact the debt-laden keyspace, then a write against a
    // zero-debt keyspace samples below the low watermark and releases.
    burst.compact().unwrap();
    bed.stack.device().run_pending_jobs();
    let fresh = bed.client.create_keyspace("fresh").unwrap();
    fresh.put(b"k", b"v").unwrap();
    assert!(
        !bed.stack.device().admission_gate().is_engaged(),
        "stall band must release once pressure drops below the low watermark"
    );
    // And the burst keyspace came out queryable: nothing admitted was lost.
    for i in 0..admitted {
        assert_eq!(burst.get(&key(i)).unwrap(), value(i, 256));
    }
}

/// The bounded job queue rejects work (writes and submissions both) with
/// `Busy` once full, and admits again after draining.
#[test]
fn fast_full_job_queue_rejects_then_drains() {
    let bed = testbed(tight_admission(), 11);
    let k1 = bed.client.create_keyspace("k1").unwrap();
    let k2 = bed.client.create_keyspace("k2").unwrap();
    let k3 = bed.client.create_keyspace("k3").unwrap();
    for ks in [&k1, &k2, &k3] {
        ks.put(b"a", b"1").unwrap();
    }
    // Fill the 2-slot queue without running anything.
    k1.compact().unwrap();
    k2.compact().unwrap();
    // Writes and further submissions now bounce with Busy.
    assert_eq!(
        k3.put(b"b", b"2").unwrap_err(),
        ClientError::Device(KvStatus::Busy)
    );
    assert_eq!(
        k3.compact().unwrap_err(),
        ClientError::Device(KvStatus::Busy)
    );
    assert!(bed.stack.ledger().custom("dev_admission_rejects") >= 2);
    // Busy is a back-off-and-retry signal, not a failure.
    assert!(ClientError::Device(KvStatus::Busy).is_retryable());
    // Drain the queue: the same commands are admitted again.
    bed.stack.device().run_pending_jobs();
    k3.put(b"b", b"2").unwrap();
    let job = k3.compact().unwrap();
    bed.stack.device().run_pending_jobs();
    assert_eq!(job.poll().unwrap(), JobState::Done);
}

/// Tentpole property 2, seeded open-loop: no deadline-carrying operation
/// ever completes after its deadline — expired budgets surface as
/// `DeadlineExceeded`, and every success lands strictly inside its budget.
#[test]
fn fast_deadlined_ops_never_complete_past_their_deadline() {
    let bed = testbed(tight_admission(), 13);
    let reads = bed.client.create_keyspace("reads").unwrap();
    for i in 0..16 {
        reads.put(&key(i), &value(i, 64)).unwrap();
    }
    reads.compact().unwrap();
    bed.stack.device().run_pending_jobs();
    let writes = bed.client.create_keyspace("writes").unwrap();

    let mut rng = XorShift64::new(0xDEAD);
    let (mut ok, mut expired, mut overloaded) = (0u32, 0u32, 0u32);
    for i in 0..400u32 {
        // Budgets straddle the slowdown (1 µs) and stall (10 µs) charges,
        // so some ops expire exactly because admission charged them.
        let budget = rng.next_below(20_000);
        let deadline = bed.clock.now_ns() + budget;
        let res = if rng.next_below(4) == 0 {
            reads.with_deadline(deadline).get(&key(i % 16)).map(drop)
        } else {
            writes.with_deadline(deadline).put(&key(i), &value(i, 200))
        };
        match res {
            Ok(()) => {
                ok += 1;
                assert!(
                    bed.clock.now_ns() < deadline,
                    "op {i} completed at {} ns, past its deadline {deadline} ns",
                    bed.clock.now_ns()
                );
            }
            Err(ClientError::Device(KvStatus::DeadlineExceeded)) => expired += 1,
            Err(ClientError::Device(KvStatus::Stalled | KvStatus::Busy)) => overloaded += 1,
            Err(e) => panic!("unexpected error: {e:?}"),
        }
        // Open loop: time marches on regardless of per-op outcomes.
        bed.clock.advance(rng.next_below(2_000));
    }
    assert!(ok > 0, "no deadlined op ever succeeded");
    assert!(expired > 0, "no deadline ever expired (budgets too lax)");
    assert!(ok + expired + overloaded == 400);
}

/// A compaction job whose deadline expires before it runs fails cleanly:
/// the keyspace lands in DEGRADED with its sealed logs intact, and a
/// fresh COMPACT without a deadline recovers every pair.
#[test]
fn expired_job_deadline_degrades_then_recovers() {
    let bed = testbed(AdmissionConfig::permissive(), 17);
    let ks = bed.client.create_keyspace("slow").unwrap();
    for i in 0..64 {
        ks.put(&key(i), &value(i, 128)).unwrap();
    }
    let job = ks
        .with_deadline(bed.clock.now_ns() + 500)
        .compact()
        .unwrap();
    bed.clock.advance(1_000); // the budget expires while the job queues
    bed.stack.device().run_pending_jobs();
    assert!(
        matches!(job.poll().unwrap(), JobState::Failed(_)),
        "expired job must fail, not silently complete"
    );
    let (_, state) = bed.client.open_keyspace("slow").unwrap();
    assert_eq!(state, KeyspaceState::Degraded);
    // Recovery: a fresh budget-free compact re-enters from the sealed logs.
    let retry = ks.compact().unwrap();
    bed.stack.device().run_pending_jobs();
    assert_eq!(retry.poll().unwrap(), JobState::Done);
    for i in 0..64 {
        assert_eq!(ks.get(&key(i)).unwrap(), value(i, 128));
    }
}

/// One seeded open-loop burst mixing puts, gets, compactions and
/// deadlines; returns everything observable about admission so runs can
/// be compared bit-for-bit.
fn run_burst(seed: u64) -> (Vec<u8>, [u64; 4], u64) {
    let bed = testbed(tight_admission(), seed);
    // One long-lived ingest keyspace piles up compaction debt (the stall
    // driver); throwaway keyspaces get compactions queued against them
    // without draining (the job-queue driver).
    let w = bed.client.create_keyspace("w").unwrap();
    let mut rng = XorShift64::new(seed ^ 0x5EED);
    let mut trace = Vec::with_capacity(600);
    for i in 0..600u32 {
        let res = match rng.next_below(16) {
            0 => (|| {
                let c = bed.client.create_keyspace(&format!("c{i}"))?;
                c.put(b"k", b"v")?;
                c.compact().map(drop)
            })(),
            1 => {
                bed.stack.device().run_pending_jobs();
                Ok(())
            }
            2 | 3 => w
                .with_deadline(bed.clock.now_ns() + rng.next_below(30_000))
                .put(&key(i), &value(i, 256 + rng.next_below(768) as usize)),
            _ => w.put(&key(i), &value(i, 256 + rng.next_below(768) as usize)),
        };
        trace.push(match res {
            Ok(()) => 0u8,
            Err(ClientError::Device(KvStatus::Stalled)) => 1,
            Err(ClientError::Device(KvStatus::Busy)) => 2,
            Err(ClientError::Device(KvStatus::DeadlineExceeded)) => 3,
            Err(ClientError::Device(KvStatus::BadKeyspaceState { .. })) => 4,
            Err(ClientError::Device(_)) => 5,
            Err(e) => panic!("unexpected error in burst: {e:?}"),
        });
        bed.clock.advance(rng.next_below(500));
    }
    let counters = [
        bed.stack.ledger().custom("dev_admission_slowdowns"),
        bed.stack.ledger().custom("dev_admission_stalls"),
        bed.stack.ledger().custom("dev_admission_rejects"),
        bed.stack.ledger().custom("dev_admission_wait_ns"),
    ];
    (trace, counters, bed.clock.now_ns())
}

/// Tentpole property 3: the same seed replays to identical admission
/// decisions, identical charges, and an identical final clock.
#[test]
fn fast_same_seed_same_admission_decisions() {
    let (t1, c1, end1) = run_burst(42);
    let (t2, c2, end2) = run_burst(42);
    assert_eq!(t1, t2, "admission decision traces diverged");
    assert_eq!(c1, c2, "admission counters diverged");
    assert_eq!(end1, end2, "final clocks diverged");
    // The burst actually exercised the machinery it replays.
    assert!(t1.contains(&1), "no stall in the burst");
    assert!(c1[0] > 0, "no slowdown in the burst");
}

/// Tentpole property 4: a device driven to space exhaustion degrades the
/// victim keyspace to READ_ONLY (typed, fail-fast writes; no panic; no
/// acknowledged pair lost), survives a power cycle in that state, and
/// recovers to COMPACTED once space is reclaimed.
#[test]
fn device_full_degrades_to_read_only_and_recovers() {
    // A deliberately tiny SSD: 2 channels x 16 blocks x 4 pages x 4 KiB
    // = 512 KiB raw, 32 single-block zones (2 reserved for metadata).
    let clock = Arc::new(VirtualClock::new());
    let mut stack = DeviceStack::new(
        FlashGeometry {
            channels: 2,
            blocks_per_channel: 16,
            pages_per_block: 4,
            page_bytes: 4096,
        },
        ZnsConfig {
            zone_blocks: 1,
            max_open_zones: 1 << 16,
        },
        DeviceConfig {
            cluster_width: 2,
            soc_dram_bytes: 8 << 20,
            seed: 19,
            admission: AdmissionConfig::permissive(),
            clock: Some(Arc::clone(&clock)),
            ..DeviceConfig::default()
        },
    );
    let ledger = Arc::clone(stack.ledger());
    let client = connect(&stack).with_retry_policy(RetryPolicy::none());

    // A filler keyspace eats most of the device; deleting it later is how
    // space gets reclaimed.
    let filler = client.create_keyspace("filler").unwrap();
    for i in 0..140u32 {
        filler
            .put(&key(i), &value(i, 2048))
            .expect("filler sized to fit");
    }

    // The victim ingests until the flash runs dry. Every acknowledged
    // pair is in the model — none may be lost.
    let mut model = Contract::default();
    let victim = client.create_keyspace("victim").unwrap();
    model.create("victim");
    let mut full_err = None;
    for i in 1000..3000u32 {
        let (k, v) = (key(i), value(i, 512));
        match victim.put(&k, &v) {
            Ok(()) => model.put("victim", &k, &v),
            Err(e) => {
                full_err = Some(e);
                break;
            }
        }
    }
    let full_err = full_err.expect("tiny device never filled up");
    assert!(
        full_err.is_degraded(),
        "exhaustion must surface as a degraded-mode error, got {full_err:?}"
    );

    // Graceful degradation: the victim froze to READ_ONLY — a durability
    // point for every acked pair — and further writes fail fast with a
    // typed state error.
    model.freeze("victim");
    let acked = model.durable("victim");
    assert!(!acked.is_empty(), "victim never ingested anything");
    let (_, state) = client.open_keyspace("victim").unwrap();
    model.check_state("victim", Some(state));
    let err = victim.put(b"late", b"write").unwrap_err();
    assert_eq!(
        err,
        ClientError::Device(KvStatus::BadKeyspaceState {
            state: "READ_ONLY",
            op: "put",
        })
    );
    assert!(err.is_degraded() && !err.is_fatal());
    assert!(ledger.custom("dev_keyspaces_readonly") >= 1);

    // The frozen state survives a power cycle: the seal was persisted.
    drop((client, filler, victim));
    model.power_cut();
    stack
        .power_cycle()
        .expect("reopen of a full device must succeed");
    let dev = stack.device();
    dev.run_pending_jobs();
    let client = connect(&stack).with_retry_policy(RetryPolicy::none());
    let (victim, state) = client.open_keyspace("victim").unwrap();
    model.check_state("victim", Some(state));

    // Reclaim space, then recover the victim through a fresh compaction.
    let (filler, _) = client.open_keyspace("filler").unwrap();
    filler.delete().unwrap();
    let job = victim.compact().unwrap();
    dev.run_pending_jobs();
    assert_eq!(
        job.poll().unwrap(),
        JobState::Done,
        "re-compaction after space reclaim must succeed"
    );
    model.seal("victim");
    let (_, state) = client.open_keyspace("victim").unwrap();
    model.check_state("victim", Some(state));
    model.check_all("victim", &victim);

    // And the recovery itself is durable: reopen once more and re-check.
    drop((client, victim));
    model.power_cut();
    stack.power_cycle().expect("second reopen must succeed");
    let dev = stack.device();
    dev.run_pending_jobs();
    let client = connect(&stack).with_retry_policy(RetryPolicy::none());
    let (victim, state) = client.open_keyspace("victim").unwrap();
    model.check_state("victim", Some(state));
    for k in acked.iter().take(8).chain(acked.iter().rev().take(8)) {
        let got = found(victim.get(k)).unwrap();
        model.check_get("victim", k, got.as_deref());
    }
}
