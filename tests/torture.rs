//! Crash-recovery torture harness.
//!
//! Drives the full client → device → flash stack (ingest with periodic
//! fsync, offloaded compaction, secondary-index build, point/range/sidx
//! queries) while a [`FaultPlan`] cuts power at every k-th flash
//! operation. After every cut the harness reopens the device from flash
//! and asserts the recovery contract:
//!
//! * data acknowledged by a successful `fsync` is never lost;
//! * data that was never synced may vanish, but can never be torn or
//!   half-visible (every surviving pair is byte-exact);
//! * every keyspace that reached COMPACTED stays queryable across any
//!   number of later crashes;
//! * the same plan seed over the same workload reproduces the identical
//!   failure schedule.
//!
//! The cut interval k is swept across a dozen values so cuts land in
//! every phase: metadata appends, WAL flushes, ingest, compaction sorts,
//! index builds, and reads.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use kvcsd::device::{DeviceConfig, DeviceStack};
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::{
    Bound, DeviceHandler, JobState, KeyspaceState, KvStatus, SecondaryIndexSpec, SecondaryKeyType,
};
use kvcsd::sim::{FaultEvent, FaultInjector, FaultPlan, XorShift64};
use kvcsd_client::{ClientError, Keyspace, KvCsd};

const ROUNDS: usize = 2;
const PAIRS: u32 = 220;
const SYNC_EVERY: u32 = 45;
/// Stop injecting new cuts after this many crashes so every run
/// terminates; the workload finishes fault-free past this point.
const MAX_CUTS: u64 = 60;

fn key_for(round: usize, attempt: u32, i: u32) -> Vec<u8> {
    format!("r{round}a{attempt:03}k{i:05}").into_bytes()
}

/// The value is a pure function of the key (32 bytes, trailing f32 for
/// the secondary index), so any torn or bit-damaged pair that becomes
/// visible is caught by recomputing it.
fn value_for(key: &[u8]) -> Vec<u8> {
    let mut x = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        x ^= b as u64;
        x = x.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut v = vec![0u8; 32];
    for (i, slot) in v.iter_mut().take(28).enumerate() {
        *slot = ((x >> ((i % 8) * 8)) as u8).wrapping_add(i as u8);
    }
    v[28..].copy_from_slice(&((((x >> 17) & 0xFFFF) as f32).to_le_bytes()));
    v
}

fn sidx_spec() -> SecondaryIndexSpec {
    SecondaryIndexSpec {
        name: "tail".into(),
        value_offset: 28,
        value_len: 4,
        key_type: SecondaryKeyType::F32,
    }
}

/// What one torture run observed, for cross-run comparisons.
#[derive(Debug, PartialEq)]
struct Report {
    crashes: u64,
    final_ops: u64,
    events: Vec<FaultEvent>,
    wal_replayed: u64,
    digest: u64,
}

struct Torture {
    stack: DeviceStack,
    inj: Arc<FaultInjector>,
    client: KvCsd,
    crashes: u64,
    /// Keyspaces that reached COMPACTED, with their full content.
    completed: Vec<(String, Pairs)>,
}

type Pairs = BTreeMap<Vec<u8>, Vec<u8>>;

fn connect(stack: &DeviceStack) -> KvCsd {
    KvCsd::connect(
        Arc::clone(stack.device()) as Arc<dyn DeviceHandler>,
        Arc::clone(stack.ledger()),
    )
}

impl Torture {
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
        Self {
            stack,
            inj,
            client,
            crashes: 0,
            completed: Vec::new(),
        }
    }

    fn rearm(&self) {
        if self.crashes < MAX_CUTS {
            self.stack.rearm();
        }
    }

    /// Handle an error from a client call. Under a pure power-cut plan the
    /// only expected failure is power loss; transient-noise plans may also
    /// exhaust the client's retry budget. Either way the harness treats it
    /// as a crash: reopen the device from flash, fault-free.
    fn crash(&mut self, err: &ClientError) {
        let expected = matches!(err, ClientError::Device(KvStatus::PowerLoss))
            || matches!(err, ClientError::RetriesExhausted { .. })
            || self.inj.is_powered_off();
        assert!(expected, "unexpected error under torture: {err:?}");
        self.recover();
    }

    /// Power-cycle: reopen the device from its persisted state with faults
    /// disarmed (recovery itself must succeed), re-run any re-enqueued
    /// jobs, and re-check that every COMPACTED keyspace survived.
    fn recover(&mut self) {
        self.crashes += 1;
        self.stack
            .power_cycle()
            .expect("fault-free recovery must succeed");
        self.stack.device().run_pending_jobs();
        self.client = connect(&self.stack);
        for (name, data) in &self.completed {
            let (ks, state) = self.client.open_keyspace(name).unwrap();
            assert_eq!(
                state,
                KeyspaceState::Compacted,
                "compacted keyspace {name} lost its state after crash {}",
                self.crashes
            );
            // Spot-check content; the full check happens in final_verify.
            if let Some((k, v)) = data.iter().next() {
                assert_eq!(&ks.get(k).unwrap(), v, "{name} lost {k:?}");
            }
            if let Some((k, v)) = data.iter().next_back() {
                assert_eq!(&ks.get(k).unwrap(), v, "{name} lost {k:?}");
            }
        }
    }

    fn open_session(&mut self, name: &str) -> (Keyspace, KeyspaceState) {
        loop {
            match self.client.open_keyspace(name) {
                Ok(x) => return x,
                Err(e) => {
                    self.crash(&e);
                    self.rearm();
                }
            }
        }
    }

    fn create(&mut self, name: &str) -> Keyspace {
        loop {
            match self.client.create_keyspace(name) {
                Ok(ks) => return ks,
                Err(ClientError::Device(KvStatus::KeyspaceExists)) => {
                    return self.open_session(name).0;
                }
                Err(e) => {
                    self.crash(&e);
                    self.rearm();
                }
            }
        }
    }

    /// Post-crash audit of an in-flight (never fully synced) keyspace:
    /// compact whatever survived, assert the recovery contract, then
    /// delete it so the next attempt starts clean. Runs fault-free.
    fn verify_and_abandon(
        &mut self,
        name: &str,
        synced: &BTreeMap<Vec<u8>, Vec<u8>>,
        strict_scan: bool,
    ) {
        let (ks, state) = self.client.open_keyspace(name).unwrap();
        if state == KeyspaceState::Empty {
            assert!(
                synced.is_empty(),
                "{name}: synced data lost — keyspace came back EMPTY"
            );
            ks.delete().unwrap();
            return;
        }
        if state != KeyspaceState::Compacted {
            let job = ks.compact().unwrap();
            self.stack.device().run_pending_jobs();
            assert_eq!(
                job.poll().unwrap(),
                JobState::Done,
                "{name}: fault-free compact failed"
            );
        }
        for (k, v) in synced {
            assert_eq!(
                &ks.get(k)
                    .unwrap_or_else(|e| panic!("{name}: synced pair {k:?} lost: {e}")),
                v,
                "{name}: synced pair {k:?} corrupted"
            );
        }
        let scan = ks.range(Bound::Unbounded, Bound::Unbounded, None).unwrap();
        let mut keys = BTreeSet::new();
        for (k, v) in &scan {
            assert_eq!(v, &value_for(k), "{name}: half-visible (torn) pair {k:?}");
            if strict_scan {
                assert!(keys.insert(k.clone()), "{name}: duplicate key {k:?}");
            } else {
                keys.insert(k.clone());
            }
        }
        for k in synced.keys() {
            assert!(
                keys.contains(k),
                "{name}: synced key {k:?} missing from scan"
            );
        }
        ks.delete().unwrap();
    }

    /// Drive the keyspace to COMPACTED under fire, surviving cuts that
    /// land during the seal, the sort, or the final persist.
    fn ensure_compacted(&mut self, name: &str) {
        for _ in 0..1000 {
            let (ks, state) = self.open_session(name);
            match state {
                KeyspaceState::Compacted => return,
                KeyspaceState::Compacting => {
                    self.stack.device().run_pending_jobs();
                    if self.inj.is_powered_off() {
                        self.recover();
                        self.rearm();
                    }
                }
                _ => match ks.compact() {
                    Ok(job) => {
                        self.stack.device().run_pending_jobs();
                        match job.poll() {
                            Ok(JobState::Done) => {}
                            Ok(JobState::Failed(_)) => {
                                if self.inj.is_powered_off() {
                                    self.recover();
                                    self.rearm();
                                } else {
                                    // Transient noise exhausted the device's
                                    // job retries; the designed outcome is a
                                    // DEGRADED keyspace that a fresh COMPACT
                                    // can re-enter — anything else is a bug.
                                    let (_, state) = self.open_session(name);
                                    assert_eq!(
                                        state,
                                        KeyspaceState::Degraded,
                                        "{name}: job failed without a power cut or DEGRADED state"
                                    );
                                }
                            }
                            Ok(_) => {}
                            Err(e) => {
                                self.crash(&e);
                                self.rearm();
                            }
                        }
                    }
                    // A cut between the seal and its persist can leave the
                    // keyspace COMPACTING in memory: just run the job.
                    Err(ClientError::Device(KvStatus::BadKeyspaceState { .. })) => {
                        self.stack.device().run_pending_jobs();
                    }
                    Err(e) => {
                        self.crash(&e);
                        self.rearm();
                    }
                },
            }
        }
        panic!("{name}: never reached COMPACTED");
    }

    /// Build the secondary index under fire.
    fn ensure_sidx(&mut self, name: &str) {
        for _ in 0..1000 {
            let (ks, _) = self.open_session(name);
            let done = match ks.stat() {
                Ok(st) => st.secondary_indexes.iter().any(|n| n == "tail"),
                Err(e) => {
                    self.crash(&e);
                    self.rearm();
                    continue;
                }
            };
            if done {
                return;
            }
            match ks.build_secondary_index(sidx_spec()) {
                Ok(job) => {
                    self.stack.device().run_pending_jobs();
                    match job.poll() {
                        Ok(JobState::Done) => {}
                        Ok(JobState::Failed(_)) => {
                            assert!(
                                self.inj.is_powered_off(),
                                "{name}: sidx build failed without a power cut"
                            );
                            self.recover();
                            self.rearm();
                        }
                        Ok(_) => {}
                        Err(e) => {
                            self.crash(&e);
                            self.rearm();
                        }
                    }
                }
                Err(e) => {
                    self.crash(&e);
                    self.rearm();
                }
            }
        }
        panic!("{name}: secondary index never built");
    }

    fn open_compacted(&mut self, name: &str) -> Keyspace {
        loop {
            let (ks, state) = self.open_session(name);
            if state == KeyspaceState::Compacted {
                return ks;
            }
            self.stack.device().run_pending_jobs();
            if self.inj.is_powered_off() {
                self.recover();
                self.rearm();
            }
        }
    }

    /// One round: ingest with periodic fsync, compact, index. A crash
    /// during ingest audits + abandons the keyspace and restarts the
    /// round under a fresh name (re-putting is the only way to know the
    /// content exactly, since unsynced pairs may legitimately be lost).
    fn run_round(&mut self, round: usize, strict_scan: bool) {
        let mut attempt = 0u32;
        'retry: loop {
            attempt += 1;
            assert!(attempt < 300, "round {round} livelocked");
            let name = format!("r{round}a{attempt:03}");
            let ks = self.create(&name);
            let mut all = BTreeMap::new();
            let mut synced = BTreeMap::new();
            let mut unsynced: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            for i in 0..PAIRS {
                let k = key_for(round, attempt, i);
                let v = value_for(&k);
                match ks.put(&k, &v) {
                    Ok(()) => {
                        unsynced.push((k.clone(), v.clone()));
                        all.insert(k, v);
                    }
                    Err(e) => {
                        self.crash(&e);
                        self.verify_and_abandon(&name, &synced, strict_scan);
                        self.rearm();
                        continue 'retry;
                    }
                }
                if (i + 1) % SYNC_EVERY == 0 || i + 1 == PAIRS {
                    match ks.fsync() {
                        Ok(()) => synced.extend(unsynced.drain(..)),
                        Err(e) => {
                            self.crash(&e);
                            self.verify_and_abandon(&name, &synced, strict_scan);
                            self.rearm();
                            continue 'retry;
                        }
                    }
                }
            }
            self.ensure_compacted(&name);
            self.ensure_sidx(&name);
            self.completed.push((name, all));
            return;
        }
    }

    /// Full-content check of every completed keyspace, still under fire:
    /// point gets, a full scan, and a sidx range, each crash-safe.
    fn final_verify(&mut self, strict_scan: bool) -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                digest ^= b as u64;
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (name, data) in self.completed.clone() {
            let mut ks = self.open_compacted(&name);
            let entries: Vec<_> = data.iter().collect();
            let mut i = 0;
            while i < entries.len() {
                match ks.get(entries[i].0) {
                    Ok(got) => {
                        assert_eq!(&got, entries[i].1, "{name}: {:?} corrupted", entries[i].0);
                        i += 1;
                    }
                    Err(e) => {
                        self.crash(&e);
                        self.rearm();
                        ks = self.open_compacted(&name);
                    }
                }
            }
            let scan = loop {
                match ks.range(Bound::Unbounded, Bound::Unbounded, None) {
                    Ok(s) => break s,
                    Err(e) => {
                        self.crash(&e);
                        self.rearm();
                        ks = self.open_compacted(&name);
                    }
                }
            };
            if strict_scan {
                let want: Vec<_> = data.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
                assert_eq!(scan, want, "{name}: scan diverged from ingested content");
            } else {
                for (k, v) in &scan {
                    assert_eq!(v, &value_for(k), "{name}: half-visible pair {k:?}");
                }
            }
            let hits = loop {
                match ks.sidx_range("tail", Bound::Unbounded, Bound::Unbounded, None) {
                    Ok(h) => break h,
                    Err(e) => {
                        self.crash(&e);
                        self.rearm();
                        ks = self.open_compacted(&name);
                    }
                }
            };
            if strict_scan {
                assert_eq!(hits.len(), data.len(), "{name}: sidx lost records");
            }
            for (k, v) in &hits {
                assert_eq!(v, &value_for(k), "{name}: sidx returned torn pair {k:?}");
            }
            for (k, v) in &scan {
                fold(k);
                fold(v);
            }
        }
        digest
    }
}

fn run_torture(plan: FaultPlan, strict_scan: bool) -> Report {
    let mut t = Torture::new(plan);
    for round in 0..ROUNDS {
        t.run_round(round, strict_scan);
    }
    let digest = t.final_verify(strict_scan);
    Report {
        crashes: t.crashes,
        final_ops: t.inj.ops(),
        events: t.inj.events(),
        wal_replayed: t.stack.ledger().custom("dev_wal_replayed_records"),
        digest,
    }
}

/// The tentpole sweep: power-cut every k-th flash op for a dozen k
/// values, so cuts land in every phase of the pipeline.
#[test]
fn power_cut_every_kth_op_sweep() {
    let ks = [
        25u64, 40, 45, 50, 60, 85, 120, 160, 220, 300, 400, 550, 700, 900,
    ];
    let mut crashed_runs = 0;
    let mut wal_replays = 0u64;
    for &k in &ks {
        let r = run_torture(FaultPlan::power_cut_every(k, 1000 + k), true);
        // The first cut is scheduled at absolute op k: if the run counted
        // past it with the injector armed, the cut must have fired.
        if r.final_ops >= k {
            assert!(
                r.crashes >= 1,
                "k={k}: op counter passed the cut without firing"
            );
        }
        assert_eq!(
            r.crashes.min(MAX_CUTS),
            r.events.len() as u64,
            "k={k}: every crash must be an audited injector event"
        );
        crashed_runs += (r.crashes > 0) as u32;
        wal_replays += r.wal_replayed;
    }
    // Small k values crash many times; the sweep as a whole must have
    // actually tortured the stack and exercised WAL replay.
    assert!(
        crashed_runs >= 8,
        "only {crashed_runs} of {} runs crashed",
        ks.len()
    );
    assert!(
        wal_replays > 0,
        "no run ever replayed WAL records after a cut"
    );
}

/// Scheduled single cuts at the N-th flash op: fires at most once, and
/// exactly once whenever the workload reaches op N.
#[test]
fn power_cut_at_nth_op() {
    for n in [10u64, 35, 75, 140, 260, 500] {
        let r = run_torture(FaultPlan::power_cut_at(n, 7), true);
        assert!(
            r.crashes <= 1,
            "n={n}: single-cut plan crashed {} times",
            r.crashes
        );
        if r.final_ops >= n {
            assert_eq!(r.crashes, 1, "n={n}: cut never fired");
        }
    }
}

/// Determinism: the same seed over the same workload reproduces the
/// identical failure schedule, crash count, and final content.
#[test]
fn same_seed_reproduces_identical_failure_schedule() {
    let a = run_torture(FaultPlan::power_cut_every(70, 42), true);
    let b = run_torture(FaultPlan::power_cut_every(70, 42), true);
    assert_eq!(a.events, b.events, "failure schedules diverged");
    assert_eq!(a.crashes, b.crashes);
    assert_eq!(a.final_ops, b.final_ops);
    assert_eq!(a.digest, b.digest, "recovered content diverged");
    assert!(
        a.crashes >= 2,
        "expected several cuts at k=70, got {}",
        a.crashes
    );
}

/// Power cuts layered with transient read/program noise: the client's
/// retry policy absorbs the noise, and the recovery contract still holds.
/// (Scan equality is relaxed: a retried put whose WAL record landed twice
/// legitimately yields duplicate identical pairs.)
#[test]
fn power_cuts_with_transient_noise() {
    // 0.002/op keeps multi-hundred-op compaction jobs viable: at 0.02 a
    // job run fails with near-certainty and the device degrades every
    // keyspace instead of ever finishing.
    let plan = FaultPlan::power_cut_every(120, 9).with_error_prob(0.002);
    let r = run_torture(plan, false);
    assert!(r.crashes >= 1, "no cut fired");
    assert!(
        r.events
            .iter()
            .any(|e| e.kind == kvcsd::sim::fault::FaultKind::Transient),
        "noise plan injected no transient errors"
    );
}

/// How one keyspace of the per-op sweeps is loaded.
#[derive(Clone, Copy, Debug)]
enum Ingest {
    /// Shuffled keys through the write accelerator, flushed every 150
    /// pairs: each flush ships one key-sorted bulk, so KLOG holds two
    /// natural runs and compaction merges them.
    Accelerated,
    /// Shuffled keys as single PUTs: KLOG is in arrival order and
    /// compaction takes the sort pipeline.
    SinglePuts,
}

const SWEEP_PAIRS: u32 = 300;

/// The sweep's keys in a fixed shuffled order.
fn sweep_keys() -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = (0..SWEEP_PAIRS)
        .map(|i| format!("sweep{i:05}").into_bytes())
        .collect();
    let mut rng = XorShift64::new(0x5EEB);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    keys
}

/// Load and fsync the sweep keyspace fault-free; returns its content.
fn load_synced(t: &Torture, how: Ingest) -> Pairs {
    let ks = t.client.create_keyspace("sweep").unwrap();
    let mut data = Pairs::new();
    let accel = ks.write_accelerator();
    for (i, k) in sweep_keys().into_iter().enumerate() {
        let v = value_for(&k);
        match how {
            Ingest::Accelerated => {
                accel.put(&k, &v).unwrap();
                if (i + 1) % 150 == 0 {
                    accel.flush().unwrap();
                }
            }
            Ingest::SinglePuts => ks.put(&k, &v).unwrap(),
        }
        data.insert(k, v);
    }
    accel.flush().unwrap();
    ks.fsync().unwrap();
    data
}

/// Reopen after a cut, finish the compaction fault-free, and check that
/// every fsynced pair survived byte-exact with nothing else visible.
fn recover_and_check(t: &mut Torture, data: &Pairs, what: &str) {
    t.recover();
    let (ks, state) = t.client.open_keyspace("sweep").unwrap();
    if state != KeyspaceState::Compacted {
        let job = ks
            .compact()
            .unwrap_or_else(|e| panic!("{what}: re-compact from {state:?}: {e}"));
        t.stack.device().run_pending_jobs();
        assert_eq!(
            job.poll().unwrap(),
            JobState::Done,
            "{what}: from {state:?}"
        );
    }
    let scan = ks.range(Bound::Unbounded, Bound::Unbounded, None).unwrap();
    let want: Vec<_> = data.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert!(scan == want, "{what}: scan diverged from the fsynced pairs");
    for (k, v) in data.iter().step_by(37) {
        assert_eq!(&ks.get(k).unwrap(), v, "{what}: {k:?}");
    }
}

/// Cut power at every flash op of one compaction, on both compaction
/// paths. Each cut is a fresh device loaded identically, so op `m` of
/// the compaction is the same op every time; after reopen, every
/// fsynced pair must be there and the keyspace must compact again.
#[test]
fn power_cut_at_every_op_of_one_compaction() {
    for (how, run_merges) in [(Ingest::Accelerated, 1), (Ingest::SinglePuts, 0)] {
        // A fault-free run counts the compaction's flash ops.
        let t = Torture::new(FaultPlan::none());
        load_synced(&t, how);
        let start = t.inj.ops();
        let (ks, _) = t.client.open_keyspace("sweep").unwrap();
        let job = ks.compact().unwrap();
        t.stack.device().run_pending_jobs();
        assert_eq!(job.poll().unwrap(), JobState::Done);
        let ops = t.inj.ops() - start;
        assert_eq!(
            t.stack.ledger().custom("dev_run_merge_compactions"),
            run_merges,
            "{how:?} took the wrong path"
        );
        assert!(ops > 10, "{how:?}: {ops} ops");

        for m in 1..=ops {
            let what = format!("{how:?}, cut at op {m} of {ops}");
            let mut t = Torture::new(FaultPlan::power_cut_at(start + m, m));
            let data = load_synced(&t, how);
            assert_eq!(t.inj.ops(), start, "{what}: load is not deterministic");
            let (ks, _) = t.client.open_keyspace("sweep").unwrap();
            if ks.compact().is_ok() {
                t.stack.device().run_pending_jobs();
            }
            assert!(t.inj.is_powered_off(), "{what}: the cut never fired");
            recover_and_check(&mut t, &data, &what);
        }
    }
}

/// Cut power right after the m-th fsync of a single-PUT ingest: reopen
/// must replay exactly the synced WAL records, and they must all be
/// there after compaction.
#[test]
fn power_cut_after_mth_fsync_replays_the_wal() {
    const EVERY: u32 = 40;
    for m in 1..=SWEEP_PAIRS / EVERY {
        let mut t = Torture::new(FaultPlan::none());
        let ks = t.client.create_keyspace("sweep").unwrap();
        let mut data = Pairs::new();
        for k in sweep_keys().into_iter().take((m * EVERY) as usize) {
            let v = value_for(&k);
            ks.put(&k, &v).unwrap();
            data.insert(k, v);
        }
        ks.fsync().unwrap();
        t.inj.power_off_now();
        recover_and_check(&mut t, &data, &format!("cut after fsync {m}"));
        assert_eq!(
            t.stack.ledger().custom("dev_wal_replayed_records"),
            (m * EVERY) as u64,
            "fsync {m}"
        );
    }
}

/// Cut power at every flash op of a DELETE of a compacted keyspace:
/// after reopen the keyspace is either gone or whole, and a fault-free
/// delete then reclaims it.
#[test]
fn power_cut_at_every_op_of_a_delete() {
    let compacted = |plan: FaultPlan| {
        let t = Torture::new(plan);
        let data = load_synced(&t, Ingest::Accelerated);
        let (ks, _) = t.client.open_keyspace("sweep").unwrap();
        let job = ks.compact().unwrap();
        t.stack.device().run_pending_jobs();
        assert_eq!(job.poll().unwrap(), JobState::Done);
        (t, ks, data)
    };
    let (t, ks, _) = compacted(FaultPlan::none());
    let start = t.inj.ops();
    ks.delete().unwrap();
    let ops = t.inj.ops() - start;
    assert!(ops > 2, "{ops} ops");

    for m in 1..=ops {
        let (mut t, ks, data) = compacted(FaultPlan::power_cut_at(start + m, m));
        assert!(ks.delete().is_err(), "cut at op {m} of {ops} did not fail");
        t.recover();
        match t.client.open_keyspace("sweep") {
            Ok((ks, state)) => {
                assert_eq!(state, KeyspaceState::Compacted, "cut at op {m}");
                let scan = ks.range(Bound::Unbounded, Bound::Unbounded, None).unwrap();
                let want: Vec<_> = data.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                assert!(scan == want, "cut at op {m}: keyspace came back damaged");
                ks.delete().unwrap();
            }
            Err(e) => assert!(
                matches!(e, ClientError::Device(KvStatus::KeyspaceNotFound)),
                "cut at op {m}: {e:?}"
            ),
        }
        assert_eq!(
            t.stack.device().zone_manager().cluster_count(),
            0,
            "cut at op {m}"
        );
    }
}
