//! Crash-recovery torture harness.
//!
//! Drives the full client → device → flash stack (ingest with periodic
//! fsync, offloaded compaction, secondary-index build, point/range/sidx
//! queries) while a [`FaultPlan`] cuts power at every k-th flash
//! operation. After every cut the harness reopens the device from flash
//! and checks it against the reference model (`tests/contract/mod.rs`);
//! the same plan seed over the same workload must reproduce the
//! identical failure schedule.
//!
//! The cut interval k is swept across a dozen values so cuts land in
//! every phase: metadata appends, WAL flushes, ingest, compaction sorts,
//! index builds, and reads.

mod contract;

use contract::{fnv1a, found, tail_index, value_for, CrashBed, FNV_OFFSET};
use kvcsd::proto::{Bound, JobState, KeyspaceState, KvStatus};
use kvcsd::sim::{FaultEvent, FaultPlan, XorShift64};
use kvcsd_client::{ClientError, Job, Keyspace, KvCsd};

const ROUNDS: usize = 2;
const PAIRS: u32 = 220;
const SYNC_EVERY: u32 = 45;
/// Values carry the secondary index's trailing f32.
const VALUE_LEN: usize = 32;
/// Stop injecting new cuts after this many crashes so every run
/// terminates; the workload finishes fault-free past this point.
const MAX_CUTS: u64 = 60;

fn key_for(round: usize, attempt: u32, i: u32) -> Vec<u8> {
    format!("r{round}a{attempt:03}k{i:05}").into_bytes()
}

/// What one torture run observed, for cross-run comparisons.
#[derive(Debug, PartialEq)]
struct Report {
    crashes: u64,
    final_ops: u64,
    events: Vec<FaultEvent>,
    wal_replayed: u64,
    client_retries: u64,
    digest: u64,
}

struct Torture {
    bed: CrashBed,
    /// Keyspaces that reached COMPACTED with their index built.
    completed: Vec<String>,
}

impl Torture {
    fn rearm(&self) {
        if self.bed.crashes < MAX_CUTS {
            self.bed.stack.rearm();
        }
    }

    /// Crash on `err`, then resume the cut schedule.
    fn cut(&mut self, err: &ClientError) {
        self.bed.crash(err);
        self.check_completed();
        self.rearm();
    }

    /// Power-cycle after a cut that surfaced as a failed job, then resume
    /// the cut schedule.
    fn reboot(&mut self) {
        self.bed.recover();
        self.check_completed();
        self.rearm();
    }

    /// Run `op` on the client until it succeeds, crashing on every error.
    fn retry<T>(&mut self, mut op: impl FnMut(&KvCsd) -> Result<T, ClientError>) -> T {
        loop {
            match op(&self.bed.client) {
                Ok(x) => return x,
                Err(e) => self.cut(&e),
            }
        }
    }

    /// After a power cycle, spot-check that every completed keyspace
    /// survived; the full check happens in final_verify.
    fn check_completed(&mut self) {
        let model = &mut self.bed.model;
        for name in &self.completed {
            let (ks, state) = self.bed.client.open_keyspace(name).unwrap();
            model.check_state(name, Some(state));
            let durable = model.durable(name);
            for k in durable.first().into_iter().chain(durable.last()) {
                let got = found(ks.get(k)).unwrap();
                model.check_get(name, k, got.as_deref());
            }
        }
    }

    fn open_session(&mut self, name: &str) -> (Keyspace, KeyspaceState) {
        self.retry(|c| c.open_keyspace(name))
    }

    fn create(&mut self, name: &str) -> Keyspace {
        let ks = self.retry(|c| match c.create_keyspace(name) {
            Err(ClientError::Device(KvStatus::KeyspaceExists)) => Ok(None),
            other => other.map(Some),
        });
        self.bed.model.create(name);
        ks.unwrap_or_else(|| self.open_session(name).0)
    }

    /// Crash on `err` mid-ingest and audit the in-flight (never fully
    /// synced) keyspace: compact whatever survived, check it against the
    /// model, then delete it so the next attempt starts clean. The audit
    /// runs fault-free; the cut schedule resumes after it.
    fn abandon(&mut self, err: &ClientError, name: &str) {
        self.bed.crash(err);
        self.check_completed();
        if let Some(ks) = self.bed.settle(name) {
            self.bed.model.check_all(name, &ks);
            ks.delete().unwrap();
            self.bed.model.delete(name);
        }
        self.rearm();
    }

    /// Run a submitted job under fire. A cut that kills it power-cycles;
    /// otherwise the job's final state.
    fn run_job(&mut self, job: Result<Job, ClientError>) -> Option<JobState> {
        let Ok(job) = job.inspect_err(|e| self.cut(e)) else {
            return None;
        };
        self.bed.stack.device().run_pending_jobs();
        match job.poll() {
            Ok(JobState::Failed(_)) if self.bed.inj.is_powered_off() => {
                self.reboot();
                None
            }
            Ok(state) => Some(state),
            Err(e) => {
                self.cut(&e);
                None
            }
        }
    }

    /// Drive the keyspace to COMPACTED under fire, surviving cuts that
    /// land during the seal, the sort, or the final persist.
    fn ensure_compacted(&mut self, name: &str) {
        for _ in 0..1000 {
            let (ks, state) = self.open_session(name);
            match state {
                KeyspaceState::Compacted => {
                    self.bed.model.seal(name);
                    return;
                }
                KeyspaceState::Compacting => {
                    self.bed.stack.device().run_pending_jobs();
                    if self.bed.inj.is_powered_off() {
                        self.reboot();
                    }
                }
                _ => match ks.compact() {
                    // A cut between the seal and its persist can leave the
                    // keyspace COMPACTING in memory: just run the job.
                    Err(ClientError::Device(KvStatus::BadKeyspaceState { .. })) => {
                        self.bed.stack.device().run_pending_jobs();
                    }
                    job => {
                        if let Some(JobState::Failed(_)) = self.run_job(job) {
                            // Transient noise exhausted the device's job
                            // retries; the designed outcome is a DEGRADED
                            // keyspace that a fresh COMPACT can re-enter —
                            // anything else is a bug.
                            let (_, state) = self.open_session(name);
                            assert_eq!(
                                state,
                                KeyspaceState::Degraded,
                                "{name}: job failed without a power cut or DEGRADED state"
                            );
                        }
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
            match ks.stat() {
                Ok(st) if st.secondary_indexes.iter().any(|n| n == "tail") => return,
                Ok(_) => {
                    let state = self.run_job(ks.build_secondary_index(tail_index(VALUE_LEN)));
                    assert!(
                        !matches!(state, Some(JobState::Failed(_))),
                        "{name}: sidx build failed without a power cut"
                    );
                }
                Err(e) => self.cut(&e),
            }
        }
        panic!("{name}: secondary index never built");
    }

    /// One round: ingest with periodic fsync, compact, index. A crash
    /// during ingest audits + abandons the keyspace and restarts the
    /// round under a fresh name (re-putting is the only way to know the
    /// content exactly, since unsynced pairs may legitimately be lost).
    fn run_round(&mut self, round: usize) {
        let mut attempt = 0u32;
        'retry: loop {
            attempt += 1;
            assert!(attempt < 300, "round {round} livelocked");
            let name = format!("r{round}a{attempt:03}");
            let ks = self.create(&name);
            for i in 0..PAIRS {
                let k = key_for(round, attempt, i);
                let v = value_for(&k, VALUE_LEN);
                match ks.put(&k, &v) {
                    Ok(()) => self.bed.model.put(&name, &k, &v),
                    Err(e) => {
                        self.bed.model.in_flight(&name, &k, &v);
                        self.abandon(&e, &name);
                        continue 'retry;
                    }
                }
                if (i + 1) % SYNC_EVERY == 0 || i + 1 == PAIRS {
                    match ks.fsync() {
                        Ok(()) => self.bed.model.sync(&name),
                        Err(e) => {
                            self.abandon(&e, &name);
                            continue 'retry;
                        }
                    }
                }
            }
            self.ensure_compacted(&name);
            self.ensure_sidx(&name);
            self.completed.push(name);
            return;
        }
    }

    /// Full-content check of every completed keyspace, still under fire:
    /// point gets, a full scan, and a sidx range, each crash-safe.
    fn final_verify(&mut self) -> u64 {
        let mut digest = FNV_OFFSET;
        for name in self.completed.clone() {
            // Every op reopens the keyspace: a crash reconnects the client.
            let open = |c: &KvCsd| c.open_keyspace(&name).map(|(ks, _)| ks);
            for k in self.bed.model.durable(&name) {
                let got = self.retry(|c| found(open(c)?.get(&k)));
                self.bed.model.check_get(&name, &k, got.as_deref());
            }
            let scan = self.retry(|c| open(c)?.range(Bound::Unbounded, Bound::Unbounded, None));
            self.bed.model.check_scan(&name, &scan);
            let mut hits = self
                .retry(|c| open(c)?.sidx_range("tail", Bound::Unbounded, Bound::Unbounded, None));
            // Index order is by the f32 field: the same pairs, re-sorted.
            hits.sort();
            self.bed.model.check_scan(&name, &hits);
            for (k, v) in &scan {
                digest = fnv1a(fnv1a(digest, k), v);
            }
        }
        digest
    }
}

fn run_torture(plan: FaultPlan) -> Report {
    let mut t = Torture {
        bed: CrashBed::new(plan),
        completed: Vec::new(),
    };
    for round in 0..ROUNDS {
        t.run_round(round);
    }
    let digest = t.final_verify();
    let ledger = t.bed.stack.ledger();
    Report {
        crashes: t.bed.crashes,
        final_ops: t.bed.inj.ops(),
        events: t.bed.inj.events(),
        wal_replayed: ledger.custom("dev_wal_replayed_records"),
        client_retries: ledger.custom("client_retries"),
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
        let r = run_torture(FaultPlan::power_cut_every(k, 1000 + k));
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
        // No write was retried, so the model's scan check stayed strict.
        assert_eq!(r.client_retries, 0, "k={k}: a power-cut plan retried");
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
        let r = run_torture(FaultPlan::power_cut_at(n, 7));
        assert!(
            r.crashes <= 1,
            "n={n}: single-cut plan crashed {} times",
            r.crashes
        );
        if r.final_ops >= n {
            assert_eq!(r.crashes, 1, "n={n}: cut never fired");
        }
        assert_eq!(r.client_retries, 0, "n={n}: a power-cut plan retried");
    }
}

/// Determinism: the same seed over the same workload reproduces the
/// identical failure schedule, crash count, and final content.
#[test]
fn same_seed_reproduces_identical_failure_schedule() {
    let a = run_torture(FaultPlan::power_cut_every(70, 42));
    let b = run_torture(FaultPlan::power_cut_every(70, 42));
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
/// (The retries let the model accept duplicate identical pairs: a retried
/// put whose WAL record landed twice legitimately shows twice.)
#[test]
fn power_cuts_with_transient_noise() {
    // 0.002/op keeps multi-hundred-op compaction jobs viable: at 0.02 a
    // job run fails with near-certainty and the device degrades every
    // keyspace instead of ever finishing.
    let plan = FaultPlan::power_cut_every(120, 9).with_error_prob(0.002);
    let r = run_torture(plan);
    assert!(r.crashes >= 1, "no cut fired");
    assert!(
        r.events
            .iter()
            .any(|e| e.kind == kvcsd::sim::fault::FaultKind::Transient),
        "noise plan injected no transient errors"
    );
    assert!(r.client_retries > 0, "the client never retried the noise");
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

const SWEEP_PAIRS: usize = 300;

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

/// Load the first `n` sweep keys into the sweep keyspace and fsync it,
/// fault-free.
fn load_synced(t: &mut CrashBed, how: Ingest, n: usize) -> Keyspace {
    let ks = t.client.create_keyspace("sweep").unwrap();
    let accel = ks.write_accelerator();
    for (i, k) in sweep_keys().into_iter().take(n).enumerate() {
        let v = value_for(&k, VALUE_LEN);
        match how {
            Ingest::Accelerated => {
                accel.put(&k, &v).unwrap();
                if (i + 1) % 150 == 0 {
                    accel.flush().unwrap();
                }
            }
            Ingest::SinglePuts => ks.put(&k, &v).unwrap(),
        }
        t.model.put("sweep", &k, &v);
    }
    accel.flush().unwrap();
    ks.fsync().unwrap();
    t.model.sync("sweep");
    ks
}

/// Compact `ks` fault-free.
fn compact(t: &mut CrashBed, ks: &Keyspace) {
    let job = ks.compact().unwrap();
    t.stack.device().run_pending_jobs();
    assert_eq!(job.poll().unwrap(), JobState::Done);
}

/// Reopen after a cut, finish the compaction fault-free, and check the
/// keyspace against the model: every fsynced pair survived byte-exact,
/// nothing else is visible.
fn recover_and_check(t: &mut CrashBed) {
    t.recover();
    let ks = t.settle("sweep").expect("fsynced keyspace came back EMPTY");
    t.model.check_all("sweep", &ks);
}

/// Cut power at every flash op of one compaction, on both compaction
/// paths. Each cut is a fresh device loaded identically, so op `m` of
/// the compaction is the same op every time; after reopen, every
/// fsynced pair must be there and the keyspace must compact again.
#[test]
fn power_cut_at_every_op_of_one_compaction() {
    for (how, run_merges) in [(Ingest::Accelerated, 1), (Ingest::SinglePuts, 0)] {
        // A fault-free run counts the compaction's flash ops.
        let mut t = CrashBed::new(FaultPlan::none());
        let ks = load_synced(&mut t, how, SWEEP_PAIRS);
        let start = t.inj.ops();
        compact(&mut t, &ks);
        let ops = t.inj.ops() - start;
        assert_eq!(
            t.stack.ledger().custom("dev_run_merge_compactions"),
            run_merges,
            "{how:?} took the wrong path"
        );
        assert!(ops > 10, "{how:?}: {ops} ops");

        for m in 1..=ops {
            let what = format!("{how:?}, cut at op {m} of {ops}");
            let mut t = CrashBed::new(FaultPlan::power_cut_at(start + m, m));
            let ks = load_synced(&mut t, how, SWEEP_PAIRS);
            assert_eq!(t.inj.ops(), start, "{what}: load is not deterministic");
            if ks.compact().is_ok() {
                t.stack.device().run_pending_jobs();
            }
            assert!(t.inj.is_powered_off(), "{what}: the cut never fired");
            recover_and_check(&mut t);
        }
    }
}

/// Cut power right after the m-th fsync of a single-PUT ingest: reopen
/// must replay exactly the synced WAL records, and they must all be
/// there after compaction.
#[test]
fn power_cut_after_mth_fsync_replays_the_wal() {
    const EVERY: usize = 40;
    for m in 1..=SWEEP_PAIRS / EVERY {
        let mut t = CrashBed::new(FaultPlan::none());
        load_synced(&mut t, Ingest::SinglePuts, m * EVERY);
        t.inj.power_off_now();
        recover_and_check(&mut t);
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
        let mut t = CrashBed::new(plan);
        let ks = load_synced(&mut t, Ingest::Accelerated, SWEEP_PAIRS);
        compact(&mut t, &ks);
        t.model.seal("sweep");
        (t, ks)
    };
    let (t, ks) = compacted(FaultPlan::none());
    let start = t.inj.ops();
    ks.delete().unwrap();
    let ops = t.inj.ops() - start;
    assert!(ops > 2, "{ops} ops");

    for m in 1..=ops {
        let (mut t, ks) = compacted(FaultPlan::power_cut_at(start + m, m));
        assert!(ks.delete().is_err(), "cut at op {m} of {ops} did not fail");
        t.recover();
        // The interrupted DELETE may have landed: the model allows
        // "gone", and otherwise the keyspace must come back whole.
        match t.client.open_keyspace("sweep") {
            Ok((ks, state)) => {
                t.model.check_state("sweep", Some(state));
                t.model.check_all("sweep", &ks);
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
