//! The three workloads, each one closed-loop client in this process.
//!
//! * `ckpt_ingest` — a single device runs checkpoint cycles: create 4
//!   keyspaces, bulk-load VPIC particles through the write accelerator,
//!   compact with the energy index, drive `run_pending_jobs`, poll every
//!   job to `Done`, check `stat()` and a seeded query sample, write a
//!   small manifest keyspace with single PUTs, delete everything. SoC
//!   DRAM is below one keyspace's data, so the external sort merges in
//!   more than one round. Loads the ingest and compaction paths.
//! * `query_mix` — the same dataset loaded, compacted and indexed during
//!   set-up, then a seeded closed-loop mix: ~80% uniform GETs (4% of
//!   them on absent keys), ~10% RANGE (limit 100), ~2% SIDX_RANGE at
//!   0.1% selectivity and ~8% single PUTs into a fifth, writable
//!   keyspace. Loads the query path; bypasses compaction and the
//!   accelerator.
//! * `cluster_replicated` — the checkpoint cycle through a 2-shard,
//!   hash-sharded, replicated `ClusterRouter` on a clean link, with DRAM
//!   large enough for a single-pass sort. The only workload that
//!   exercises `kvcsd-cluster`.
//!
//! Every answer is checked against the generated records. Modeled time,
//! space and layer counts cover a fixed, seed-determined prefix of each
//! run (the first [`MIN_CYCLES`] cycles, or the first [`FIXED_OPS`] mix
//! operations), so they repeat exactly for one seed; wall-clock metrics
//! cover the whole run.

use std::collections::BTreeMap;
use std::sync::Arc;

use kvcsd_client::{Job, Keyspace};
use kvcsd_proto::{Bound, JobState, KeyspaceState};
use kvcsd_sim::{LedgerSnapshot, PhaseTime, WallTimer, XorShift64};

use crate::report::{Metrics, Outcome, PhaseWork};
use crate::rig::{
    deltas, energy_spec, entries_ok, get_ok, Backend, Dataset, KsData, Rig, ENERGY_INDEX,
};
use crate::trace::{span, Tracer};

/// Cycles every cycle-based run completes however short `--seconds` is.
pub const MIN_CYCLES: u64 = 3;
/// Mix operations every `query_mix` run completes.
pub const FIXED_OPS: u64 = 20_000;
/// RANGE result limit.
const RANGE_LIMIT: u64 = 100;
/// Share of GETs aimed at absent keys, in percent.
const ABSENT_PCT: u64 = 4;
/// Keyspaces per checkpoint.
const KEYSPACES: u32 = 4;
/// SoC DRAM of the single device: below one keyspace's data.
const SMALL_DRAM: u64 = 1 << 20;
/// SoC DRAM per cluster shard: the whole sort fits.
const LARGE_DRAM: u64 = 16 << 20;

/// Run parameters shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Option<Arc<Tracer>>,
    pub setups: usize,
}

/// Checkpoint-cycle shape.
struct Shape {
    pairs_per_ks: u64,
    gets: u64,
    ranges: u64,
    sidx: u64,
    puts: u64,
}

impl Shape {
    /// Records per keyspace vary by ±1% with the seed, so modeled times
    /// differ between seeds while repeating exactly for one.
    fn new(base_pairs: u64, seed: u64, gets: u64, ranges: u64, sidx: u64, puts: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x51ED_5EED);
        Self {
            pairs_per_ks: base_pairs * (990 + rng.next_below(21)) / 1000,
            gets,
            ranges,
            sidx,
            puts,
        }
    }

    fn note(&self, out: &mut Outcome, workload: &str, seed: u64) {
        out.note(
            "workload",
            format!(
                "{{\"name\": \"{workload}\", \"seed\": {seed}, \"keyspaces\": {KEYSPACES}, \"pairs_per_keyspace\": {}, \"record_bytes\": 48, \"secondary_index\": \"{ENERGY_INDEX}\", \"gets_per_cycle\": {}, \"ranges_per_cycle\": {}, \"sidx_per_cycle\": {}, \"puts_per_cycle\": {}, \"range_limit\": {RANGE_LIMIT}, \"absent_get_pct\": {ABSENT_PCT}, \"min_cycles\": {MIN_CYCLES}, \"fixed_ops\": {FIXED_OPS}}}",
                self.pairs_per_ks, self.gets, self.ranges, self.sidx, self.puts
            ),
        );
    }
}

/// Ledger counters read by name.
const DEVICE_COUNTERS: [&str; 5] = [
    "dev_single_pass_fallbacks",
    "dev_admission_wait_ns",
    "dev_admission_slowdowns",
    "dev_admission_stalls",
    "dev_admission_rejects",
];
const FABRIC_COUNTERS: [&str; 3] = ["bus_bytes", "bus_msgs", "bus_busy_ns"];

fn counters(rig: &Rig) -> BTreeMap<&'static str, u64> {
    let mut c = BTreeMap::new();
    for name in DEVICE_COUNTERS {
        c.insert(name, rig.ledgers().iter().map(|l| l.custom(name)).sum());
    }
    c.insert("client_retries", rig.client_ledger.custom("client_retries"));
    if let Backend::Cluster(r) = &rig.backend {
        for name in FABRIC_COUNTERS {
            c.insert(name, r.fabric_ledger().custom(name));
        }
        c.insert("host_clock_ns", r.host_clock().now_ns());
    }
    c
}

/// Work done during the exact (seed-determined) prefix of a run.
#[derive(Default)]
struct Window {
    open: bool,
    start: BTreeMap<&'static str, u64>,
    counters: BTreeMap<&'static str, u64>,
    ingest: PhaseWork,
    compact: PhaseWork,
    query: PhaseWork,
    /// Cycles (or loads) inside the window.
    cycles: u64,
    pairs: u64,
    user_bytes: u64,
    jobs: u64,
    polls: u64,
    query_ops: u64,
    entries: u64,
    space_amp: f64,
    zones_used: u64,
}

impl Window {
    fn open(rig: &Rig) -> Self {
        Self {
            open: true,
            start: counters(rig),
            ..Self::default()
        }
    }

    fn add_load(&mut self, l: &Loaded, data: &Dataset) {
        if !self.open {
            return;
        }
        self.ingest.add(&l.ingest.0, &l.ingest.1);
        self.compact.add(&l.compact.0, &l.compact.1);
        self.cycles += 1;
        self.pairs += data.pairs();
        self.user_bytes += data.user_bytes();
        self.jobs += l.jobs;
        self.polls += l.polls;
        self.space_amp = l.space_amp;
        self.zones_used = l.zones_used;
    }

    fn add_query(&mut self, q: &(Vec<LedgerSnapshot>, LedgerSnapshot), ops: u64, entries: u64) {
        if self.open {
            self.query.add(&q.0, &q.1);
            self.query_ops += ops;
            self.entries += entries;
        }
    }

    fn close(&mut self, rig: &Rig) {
        if !self.open {
            return;
        }
        self.open = false;
        rig.probe.freeze();
        let end = counters(rig);
        self.counters = end
            .iter()
            .map(|(k, v)| (*k, v - self.start.get(k).copied().unwrap_or(0)))
            .collect();
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// What one load (ingest + compaction with index) left behind.
struct Loaded {
    keyspaces: Vec<Keyspace>,
    ingest: (Vec<LedgerSnapshot>, LedgerSnapshot),
    compact: (Vec<LedgerSnapshot>, LedgerSnapshot),
    jobs: u64,
    polls: u64,
    space_amp: f64,
    zones_used: u64,
}

fn snap_all(rig: &Rig) -> (Vec<LedgerSnapshot>, LedgerSnapshot) {
    (rig.snap(), rig.client_ledger.snapshot())
}

fn since(
    after: &(Vec<LedgerSnapshot>, LedgerSnapshot),
    before: &(Vec<LedgerSnapshot>, LedgerSnapshot),
) -> (Vec<LedgerSnapshot>, LedgerSnapshot) {
    (deltas(&after.0, &before.0), after.1.since(&before.1))
}

fn create(rig: &Rig, name: &str, out: &mut Outcome) -> Option<Keyspace> {
    let r = span(rig.tracer(), "client", "create", || {
        rig.client.create_keyspace(name)
    });
    let ok = r.is_ok();
    out.check(ok, || format!("create {name}: {:?}", r.as_ref().err()));
    r.ok()
}

/// Poll `job` to a terminal state, driving the device background between
/// polls. Returns the polls made and whether the job ended `Done`.
fn await_job(rig: &Rig, job: &Job, jobs_span: &'static str, out: &mut Outcome) -> (u64, bool) {
    let mut polls = 0;
    let mut last = String::new();
    while polls < 8 {
        polls += 1;
        match span(rig.tracer(), "client", "poll", || job.poll()) {
            Ok(JobState::Done) => {
                out.check(true, String::new);
                return (polls, true);
            }
            Ok(JobState::Failed(e)) => {
                last = format!("job failed: {e}");
                break;
            }
            Ok(_) => rig.run_jobs(jobs_span),
            Err(e) => {
                last = format!("poll: {e}");
                break;
            }
        }
    }
    out.check(false, || format!("job {:?}: {last}", job.id()));
    (polls, false)
}

/// Create the keyspaces, bulk-load them through the write accelerator,
/// compact them with the energy index, drive the background to the end
/// and check every keyspace's `stat()`.
fn load(rig: &Rig, data: &Dataset, out: &mut Outcome) -> Option<Loaded> {
    let t = rig.tracer();
    let mut keyspaces = Vec::new();
    for i in 0..data.keyspaces.len() {
        keyspaces.push(create(rig, &format!("ckpt.{i}"), out)?);
    }

    let before = snap_all(rig);
    let timer = WallTimer::start();
    for (ks, d) in keyspaces.iter().zip(&data.keyspaces) {
        let acked = span(t, "client", "accel", || {
            let acc = ks.write_accelerator();
            for r in &d.records {
                acc.put(&r.key, &r.value)?;
            }
            acc.flush()
        });
        let ok = matches!(acked, Ok(n) if n == d.len() as u64);
        if !out.check(ok, || format!("ingest of {} pairs: {acked:?}", d.len())) {
            return None;
        }
    }
    out.ingest_rate.push(data.pairs() as f64 / out.secs(timer));

    // The compaction invocation is host-visible and closes the modeled
    // ingest phase; the wall-clock compaction runs from it to the last Done.
    let timer = WallTimer::start();
    let mut jobs = Vec::new();
    for ks in &keyspaces {
        let job = span(t, "client", "compact", || {
            ks.compact_with_indexes(vec![energy_spec()])
        });
        let ok = job.is_ok();
        out.check(ok, || format!("compact: {:?}", job.as_ref().err()));
        jobs.push(job.ok()?);
    }
    let invoked = snap_all(rig);
    rig.run_jobs("jobs");
    let mut polls = 0;
    let mut done = true;
    for job in &jobs {
        let (p, ok) = await_job(rig, job, "jobs", out);
        polls += p;
        done &= ok;
    }
    if !done {
        return None;
    }
    out.compact_rate.push(data.pairs() as f64 / out.secs(timer));
    let compacted = snap_all(rig);

    for (ks, d) in keyspaces.iter().zip(&data.keyspaces) {
        let st = span(t, "client", "stat", || ks.stat());
        let ok = matches!(&st, Ok(s) if s.state == KeyspaceState::Compacted
            && s.num_pairs == d.len() as u64
            && s.data_bytes == d.user_bytes()
            && s.secondary_indexes == [ENERGY_INDEX]);
        out.check(ok, || format!("stat after compaction: {st:?}"));
    }
    let (zone_bytes, zones_used) = rig.zone_usage();
    Some(Loaded {
        keyspaces,
        ingest: since(&invoked, &before),
        compact: since(&compacted, &invoked),
        jobs: jobs.len() as u64,
        polls,
        space_amp: zone_bytes as f64 / data.user_bytes() as f64,
        zones_used,
    })
}

/// One scheduled client operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Get,
    /// A GET of a key that is not in the keyspace (NotFound is the answer).
    Absent,
    Range,
    Sidx,
    /// A single PUT into the writable keyspace.
    Put,
}

/// Exactly `n` operations of each kind, in a seeded random order.
fn schedule(rng: &mut XorShift64, counts: &[(Op, u64)]) -> Vec<Op> {
    let mut ops: Vec<Op> = counts
        .iter()
        .flat_map(|&(op, n)| std::iter::repeat_n(op, n as usize))
        .collect();
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    ops
}

/// The operation counts of one schedule.
fn counts(shape: &Shape) -> [(Op, u64); 5] {
    let absent = shape.gets * ABSENT_PCT / 100;
    [
        (Op::Get, shape.gets - absent),
        (Op::Absent, absent),
        (Op::Range, shape.ranges),
        (Op::Sidx, shape.sidx),
        (Op::Put, shape.puts),
    ]
}

/// The keyspaces the operations run against.
struct Targets<'a> {
    compacted: &'a [Keyspace],
    data: &'a Dataset,
    writable: &'a Keyspace,
    /// Key prefix of the single PUTs.
    tag: u8,
}

/// Run one operation and check its answer. Returns the entries returned.
fn run_op(
    rig: &Rig,
    op: Op,
    to: &Targets,
    puts: &mut u64,
    rng: &mut XorShift64,
    out: &mut Outcome,
) -> u64 {
    let k = rng.next_below(to.compacted.len() as u64) as usize;
    let (ks, d) = (&to.compacted[k], &to.data.keyspaces[k]);
    match op {
        Op::Get | Op::Absent => op_get(rig, ks, d, matches!(op, Op::Absent), rng, out),
        Op::Range => op_range(rig, ks, d, rng, out),
        Op::Sidx => op_sidx(rig, ks, d, rng, out),
        Op::Put => {
            op_put(rig, to.writable, to.tag, *puts, out);
            *puts += 1;
            0
        }
    }
}

fn op_get(
    rig: &Rig,
    ks: &Keyspace,
    d: &KsData,
    absent: bool,
    rng: &mut XorShift64,
    out: &mut Outcome,
) -> u64 {
    let key = if absent {
        d.absent_key(rng)
    } else {
        d.at_rank(rng.next_below(d.len() as u64) as usize)
            .key
            .to_vec()
    };
    let timer = WallTimer::start();
    let got = span(rig.tracer(), "client", "get", || ks.get(&key));
    out.sample("get", timer);
    out.check(get_ok(d, &key, &got), || format!("get {key:02x?}: {got:?}"));
    u64::from(got.is_ok())
}

fn op_range(rig: &Rig, ks: &Keyspace, d: &KsData, rng: &mut XorShift64, out: &mut Outcome) -> u64 {
    let rank = rng.next_below(d.len() as u64) as usize;
    let lo = d.at_rank(rank).key.to_vec();
    let timer = WallTimer::start();
    let got = span(rig.tracer(), "client", "range", || {
        ks.range(Bound::Included(lo), Bound::Unbounded, Some(RANGE_LIMIT))
    });
    out.sample("range", timer);
    let end = (rank + RANGE_LIMIT as usize).min(d.len());
    let want: Vec<_> = (rank..end).map(|r| d.at_rank(r)).collect();
    let ok = matches!(&got, Ok(es) if entries_ok(&want, es));
    out.check(ok, || format!("range from rank {rank}"));
    got.map_or(0, |es| es.len() as u64)
}

/// SIDX_RANGE over an energy window holding 0.1% of the keyspace.
fn op_sidx(rig: &Rig, ks: &Keyspace, d: &KsData, rng: &mut XorShift64, out: &mut Outcome) -> u64 {
    let count = (d.len() / 1000).max(1);
    let rank = rng.next_below((d.len() - count) as u64) as usize;
    let (lo, hi, want) = d.energy_window(rank, count);
    // `> lo - 1` rather than `>= lo`: an inclusive lower bound starts the
    // device's scan at the last index block whose first key is <= lo, which
    // misses entries equal to lo at the end of the block before it. Equal
    // f32 energies are common at this size, and both forms select the
    // same records.
    let timer = WallTimer::start();
    let got = span(rig.tracer(), "client", "sidx_range", || {
        ks.sidx_range(
            ENERGY_INDEX,
            Bound::Excluded((lo - 1).to_be_bytes().to_vec()),
            Bound::Excluded(hi.to_be_bytes().to_vec()),
            None,
        )
    });
    out.sample("sidx", timer);
    let n = got.as_ref().map_or(0, |es| es.len() as u64);
    let ok = match got {
        Ok(mut es) => {
            es.sort_by(|a, b| a.0.cmp(&b.0));
            entries_ok(&want, &es)
        }
        Err(_) => false,
    };
    out.check(ok, || format!("sidx_range from energy rank {rank}"));
    n
}

/// Key and value of single PUT number `i` (manifest or trickle records).
fn put_pair(tag: u8, i: u64) -> (Vec<u8>, Vec<u8>) {
    let mut key = vec![tag];
    key.extend_from_slice(&i.to_be_bytes());
    let value: Vec<u8> = (0..48u64)
        .map(|b| (i.wrapping_mul(0x9E37_79B9).wrapping_add(b * 31) >> 3) as u8)
        .collect();
    (key, value)
}

fn op_put(rig: &Rig, ks: &Keyspace, tag: u8, i: u64, out: &mut Outcome) {
    let (key, value) = put_pair(tag, i);
    let timer = WallTimer::start();
    let got = span(rig.tracer(), "client", "put", || ks.put(&key, &value));
    out.sample("put", timer);
    out.check(got.is_ok(), || format!("put: {got:?}"));
}

/// Compact a keyspace of `puts` single PUTs made with `tag` and check it
/// holds exactly them (untimed).
fn verify_puts(rig: &Rig, ks: &Keyspace, tag: u8, puts: u64, out: &mut Outcome) {
    let t = rig.tracer();
    let job = span(t, "client", "compact", || ks.compact());
    let Ok(job) = job else {
        out.check(false, || format!("compact of single puts: {job:?}"));
        return;
    };
    rig.run_jobs("jobs_small");
    await_job(rig, &job, "jobs_small", out);
    let st = span(t, "client", "stat", || ks.stat());
    let ok = matches!(&st, Ok(s) if s.num_pairs == puts && s.state == KeyspaceState::Compacted);
    out.check(ok, || format!("stat of {puts} single puts: {st:?}"));
    for i in (0..puts).step_by((puts as usize / 16).max(1)) {
        let (key, value) = put_pair(tag, i);
        let got = span(t, "client", "get", || ks.get(&key));
        out.check(got.as_deref() == Ok(value.as_slice()), || {
            format!("get of put {i}: {got:?}")
        });
    }
}

fn delete(rig: &Rig, keyspaces: Vec<Keyspace>, out: &mut Outcome) {
    for ks in keyspaces {
        let r = span(rig.tracer(), "client", "delete", || ks.delete());
        out.check(r.is_ok(), || format!("delete: {r:?}"));
    }
}

/// One checkpoint cycle. Returns false if any operation failed.
fn cycle(
    rig: &Rig,
    data: &Dataset,
    shape: &Shape,
    rng: &mut XorShift64,
    out: &mut Outcome,
    win: &mut Window,
) -> bool {
    let failed = out.failed;
    let Some(manifest) = create(rig, "manifest", out) else {
        return false;
    };
    let Some(loaded) = load(rig, data, out) else {
        return false;
    };
    win.add_load(&loaded, data);

    let to = Targets {
        compacted: &loaded.keyspaces,
        data,
        writable: &manifest,
        tag: b'm',
    };
    let ops = schedule(rng, &counts(shape));
    let before = snap_all(rig);
    let timer = WallTimer::start();
    let (mut puts, mut entries) = (0, 0);
    for &op in &ops {
        entries += run_op(rig, op, &to, &mut puts, rng, out);
    }
    out.query_s += out.secs(timer);
    out.query_ops += ops.len() as u64;
    win.add_query(&since(&snap_all(rig), &before), ops.len() as u64, entries);

    verify_puts(rig, &manifest, b'm', puts, out);
    let mut all = loaded.keyspaces;
    all.push(manifest);
    delete(rig, all, out);
    out.failed == failed
}

/// Repeated set-up: generate the inputs and build the system `ctx.setups`
/// times, keeping the last; `setup_s` is the median.
fn set_up<T>(ctx: &Ctx, out: &mut Outcome, mut build: impl FnMut(&mut Outcome) -> T) -> T {
    let mut last = None;
    for _ in 0..ctx.setups.max(1) {
        out.provenance.clear();
        out.recalibrate();
        let timer = WallTimer::start();
        let built = build(out);
        out.setup_s.push(out.secs(timer));
        last = Some(built);
    }
    last.expect("at least one set-up")
}

/// Cycles until `ctx.seconds` have passed and at least [`MIN_CYCLES`] ran.
fn run_cycles(ctx: &Ctx, rig: &Rig, data: &Dataset, shape: &Shape, out: &mut Outcome) -> Window {
    let mut rng = XorShift64::new(ctx.seed ^ 0x00C4_C1E5);
    let mut win = Window::open(rig);
    let timer = WallTimer::start();
    let mut cycles = 0;
    let mut spent = 0.0;
    loop {
        out.recalibrate();
        let cycle_timer = WallTimer::start();
        let ok = cycle(rig, data, shape, &mut rng, out, &mut win);
        spent += out.secs(cycle_timer);
        cycles += 1;
        if cycles == MIN_CYCLES {
            win.close(rig);
        }
        if !ok || (cycles >= MIN_CYCLES && timer.elapsed_secs() >= ctx.seconds) {
            break;
        }
    }
    win.close(rig);
    out.unit_cost_s = spent / cycles as f64;
    win
}

pub fn ckpt_ingest(ctx: &Ctx) -> Outcome {
    let shape = Shape::new(48_000, ctx.seed, 2400, 480, 48, 512);
    let mut out = Outcome::default();
    let (data, rig) = set_up(ctx, &mut out, |out| {
        let data = Dataset::generate(ctx.seed, KEYSPACES, shape.pairs_per_ks);
        let rig = Rig::device(
            data.user_bytes(),
            SMALL_DRAM,
            KEYSPACES + 1,
            ctx.seed,
            ctx.tracer.clone(),
            out,
        );
        (data, rig)
    });
    shape.note(&mut out, "ckpt_ingest", ctx.seed);
    let win = run_cycles(ctx, &rig, &data, &shape, &mut out);
    finish(&rig, &win, &mut out);
    out
}

pub fn cluster_replicated(ctx: &Ctx) -> Outcome {
    let shape = Shape::new(24_000, ctx.seed, 2400, 480, 48, 512);
    let mut out = Outcome::default();
    let (data, rig) = set_up(ctx, &mut out, |out| {
        let data = Dataset::generate(ctx.seed, KEYSPACES, shape.pairs_per_ks);
        let rig = Rig::cluster(
            2,
            data.user_bytes(),
            LARGE_DRAM,
            KEYSPACES + 1,
            ctx.seed,
            ctx.tracer.clone(),
            out,
        );
        (data, rig)
    });
    shape.note(&mut out, "cluster_replicated", ctx.seed);
    let win = run_cycles(ctx, &rig, &data, &shape, &mut out);
    finish(&rig, &win, &mut out);
    out
}

pub fn query_mix(ctx: &Ctx) -> Outcome {
    // Counts per shuffled block of 100 operations.
    let shape = Shape::new(48_000, ctx.seed, 80, 10, 2, 8);
    let mut out = Outcome::default();
    let (data, rig, loaded, trickle, mut win) = set_up(ctx, &mut out, |out| {
        let data = Dataset::generate(ctx.seed, KEYSPACES, shape.pairs_per_ks);
        let rig = Rig::device(
            data.user_bytes(),
            SMALL_DRAM,
            KEYSPACES + 1,
            ctx.seed,
            ctx.tracer.clone(),
            out,
        );
        let mut win = Window::open(&rig);
        let loaded = load(&rig, &data, out).expect("set-up load must succeed");
        win.add_load(&loaded, &data);
        let trickle = create(&rig, "trickle", out).expect("set-up create must succeed");
        (data, rig, loaded, trickle, win)
    });
    shape.note(&mut out, "query_mix", ctx.seed);

    let to = Targets {
        compacted: &loaded.keyspaces,
        data: &data,
        writable: &trickle,
        tag: b't',
    };
    let mut rng = XorShift64::new(ctx.seed ^ 0x0093_11E5);
    let (mut ops, mut puts, mut entries) = (0u64, 0u64, 0u64);
    let before = snap_all(&rig);
    let timer = WallTimer::start();
    while ops < FIXED_OPS || timer.elapsed_secs() < ctx.seconds {
        if ops % 2000 == 0 {
            out.recalibrate();
        }
        let block = WallTimer::start();
        for op in schedule(&mut rng, &counts(&shape)) {
            entries += run_op(&rig, op, &to, &mut puts, &mut rng, &mut out);
            ops += 1;
            if ops == FIXED_OPS {
                win.add_query(&since(&snap_all(&rig), &before), ops, entries);
                win.close(&rig);
            }
        }
        out.query_s += out.secs(block);
    }
    out.query_ops = ops;
    out.unit_cost_s = out.query_s / ops as f64;

    verify_puts(&rig, &trickle, b't', puts, &mut out);
    finish(&rig, &win, &mut out);
    out
}

fn per_cycle(t: PhaseTime, cycles: u64) -> PhaseTime {
    let k = cycles.max(1) as f64;
    PhaseTime {
        host_cpu_s: t.host_cpu_s / k,
        soc_cpu_s: t.soc_cpu_s / k,
        pcie_s: t.pcie_s / k,
        ssd_s: t.ssd_s / k,
        bridge_s: t.bridge_s / k,
        elapsed_s: t.elapsed_s / k,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Fill the exact end-to-end numbers and, on a traced run, the layers.
fn finish(rig: &Rig, win: &Window, out: &mut Outcome) {
    let query_cycles = if win.query_ops > 0 { win.cycles } else { 1 };
    out.model = [
        per_cycle(rig.model_phase(&win.ingest.ledgers, false), win.cycles),
        per_cycle(rig.model_phase(&win.compact.ledgers, true), win.cycles),
        per_cycle(rig.model_phase(&win.query.ledgers, false), query_cycles),
    ];
    out.space_amp = win.space_amp;
    out.note(
        "exact_window",
        format!(
            "{{\"loads\": {}, \"pairs\": {}, \"query_ops\": {}, \"bottleneck\": {{\"ingest\": \"{}\", \"compact\": \"{}\", \"query\": \"{}\"}}}}",
            win.cycles,
            win.pairs,
            win.query_ops,
            out.model[0].bottleneck(),
            out.model[1].bottleneck(),
            out.model[2].bottleneck()
        ),
    );
    if let Some(t) = rig.tracer() {
        out.layers = layer_metrics(rig, t, win, out);
    }
}

fn layer_metrics(rig: &Rig, t: &Tracer, win: &Window, out: &Outcome) -> Metrics {
    let mut m = Metrics::default();
    let cycles = win.cycles.max(1) as f64;
    let probe = &rig.probe;

    // client: the library's own time around the device, and its batching.
    m.wall(
        "client.self_us.get",
        t.self_p50_ns("client", "get") / 1e3,
        "us",
    );
    m.wall(
        "client.self_us.put",
        t.self_p50_ns("client", "put") / 1e3,
        "us",
    );
    m.wall(
        "client.self_s.accel",
        t.self_p50_ns("client", "accel") / 1e9,
        "s",
    );
    let bulk = probe.stats("bulk_put");
    m.exact(
        "client.pairs_per_bulk",
        ratio(bulk.pairs as f64, bulk.calls as f64),
        "count",
    );
    m.exact(
        "client.polls_per_job",
        ratio(win.polls as f64, win.jobs as f64),
        "count",
    );
    m.exact("client.retries", win.counter("client_retries"), "count");
    m.wall("client.self_share", t.self_share("client"), "ratio");

    // proto: bytes and messages on the host-device link (client ledger).
    m.exact(
        "proto.h2d_bytes_per_pair",
        ratio(win.ingest.client.pcie_h2d_bytes as f64, win.pairs as f64),
        "B",
    );
    m.exact(
        "proto.d2h_bytes_per_entry",
        ratio(win.query.client.pcie_d2h_bytes as f64, win.entries as f64),
        "B",
    );
    m.exact(
        "proto.msgs_per_op",
        ratio(win.query.client.pcie_msgs as f64, win.query_ops as f64),
        "count",
    );

    // core: the device's command handling and background jobs.
    for op in [
        "put",
        "bulk_put",
        "get",
        "range",
        "sidx_range",
        "poll_job",
        "compact",
    ] {
        m.wall(
            format!("core.handle_us.{op}"),
            t.dur_p50_ns("core", op) / 1e3,
            "us",
        );
    }
    m.wall("core.jobs_s", t.dur_p50_ns("core", "jobs") / 1e9, "s");
    m.wall("core.self_share", t.self_share("core"), "ratio");
    let compact = win.compact.total();
    m.exact(
        "core.soc_cpu_ns_per_pair",
        ratio(compact.soc_cpu_ns as f64, win.pairs as f64),
        "ns",
    );
    m.exact(
        "core.single_pass_fallbacks",
        win.counter("dev_single_pass_fallbacks") / cycles,
        "count",
    );
    m.exact("core.dram_peak_frac", probe.dram_peak(), "ratio");
    m.exact(
        "core.admission_wait_ns",
        win.counter("dev_admission_wait_ns"),
        "ns",
    );
    for band in ["slowdowns", "stalls", "rejects"] {
        let name = format!("dev_admission_{band}");
        m.exact(
            format!("core.admission_{band}"),
            win.counter(&name),
            "count",
        );
    }
    m.exact("core.zones_used", win.zones_used as f64, "count");

    // flash: page work per phase, amplification and channel balance.
    let phases = [
        ("ingest", &win.ingest),
        ("compact", &win.compact),
        ("query", &win.query),
    ];
    for (name, w) in phases {
        let s = w.total();
        m.exact(
            format!("flash.program_pages.{name}"),
            s.nand_program_pages as f64 / cycles,
            "count",
        );
        m.exact(
            format!("flash.read_pages.{name}"),
            s.nand_read_pages as f64 / cycles,
            "count",
        );
        m.exact(
            format!("flash.erase_blocks.{name}"),
            s.nand_erase_blocks as f64 / cycles,
            "count",
        );
    }
    let written = (win.ingest.total().storage_write_bytes() + compact.storage_write_bytes()) as f64;
    m.exact(
        "flash.write_amp",
        ratio(written, win.user_bytes as f64),
        "ratio",
    );
    let imbalance = win
        .compact
        .ledgers
        .iter()
        .map(|s| {
            let sum: u64 = s.channel_busy_ns.iter().sum();
            let mean = sum as f64 / s.channel_busy_ns.len().max(1) as f64;
            ratio(s.max_channel_busy_ns() as f64, mean)
        })
        .fold(0.0, f64::max);
    m.exact("flash.channel_imbalance", imbalance, "ratio");
    let busy: u64 = compact.channel_busy_ns.iter().sum();
    let erase_ns = compact.nand_erase_blocks as f64 * rig.model.config().hw.erase_ns as f64;
    m.exact(
        "flash.erase_busy_share",
        ratio(erase_ns, busy as f64),
        "ratio",
    );
    let get = probe.stats("get");
    m.exact(
        "flash.read_pages_per_get",
        ratio(get.read_pages as f64, get.calls as f64),
        "count",
    );
    let (range, sidx) = (probe.stats("range"), probe.stats("sidx_range"));
    m.exact(
        "flash.read_pages_per_entry",
        ratio(
            (range.read_pages + sidx.read_pages) as f64,
            (range.entries + sidx.entries) as f64,
        ),
        "count",
    );

    // cluster: routing, background, replication fabric.
    for op in ["bulk_put", "get", "range", "poll_job"] {
        m.wall(
            format!("cluster.handle_us.{op}"),
            t.dur_p50_ns("cluster", op) / 1e3,
            "us",
        );
    }
    m.wall(
        "cluster.background_s",
        t.dur_p50_ns("cluster", "jobs") / 1e9,
        "s",
    );
    m.wall("cluster.self_share", t.self_share("cluster"), "ratio");
    m.exact(
        "cluster.bus_bytes_per_user_byte",
        ratio(win.counter("bus_bytes"), win.user_bytes as f64),
        "ratio",
    );
    m.exact(
        "cluster.bus_msgs",
        win.counter("bus_msgs") / cycles,
        "count",
    );
    m.exact(
        "cluster.bus_busy_ns",
        win.counter("bus_busy_ns") / cycles,
        "ns",
    );
    let programs: Vec<f64> = win
        .ingest
        .ledgers
        .iter()
        .zip(&win.compact.ledgers)
        .map(|(a, b)| (a.nand_program_pages + b.nand_program_pages) as f64)
        .collect();
    let mean = programs.iter().sum::<f64>() / programs.len().max(1) as f64;
    m.exact(
        "cluster.shard_skew",
        ratio(programs.iter().copied().fold(0.0, f64::max), mean),
        "ratio",
    );
    m.exact(
        "cluster.host_clock_ns",
        win.counter("host_clock_ns") / cycles,
        "ns",
    );

    // model: the TimeModel terms behind each model_* value.
    for (name, p) in ["ingest", "compact", "query"].iter().zip(&out.model) {
        m.exact(format!("model.{name}.host_cpu_s"), p.host_cpu_s, "s");
        m.exact(format!("model.{name}.soc_cpu_s"), p.soc_cpu_s, "s");
        m.exact(format!("model.{name}.pcie_s"), p.pcie_s, "s");
        m.exact(format!("model.{name}.ssd_s"), p.ssd_s, "s");
    }
    m
}
