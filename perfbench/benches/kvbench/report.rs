//! What a run measured, and its rendering as the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use kvcsd_sim::{LedgerSnapshot, PhaseTime, WallTimer};

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Repeats exactly for the same seed (counts, ledger ratios, modeled
    /// time); wall-clock measurements do not.
    pub exact: bool,
}

/// Ordered metric list.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn wall(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, false);
    }

    pub fn exact(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, true);
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, exact: bool) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name,
            value,
            unit,
            exact,
        });
    }
}

/// Device-side work of one phase kind, summed over the deterministic
/// prefix of a run. One ledger per device (a cluster has one per shard).
#[derive(Debug, Default, Clone)]
pub struct PhaseWork {
    pub ledgers: Vec<LedgerSnapshot>,
    /// The client's own ledger (the same ledger on a single device).
    pub client: LedgerSnapshot,
}

impl PhaseWork {
    pub fn add(&mut self, ledgers: &[LedgerSnapshot], client: &LedgerSnapshot) {
        if self.ledgers.len() < ledgers.len() {
            self.ledgers
                .resize(ledgers.len(), LedgerSnapshot::default());
        }
        for (acc, d) in self.ledgers.iter_mut().zip(ledgers) {
            *acc = add_snapshots(acc, d);
        }
        self.client = add_snapshots(&self.client, client);
    }

    /// Summed over every device ledger.
    pub fn total(&self) -> LedgerSnapshot {
        self.ledgers
            .iter()
            .fold(LedgerSnapshot::default(), |a, b| add_snapshots(&a, b))
    }
}

pub fn add_snapshots(a: &LedgerSnapshot, b: &LedgerSnapshot) -> LedgerSnapshot {
    let channels = a.channel_busy_ns.len().max(b.channel_busy_ns.len());
    let busy = |s: &LedgerSnapshot, i: usize| s.channel_busy_ns.get(i).copied().unwrap_or(0);
    LedgerSnapshot {
        host_cpu_ns: a.host_cpu_ns + b.host_cpu_ns,
        soc_cpu_ns: a.soc_cpu_ns + b.soc_cpu_ns,
        pcie_h2d_bytes: a.pcie_h2d_bytes + b.pcie_h2d_bytes,
        pcie_d2h_bytes: a.pcie_d2h_bytes + b.pcie_d2h_bytes,
        pcie_msgs: a.pcie_msgs + b.pcie_msgs,
        nand_read_pages: a.nand_read_pages + b.nand_read_pages,
        nand_program_pages: a.nand_program_pages + b.nand_program_pages,
        nand_erase_blocks: a.nand_erase_blocks + b.nand_erase_blocks,
        fs_calls: a.fs_calls + b.fs_calls,
        host_block_ios: a.host_block_ios + b.host_block_ios,
        bridge_busy_ns: a.bridge_busy_ns + b.bridge_busy_ns,
        channel_busy_ns: (0..channels).map(|i| busy(a, i) + busy(b, i)).collect(),
        page_bytes: a.page_bytes.max(b.page_bytes),
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wall seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Wall-clock pairs per second of each ingest and each compaction.
    pub ingest_rate: Vec<f64>,
    pub compact_rate: Vec<f64>,
    /// Closed-loop query operations and the wall time they took.
    pub query_ops: u64,
    pub query_s: f64,
    /// Wall-clock latency per operation class.
    pub lat: BTreeMap<&'static str, Latency>,
    /// Modeled time per phase kind: ingest, compact, query.
    pub model: [PhaseTime; 3],
    pub space_amp: f64,
    /// Wall seconds per unit of measured work (a cycle or an op), for the
    /// traced-minus-untraced overhead.
    pub unit_cost_s: f64,
    /// Host slowdown in force (see [`Outcome::recalibrate`]). Every
    /// wall-clock sample is divided by it.
    pub slowdown: f64,
    /// Every slowdown measured during the run.
    pub slowdowns: Vec<f64>,
    /// Per-layer metrics (filled on traced runs).
    pub layers: Metrics,
    /// `"key": value` provenance fields, JSON-encoded.
    pub provenance: Vec<(String, String)>,
}

impl Outcome {
    /// Count one operation; anything but the expected answer fails it.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("kvbench: failed: {}", what());
            }
        }
        ok
    }

    /// Re-time the calibration kernel (median of three) and apply the
    /// median of the last [`CALIB_WINDOW`] timings to the samples that
    /// follow: recent enough to follow the host's drift, smooth enough
    /// that one preempted timing does not skew a stretch of samples.
    pub fn recalibrate(&mut self) {
        let mut t = [calibrate(), calibrate(), calibrate()];
        t.sort_by(f64::total_cmp);
        self.slowdowns.push(t[1] / CALIB_REF_NS);
        let recent = self.slowdowns.len().saturating_sub(CALIB_WINDOW);
        self.slowdown = median(&self.slowdowns[recent..]);
    }

    /// Wall seconds since `timer` started, scaled to the reference host.
    pub fn secs(&self, timer: WallTimer) -> f64 {
        let k = if self.slowdown > 0.0 {
            self.slowdown
        } else {
            1.0
        };
        timer.elapsed_secs() / k
    }

    pub fn sample(&mut self, class: &'static str, timer: WallTimer) {
        let us = self.secs(timer) * 1e6;
        self.lat.entry(class).or_default().push(us);
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.provenance.push((key.to_string(), json_value));
    }

    /// Latency statistics of one class (empty if none ran).
    pub fn lat(&self, class: &str) -> Latency {
        self.lat.get(class).cloned().unwrap_or_default()
    }
}

/// Latency samples of one operation class, summarised per run of
/// [`TAIL_CHUNK`] consecutive samples: each chunk's median and p99 (ten
/// samples beyond it). The run's figures are the medians over chunks, so
/// a burst of host noise moves one chunk rather than the whole figure,
/// and memory stays flat however many operations a run completes.
#[derive(Debug, Default, Clone)]
pub struct Latency {
    chunk: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    pub count: u64,
}

impl Latency {
    fn push(&mut self, us: f64) {
        self.count += 1;
        self.chunk.push(us);
        if self.chunk.len() == TAIL_CHUNK {
            let (p50, p99) = summarise(&mut self.chunk);
            self.p50s.push(p50);
            self.p99s.push(p99);
            self.chunk.clear();
        }
    }

    /// (median, p99) in microseconds; a class with fewer than
    /// [`TAIL_CHUNK`] samples is summarised as one partial chunk.
    pub fn p50_p99(&self) -> (f64, f64) {
        if self.p50s.is_empty() {
            return summarise(&mut self.chunk.clone());
        }
        (median(&self.p50s), median(&self.p99s))
    }
}

fn summarise(chunk: &mut [f64]) -> (f64, f64) {
    chunk.sort_by(f64::total_cmp);
    (percentile(chunk, 50.0), percentile(chunk, 99.0))
}

/// Wall time, in ns, of [`calibrate`] on the reference host that every
/// wall-clock metric is scaled to.
pub const CALIB_REF_NS: f64 = 400_000.0;
/// Calibrations whose median sets the slowdown in force.
const CALIB_WINDOW: usize = 9;

/// Time one fixed, store-independent kernel (sort and copy) in wall ns.
///
/// The kernel is timed before every set-up, every cycle and every 2000
/// operations, and each wall-clock sample is divided by the recent
/// timings over [`CALIB_REF_NS`] (see [`Outcome::recalibrate`]). On a
/// shared host the speed other tenants leave
/// varies between runs far more than the code under test does; scaling
/// keeps that out of the figures while a change to the store still moves
/// them, since the kernel uses none of its code.
fn calibrate() -> f64 {
    let timer = WallTimer::start();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v: Vec<u64> = (0..16_384)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let copy: Vec<u8> = v.iter().flat_map(|w| w.to_le_bytes()).collect();
    std::hint::black_box((v, copy));
    timer.elapsed().as_nanos() as f64
}

/// Consecutive latency samples per p99 estimate.
pub const TAIL_CHUNK: usize = 1000;

/// Exact nearest-rank percentile of an ascending sample (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The benchmark's last stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// The provenance line printed ahead of the result.
pub fn provenance_line(fields: &[(String, String)]) -> String {
    let mut out = String::from("{\"provenance\": {");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{k}\": {v}");
    }
    out.push_str("}}");
    out
}
