//! Bench-side tracing, recorded from outside each layer.
//!
//! A span wraps one call into a layer's public API from the benchmark's
//! own code: client calls (`client`), `DeviceHandler::handle` on the
//! device or the cluster router behind the [`Probe`] wrapper (`core` /
//! `cluster`), and the background drivers `run_pending_jobs` (`core`) and
//! `run_background` (`cluster`). Spans stay in memory and are written as
//! JSON lines when the run ends. A span's self time is its duration minus
//! the time its child spans cover, so `client` self time is the client
//! library's own cost (api, window, accel and the proto transport it
//! drives) with the device's `handle` time taken out.
//!
//! The [`Probe`] also counts, per command class, the pairs shipped, the
//! entries returned and the NAND pages read, and samples SoC DRAM usage
//! at every command boundary. Counting stops at [`Probe::freeze`], so
//! counts cover a fixed prefix of the run and repeat exactly per seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use kvcsd_sim::WallTimer;

use crate::report::percentile;
use kvcsd_proto::{DeviceHandler, KvCommand, KvResponse};
use kvcsd_sim::sync::{Mutex, Shared};

/// Spans kept for the JSON-lines dump. Later spans still enter the
/// self-time summary; the dump says how many it dropped.
const RETAINED_SPANS: usize = 50_000;

type SpanKey = (&'static str, &'static str);

struct Open {
    id: u64,
    start_ns: u64,
    child_ns: u64,
}

struct Closed {
    id: u64,
    parent: u64,
    key: SpanKey,
    start_ns: u64,
    dur_ns: u64,
    self_ns: u64,
}

#[derive(Default)]
struct TraceState {
    next_id: u64,
    open: Vec<Open>,
    retained: Vec<Closed>,
    dropped: u64,
    /// (duration, self time) of every closed span, per (layer, name).
    times: BTreeMap<SpanKey, Vec<(u64, u64)>>,
    /// Summed duration of spans with no parent.
    root_ns: u64,
}

/// In-memory span recorder for one single-threaded run.
pub struct Tracer {
    epoch: WallTimer,
    state: Mutex<TraceState>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: WallTimer::start(),
            state: Mutex::new(TraceState::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `layer`/`name`, nested under whichever
    /// span is open.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        {
            let mut st = self.state.lock();
            st.next_id += 1;
            let id = st.next_id;
            let start_ns = self.now_ns();
            st.open.push(Open {
                id,
                start_ns,
                child_ns: 0,
            });
        }
        let out = f();
        let end_ns = self.now_ns();
        let mut st = self.state.lock();
        let open = st.open.pop().expect("spans close in LIFO order");
        let dur_ns = end_ns.saturating_sub(open.start_ns);
        let self_ns = dur_ns.saturating_sub(open.child_ns);
        let parent = match st.open.last_mut() {
            Some(p) => {
                p.child_ns += dur_ns;
                p.id
            }
            None => {
                st.root_ns += dur_ns;
                0
            }
        };
        st.times
            .entry((layer, name))
            .or_default()
            .push((dur_ns, self_ns));
        if st.retained.len() < RETAINED_SPANS {
            st.retained.push(Closed {
                id: open.id,
                parent,
                key: (layer, name),
                start_ns: open.start_ns,
                dur_ns,
                self_ns,
            });
        } else {
            st.dropped += 1;
        }
        out
    }

    fn p50(&self, layer: &str, name: &str, pick: impl Fn(&(u64, u64)) -> u64) -> f64 {
        let st = self.state.lock();
        let mut v: Vec<f64> = st
            .times
            .iter()
            .filter(|((l, n), _)| *l == layer && *n == name)
            .flat_map(|(_, t)| t.iter().map(|x| pick(x) as f64))
            .collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, 50.0)
    }

    /// Median duration of `layer`/`name` spans, in ns (0 if none ran).
    pub fn dur_p50_ns(&self, layer: &str, name: &str) -> f64 {
        self.p50(layer, name, |t| t.0)
    }

    /// Median self time of `layer`/`name` spans, in ns (0 if none ran).
    pub fn self_p50_ns(&self, layer: &str, name: &str) -> f64 {
        self.p50(layer, name, |t| t.1)
    }

    /// Share of all spanned time that `layer` spent in its own code.
    pub fn self_share(&self, layer: &str) -> f64 {
        let st = self.state.lock();
        let own: u64 = st
            .times
            .iter()
            .filter(|((l, _), _)| *l == layer)
            .flat_map(|(_, t)| t.iter().map(|x| x.1))
            .sum();
        own as f64 / st.root_ns.max(1) as f64
    }

    /// Write `<stem>.spans.jsonl` (one span per line) and
    /// `<stem>.summary.json` (per-layer and per-span self time) to `dir`.
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let st = self.state.lock();
        let mut lines = String::new();
        for s in &st.retained {
            let _ = writeln!(
                lines,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{}}}",
                s.id, s.parent, s.key.0, s.key.1, s.start_ns, s.dur_ns, s.self_ns
            );
        }
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), lines)?;

        let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
        let mut rows = Vec::new();
        for ((layer, name), t) in &st.times {
            let own: u64 = t.iter().map(|x| x.1).sum();
            *layers.entry(layer).or_default() += own;
            let mut selfs: Vec<f64> = t.iter().map(|x| x.1 as f64).collect();
            selfs.sort_by(f64::total_cmp);
            rows.push(format!(
                "    {{\"layer\": \"{layer}\", \"name\": \"{name}\", \"spans\": {}, \"self_ns\": {own}, \"self_p50_ns\": {}}}",
                t.len(),
                percentile(&selfs, 50.0)
            ));
        }
        let layer_rows: Vec<String> = layers
            .iter()
            .map(|(l, ns)| format!("\"{l}\": {ns}"))
            .collect();
        let summary = format!(
            "{{\n  \"spanned_ns\": {},\n  \"retained\": {},\n  \"dropped\": {},\n  \"self_ns_by_layer\": {{{}}},\n  \"spans\": [\n{}\n  ]\n}}\n",
            st.root_ns,
            st.retained.len(),
            st.dropped,
            layer_rows.join(", "),
            rows.join(",\n")
        );
        std::fs::write(dir.join(format!("{stem}.summary.json")), summary)
    }
}

/// Run `f` in a span when tracing is on, bare otherwise.
pub fn span<R>(
    tracer: Option<&Tracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(layer, name, f),
        None => f(),
    }
}

/// Readings the [`Probe`] takes around each command while counting.
pub struct Hooks {
    /// NAND pages read so far by every device behind the probe.
    pub read_pages: Box<dyn Fn() -> u64 + Send + Sync>,
    /// Highest SoC DRAM usage fraction among the devices behind the probe.
    pub dram_frac: Box<dyn Fn() -> f64 + Send + Sync>,
}

/// Per-command-class counts taken by the [`Probe`].
#[derive(Debug, Default, Clone, Copy)]
pub struct OpStats {
    pub calls: u64,
    /// Pairs carried by `Put`/`BulkPut` commands.
    pub pairs: u64,
    /// Entries returned (a `Value` counts as one).
    pub entries: u64,
    pub read_pages: u64,
}

/// A bench-side [`DeviceHandler`] wrapped around the device or the
/// cluster router. Untraced it only forwards; traced it spans every
/// `handle` call and counts what crossed it.
pub struct Probe {
    inner: Arc<dyn DeviceHandler>,
    layer: &'static str,
    tracer: Option<Arc<Tracer>>,
    hooks: Hooks,
    counting: Shared<bool>,
    stats: Mutex<BTreeMap<&'static str, OpStats>>,
    dram_peak: Shared<f64>,
}

impl Probe {
    pub fn new(
        inner: Arc<dyn DeviceHandler>,
        layer: &'static str,
        tracer: Option<Arc<Tracer>>,
        hooks: Hooks,
    ) -> Self {
        Self {
            counting: Shared::new(tracer.is_some()),
            inner,
            layer,
            tracer,
            hooks,
            stats: Mutex::new(BTreeMap::new()),
            dram_peak: Shared::new(0.0),
        }
    }

    /// Stop counting: the run's fixed, seed-determined prefix is over.
    pub fn freeze(&self) {
        self.counting.set(false);
    }

    /// Counts for one command class (see [`op_name`]).
    pub fn stats(&self, op: &str) -> OpStats {
        self.stats.lock().get(op).copied().unwrap_or_default()
    }

    /// Highest SoC DRAM usage fraction seen at a command boundary.
    pub fn dram_peak(&self) -> f64 {
        self.dram_peak.get()
    }

    fn sample_dram(&self) {
        let frac = (self.hooks.dram_frac)();
        self.dram_peak.update(|p| *p = p.max(frac));
    }
}

impl DeviceHandler for Probe {
    fn handle(&self, cmd: KvCommand) -> KvResponse {
        let Some(tracer) = &self.tracer else {
            return self.inner.handle(cmd);
        };
        let op = op_name(&cmd);
        if !self.counting.get() {
            return tracer.span(self.layer, op, || self.inner.handle(cmd));
        }
        let pairs = match &cmd {
            KvCommand::BulkPut { payload, .. } => payload.len() as u64,
            KvCommand::Put { .. } => 1,
            _ => 0,
        };
        self.sample_dram();
        let pages_before = (self.hooks.read_pages)();
        let resp = tracer.span(self.layer, op, || self.inner.handle(cmd));
        let read_pages = (self.hooks.read_pages)() - pages_before;
        self.sample_dram();
        let entries = match &resp {
            KvResponse::Entries(es) => es.len() as u64,
            KvResponse::Value(_) => 1,
            _ => 0,
        };
        let mut stats = self.stats.lock();
        let s = stats.entry(op).or_default();
        s.calls += 1;
        s.pairs += pairs;
        s.entries += entries;
        s.read_pages += read_pages;
        resp
    }
}

/// Span and stats name of a command class.
pub fn op_name(cmd: &KvCommand) -> &'static str {
    match cmd {
        KvCommand::CreateKeyspace { .. } => "create",
        KvCommand::DeleteKeyspace { .. } => "delete",
        KvCommand::OpenKeyspace { .. } => "open",
        KvCommand::ListKeyspaces => "list",
        KvCommand::Put { .. } => "put",
        KvCommand::BulkPut { .. } => "bulk_put",
        KvCommand::Flush { .. } => "flush",
        KvCommand::Compact { .. } | KvCommand::CompactAndIndex { .. } => "compact",
        KvCommand::BuildSecondaryIndex { .. } => "build_sidx",
        KvCommand::PollJob { .. } => "poll_job",
        KvCommand::Get { .. } => "get",
        KvCommand::Range { .. } => "range",
        KvCommand::SidxGet { .. } => "sidx_get",
        KvCommand::SidxRange { .. } => "sidx_range",
        KvCommand::Stat { .. } => "stat",
        KvCommand::WithDeadline { cmd, .. } => op_name(cmd),
    }
}
