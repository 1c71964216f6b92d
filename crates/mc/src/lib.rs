//! kvcsd-mc: a systematic concurrency and protocol model checker over
//! the `kvcsd-sim` shims.
//!
//! The repo already has two dynamic concurrency oracles — the
//! happens-before race detector and the lock-order detector inside
//! `kvcsd_sim::sync` — plus seeded schedule perturbation
//! (`KVCSD_PERTURB`). All three *sample* interleavings; this crate
//! *enumerates* them:
//!
//! * **Thread interleavings** ([`check`]): runs a harness closure under
//!   the controlled scheduler in `kvcsd_sim::mc`, where every shim
//!   operation (lock/rwlock acquire, `Shared` access, spawn start, join)
//!   is a scheduling point, and explores the schedule tree by DFS with
//!   dynamic partial-order reduction (sleep + backtrack sets), an
//!   optional CHESS-style preemption bound, and optional state-hash
//!   pruning. The race detector and lockdep stay live under every
//!   explored schedule, so one exploration composes all three oracles.
//! * **Network decisions** ([`explore_net`]): enumerates every scripted
//!   bus-fault sequence (drop / duplicate / late / deliver) up to a depth
//!   bound against a deterministic scenario, recording the first one
//!   that panics and pruning extensions past what a run actually
//!   consumed. `tests/mc.rs` runs it over the real cluster router, with
//!   every run checked against the `tests/contract` client contract.
//!
//! A failing schedule is serialized as a [`Trace`] (see `trace.rs` for
//! the format) and written next to the build artifacts; pointing
//! `KVCSD_MC_REPLAY` at a trace file makes [`check`] replay exactly that
//! schedule instead of exploring, which turns any CI counterexample into
//! a deterministic local repro.
//!
//! Release builds compile the controlled scheduler out: [`check`] runs
//! the closure once, uncontrolled, and says so in the report
//! (`controlled: false`). The network explorer needs no scheduler and
//! works in every profile.

#![warn(clippy::unwrap_used, clippy::expect_used)]

mod net;
mod trace;

pub mod harnesses;

// The scheduler needs kvcsd-sim's runtime, which kvcsd-sim compiles in
// by its own profile. Rustdoc compiles this crate to collect doctests
// with debug assertions on, whichever profile built kvcsd-sim, so
// doctest collection always takes the uncontrolled path.
#[cfg(all(debug_assertions, not(doctest)))]
mod explore;

pub use net::{explore_net, net_alphabet, NetFailure, NetReport, NET_DEFAULT};
pub use trace::{Trace, TraceStep};

use std::path::PathBuf;
use std::sync::Arc;

/// Exploration budgets and strategy knobs.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Hard cap on executions; hitting it ends exploration with
    /// `completed: false` in the report.
    pub max_schedules: u64,
    /// Per-execution scheduling-point cap; exceeding it is reported as a
    /// [`FailureKind::StepLimit`] counterexample (a livelock, or a
    /// harness too big to enumerate).
    pub max_steps: usize,
    /// CHESS-style bound: maximum number of *preemptive* context
    /// switches per schedule (switching away from a thread whose next op
    /// is still enabled). Forced switches — the running thread blocked
    /// or exited — are free. `None` = unbounded (full exploration).
    /// Bounding is a coverage trade-off, not an unsoundness in what *is*
    /// explored: every schedule within the bound is still a real
    /// schedule.
    pub preemption_bound: Option<u32>,
    /// Dynamic partial-order reduction (sleep sets + backtrack sets).
    /// Off = naive full DFS over every enabled thread at every point;
    /// both modes visit the same reachable local states, DPOR just skips
    /// commuting permutations. Kept togglable so the reduction itself is
    /// testable (`dpor < naive` on schedule counts).
    pub dpor: bool,
    /// Prune executions whose (pending-ops, per-thread progress) hash
    /// was already seen. **Unsound** for harnesses whose behavior
    /// depends on data the hash cannot see (the hash covers control
    /// state only); off by default, useful for quick smoke sweeps of
    /// big harnesses.
    pub hash_pruning: bool,
    /// Where failure traces are written; defaults to
    /// `target/mc-failures/<harness>.mctrace`.
    pub trace_dir: Option<PathBuf>,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            max_schedules: 50_000,
            max_steps: 10_000,
            preemption_bound: None,
            dpor: true,
            hash_pruning: false,
            trace_dir: None,
        }
    }
}

/// Why a schedule failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A managed thread panicked (assertion, race-detector report,
    /// lockdep cycle — anything that unwinds).
    Panic,
    /// Every live managed thread's declared op was disabled: a modeled
    /// deadlock, found without ever hanging a real thread.
    Deadlock,
    /// The execution exceeded `max_steps` scheduling points.
    StepLimit,
    /// A replay diverged from its trace — the harness is not
    /// deterministic under a fixed schedule, or the trace is stale.
    ReplayDivergence,
}

/// A counterexample: what went wrong and the exact schedule that did it.
#[derive(Debug, Clone)]
pub struct McFailure {
    pub kind: FailureKind,
    pub message: String,
    /// The failing schedule, replayable via [`check`] +
    /// `KVCSD_MC_REPLAY` or [`replay`].
    pub trace: Trace,
    /// Where the trace was written, if serialization succeeded.
    pub trace_file: Option<PathBuf>,
}

/// Outcome of one [`check`] call.
#[derive(Debug, Clone)]
pub struct McReport {
    pub name: String,
    /// Executions run (including DPOR-pruned and replayed ones).
    pub schedules: u64,
    /// True when the explorer exhausted the schedule space within its
    /// budgets; false on budget exhaustion or failure-stop.
    pub completed: bool,
    /// False in release builds (single uncontrolled run).
    pub controlled: bool,
    pub failure: Option<McFailure>,
}

impl McReport {
    /// Panic with the counterexample if the check failed — the idiomatic
    /// test-side assertion.
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "kvcsd-mc [{}]: {:?} after {} schedule(s): {}\nschedule ({} steps): {}",
                self.name,
                f.kind,
                self.schedules,
                f.message,
                f.trace.steps.len(),
                f.trace_file
                    .as_ref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|| "<not written>".to_string()),
            );
        }
    }
}

/// Explore every schedule of `f` (within `cfg`'s budgets) under the
/// controlled scheduler, checking for panics and modeled deadlocks.
///
/// `f` runs once per schedule and must be self-contained: construct all
/// state inside the closure, spawn only via `kvcsd_sim::sync::spawn`,
/// and keep every cross-thread interaction on the shim types (raw
/// primitives would block invisibly and trip the no-progress watchdog).
///
/// If `KVCSD_MC_REPLAY` names a trace file recorded from this harness
/// (matched by `name`), the single traced schedule is replayed instead
/// of exploring.
pub fn check<F>(name: &str, cfg: &McConfig, f: F) -> McReport
where
    F: Fn() + Send + Sync + 'static,
{
    check_arc(name, cfg, Arc::new(f))
}

fn check_arc(name: &str, cfg: &McConfig, f: Arc<dyn Fn() + Send + Sync>) -> McReport {
    #[cfg(all(debug_assertions, not(doctest)))]
    {
        if let Ok(path) = std::env::var("KVCSD_MC_REPLAY") {
            if !path.is_empty() {
                match Trace::load(std::path::Path::new(&path)) {
                    Ok(t) if t.name == name => return explore::replay(cfg, f, &t),
                    // A trace for some other harness: this one explores
                    // normally (one env var, many checks per process).
                    Ok(_) => {}
                    Err(e) => panic!("kvcsd-mc: KVCSD_MC_REPLAY={path}: {e}"),
                }
            }
        }
        explore::run(name, cfg, f)
    }
    #[cfg(any(not(debug_assertions), doctest))]
    {
        let _ = cfg;
        uncontrolled_run(name, f)
    }
}

/// Replay one recorded schedule of `f`, verifying each step against the
/// trace. Debug builds only; in release this degrades to a single
/// uncontrolled run (the scheduler does not exist there).
pub fn replay<F>(trace: &Trace, f: F) -> McReport
where
    F: Fn() + Send + Sync + 'static,
{
    #[cfg(all(debug_assertions, not(doctest)))]
    {
        explore::replay(&McConfig::default(), Arc::new(f), trace)
    }
    #[cfg(any(not(debug_assertions), doctest))]
    {
        uncontrolled_run(&trace.name, Arc::new(f))
    }
}

/// The release-profile fallback: run the closure once on the OS
/// scheduler and report honestly that nothing was controlled.
#[cfg(any(not(debug_assertions), doctest))]
fn uncontrolled_run(name: &str, f: Arc<dyn Fn() + Send + Sync>) -> McReport {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f()));
    let failure = result.err().map(|p| McFailure {
        kind: FailureKind::Panic,
        message: panic_message(&*p),
        trace: Trace {
            name: name.to_string(),
            steps: Vec::new(),
        },
        trace_file: None,
    });
    McReport {
        name: name.to_string(),
        schedules: 1,
        completed: false,
        controlled: false,
        failure,
    }
}

/// The message a caught panic carried.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}
