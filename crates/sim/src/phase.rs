//! Phase orchestration: snapshot the ledger around a span of real work and
//! convert the delta into simulated time.

use std::sync::Arc;

use crate::clock::VirtualClock;
use crate::ledger::{IoLedger, LedgerSnapshot};
use crate::model::{PhaseTime, TimeModel};

/// A completed phase: its name, parallelism, measured work and duration.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    pub name: String,
    pub host_threads: u32,
    pub work: LedgerSnapshot,
    pub time: PhaseTime,
    /// Whether the phase ran in the device background (did not block the
    /// host application).
    pub background: bool,
}

/// Runs named phases, accumulating a report list and advancing the clock.
///
/// Foreground phases advance the virtual clock; background (device) phases
/// do not — their duration is recorded but, exactly as the paper argues,
/// the host application never waits for them.
#[derive(Debug)]
pub struct PhaseRunner {
    ledger: Arc<IoLedger>,
    model: TimeModel,
    clock: VirtualClock,
    reports: Vec<PhaseReport>,
}

impl PhaseRunner {
    pub fn new(ledger: Arc<IoLedger>, model: TimeModel) -> Self {
        Self {
            ledger,
            model,
            clock: VirtualClock::new(),
            reports: Vec::new(),
        }
    }

    pub fn ledger(&self) -> &Arc<IoLedger> {
        &self.ledger
    }

    pub fn model(&self) -> &TimeModel {
        &self.model
    }

    /// Current simulated time in seconds (sum of foreground phases so far).
    pub fn now_secs(&self) -> f64 {
        self.clock.now_secs()
    }

    /// Execute `f` as a foreground phase with `host_threads` pinned threads.
    /// Returns `f`'s result; the phase duration is appended to the report
    /// list and added to the virtual clock.
    pub fn foreground<R>(&mut self, name: &str, host_threads: u32, f: impl FnOnce() -> R) -> R {
        let before = self.ledger.snapshot();
        let out = f();
        let work = self.ledger.snapshot().since(&before);
        let time = self.model.phase_time(&work, host_threads);
        self.clock.advance((time.elapsed_s * 1e9) as u64);
        self.reports.push(PhaseReport {
            name: name.to_string(),
            host_threads,
            work,
            time,
            background: false,
        });
        out
    }

    /// Execute `f` as a device background phase: its time is recorded but
    /// the virtual clock (host-visible time) does not advance.
    pub fn background<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let before = self.ledger.snapshot();
        let out = f();
        let work = self.ledger.snapshot().since(&before);
        let time = self.model.device_phase_time(&work);
        self.reports.push(PhaseReport {
            name: name.to_string(),
            host_threads: 0,
            work,
            time,
            background: true,
        });
        out
    }

    /// All phases recorded so far, in execution order.
    pub fn reports(&self) -> &[PhaseReport] {
        &self.reports
    }

    /// Duration of the most recent phase, in seconds.
    pub fn last_elapsed_s(&self) -> f64 {
        self.reports.last().map(|r| r.time.elapsed_s).unwrap_or(0.0)
    }

    /// Ledger work of the most recent phase.
    pub fn last_work(&self) -> LedgerSnapshot {
        self.reports
            .last()
            .map(|r| r.work.clone())
            .unwrap_or_default()
    }

    /// Sum of foreground phase durations (what the host application saw).
    pub fn foreground_secs(&self) -> f64 {
        self.reports
            .iter()
            .filter(|r| !r.background)
            .map(|r| r.time.elapsed_s)
            .sum()
    }

    /// Sum of background phase durations (hidden from the application).
    pub fn background_secs(&self) -> f64 {
        self.reports
            .iter()
            .filter(|r| r.background)
            .map(|r| r.time.elapsed_s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn runner() -> PhaseRunner {
        let ledger = Arc::new(IoLedger::new(16, 4096));
        PhaseRunner::new(ledger, TimeModel::new(SimConfig::default()))
    }

    #[test]
    fn foreground_advances_clock() {
        let mut r = runner();
        let ledger = Arc::clone(r.ledger());
        r.foreground("insert", 1, || ledger.charge_host_cpu(2e9));
        assert!((r.now_secs() - 2.0).abs() < 1e-6);
        assert_eq!(r.reports().len(), 1);
        assert!(!r.reports()[0].background);
        assert!((r.foreground_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn background_does_not_advance_clock() {
        let mut r = runner();
        let ledger = Arc::clone(r.ledger());
        r.background("compact", || ledger.charge_soc_cpu(4e9));
        assert_eq!(r.now_secs(), 0.0);
        assert!((r.background_secs() - 1.0).abs() < 1e-6); // 4 soc-s / 4 cores
        assert!(r.reports()[0].background);
    }

    #[test]
    fn phases_isolate_work() {
        let mut r = runner();
        let ledger = Arc::clone(r.ledger());
        r.foreground("a", 1, || ledger.charge_host_cpu(1e9));
        r.foreground("b", 1, || ledger.charge_host_cpu(3e9));
        assert_eq!(r.reports()[0].work.host_cpu_ns, 1_000_000_000);
        assert_eq!(r.reports()[1].work.host_cpu_ns, 3_000_000_000);
        assert!((r.last_elapsed_s() - 3.0).abs() < 1e-6);
        assert_eq!(r.last_work(), r.reports()[1].work);
    }

    #[test]
    fn returns_closure_result() {
        let mut r = runner();
        let x = r.foreground("calc", 1, || 42);
        assert_eq!(x, 42);
        let y = r.background("calc2", || "ok");
        assert_eq!(y, "ok");
    }
}
