//! Overload control: admission gating, write stalls and deadlines.
//!
//! The paper's headline win — compaction and index builds deferred and
//! offloaded to the device — means ingest can outrun background work. On
//! the real hardware (4× A53, 8 GB DRAM) the device must shed or stall
//! load rather than fall over. This module is the single pressure model
//! every command path consults:
//!
//! * Three pressure signals — SoC DRAM usage ([`crate::DramBudget`]),
//!   pending-background-job count (the job queue is bounded), and
//!   per-keyspace *compaction debt* (bytes ingested since the last
//!   COMPACT) — feed an [`AdmissionGate`] with high/low watermarks.
//! * Writes pass through RocksDB-style bands: **slowdown** (a simulated
//!   delay charged to the clock and ledger, then admit), **stall** (a
//!   larger charged delay, command *not* executed, `Stalled` returned)
//!   and **reject** (`Busy`, fail fast). The stall band is hysteretic:
//!   it engages at the high watermark and releases only once pressure
//!   falls below the low watermark, so bursts see a clean
//!   engage → drain → release cycle instead of flapping.
//! * Queries are never stalled or rejected — reads keep serving under
//!   overload — but they do absorb the slowdown charge.
//! * Background-job submission only checks the queue bound.
//!
//! Every decision is a pure function of the sampled pressure and the
//! hysteresis flag, so a seeded workload replays to identical admission
//! decisions. Stalls charge the [`VirtualClock`] — never a wall-clock
//! sleep (the root `clippy.toml` disallows `std::thread::sleep`
//! outside kvcsd-sim).

use kvcsd_sim::sync::Shared;
use kvcsd_sim::VirtualClock;

use crate::error::DeviceError;
use crate::Result;

/// Watermarks and charges for the admission gate. Lives in
/// `DeviceConfig` so harnesses can shrink the thresholds to provoke
/// overload with small workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// DRAM usage fraction at which the stall band engages.
    pub dram_high: f64,
    /// DRAM usage fraction below which the stall band releases.
    pub dram_low: f64,
    /// DRAM usage fraction at which writes are rejected outright.
    pub dram_reject: f64,
    /// Background-job queue bound; submissions beyond it are `Busy`.
    pub max_pending_jobs: usize,
    /// Compaction debt (bytes since last COMPACT) that triggers slowdown.
    pub debt_slowdown_bytes: u64,
    /// Compaction debt at which the stall band engages.
    pub debt_stall_bytes: u64,
    /// Compaction debt at which writes are rejected outright.
    pub debt_reject_bytes: u64,
    /// Simulated delay charged per slowed-down command.
    pub slowdown_ns: u64,
    /// Simulated delay charged per stalled command.
    pub stall_ns: u64,
}

impl AdmissionConfig {
    /// Gating effectively disabled: watermarks above 1.0 and unreachable
    /// debt/queue bounds. For harnesses that drive the device into states
    /// (e.g. deliberately exhausted DRAM) where gating would get in the
    /// way of what they test.
    pub fn permissive() -> Self {
        Self {
            dram_high: 2.0,
            dram_low: 2.0,
            dram_reject: 2.0,
            max_pending_jobs: usize::MAX,
            debt_slowdown_bytes: u64::MAX,
            debt_stall_bytes: u64::MAX,
            debt_reject_bytes: u64::MAX,
            slowdown_ns: 0,
            stall_ns: 0,
        }
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            dram_high: 0.85,
            dram_low: 0.60,
            dram_reject: 0.97,
            max_pending_jobs: 64,
            debt_slowdown_bytes: 64 << 20,
            debt_stall_bytes: 256 << 20,
            debt_reject_bytes: 1 << 30,
            slowdown_ns: 100_000, // 0.1 ms per slowed write
            stall_ns: 1_000_000,  // 1 ms per stalled write
        }
    }
}

/// One sample of the three pressure signals, taken at admission time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureSample {
    /// [`crate::DramBudget::usage_fraction`] at sampling time.
    pub dram_usage: f64,
    /// Jobs sitting in the background queue (not yet run).
    pub pending_jobs: usize,
    /// Bytes ingested into the target keyspace since its last COMPACT.
    pub compaction_debt: u64,
}

/// What the gate tells a command path to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// No pressure: execute immediately.
    Admit,
    /// Charge `charge_ns` of simulated delay, then execute.
    Slowdown { charge_ns: u64 },
    /// Charge `charge_ns`, do NOT execute, return `KvStatus::Stalled`.
    Stall { charge_ns: u64 },
    /// Do not execute, return `KvStatus::Busy` naming the exhausted
    /// resource.
    Reject { reason: &'static str },
}

/// The device-wide admission gate. One instance per device; every
/// ingest/query/job-submission entry point consults it.
#[derive(Debug)]
pub struct AdmissionGate {
    cfg: AdmissionConfig,
    /// Hysteresis flag for the stall band: set at the high watermark,
    /// cleared below the low watermark. A self-synchronized [`Shared`]
    /// flag, so the race detector observes every access (DESIGN.md §11).
    engaged: Shared<bool>,
}

impl AdmissionGate {
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            engaged: Shared::new(false),
        }
    }

    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// True while the stall band is engaged (between the high-watermark
    /// crossing and the drop below the low watermark).
    pub fn is_engaged(&self) -> bool {
        self.engaged.get()
    }

    /// Admission decision for a write-path command (PUT, BulkPut).
    ///
    /// Deterministic: the outcome depends only on `s` and the hysteresis
    /// flag, which is itself a pure function of the sample history.
    pub fn admit_write(&self, s: &PressureSample) -> Decision {
        // Reject band: fail fast, naming the exhausted resource.
        if s.pending_jobs >= self.cfg.max_pending_jobs {
            return Decision::Reject {
                reason: "background job queue full",
            };
        }
        if s.dram_usage >= self.cfg.dram_reject {
            return Decision::Reject {
                reason: "SoC DRAM exhausted",
            };
        }
        if s.compaction_debt >= self.cfg.debt_reject_bytes {
            return Decision::Reject {
                reason: "compaction debt limit",
            };
        }

        // Stall band with hysteresis.
        let above_high =
            s.dram_usage >= self.cfg.dram_high || s.compaction_debt >= self.cfg.debt_stall_bytes;
        let below_low =
            s.dram_usage < self.cfg.dram_low && s.compaction_debt < self.cfg.debt_slowdown_bytes;
        if above_high {
            self.engaged.set(true);
            return Decision::Stall {
                charge_ns: self.cfg.stall_ns,
            };
        }
        if self.is_engaged() {
            if below_low {
                self.engaged.set(false);
            } else {
                return Decision::Stall {
                    charge_ns: self.cfg.stall_ns,
                };
            }
        }

        // Slowdown band.
        if s.compaction_debt >= self.cfg.debt_slowdown_bytes || s.dram_usage >= self.cfg.dram_low {
            return Decision::Slowdown {
                charge_ns: self.cfg.slowdown_ns,
            };
        }
        Decision::Admit
    }

    /// Admission decision for a query. Reads keep serving under overload:
    /// never stalled or rejected, at most slowed down while the stall
    /// band is engaged.
    pub fn admit_query(&self, s: &PressureSample) -> Decision {
        if self.is_engaged() || s.dram_usage >= self.cfg.dram_high {
            Decision::Slowdown {
                charge_ns: self.cfg.slowdown_ns,
            }
        } else {
            Decision::Admit
        }
    }

    /// Bounded-queue check for submitting a background job.
    pub fn admit_job(&self, pending_jobs: usize) -> Result<()> {
        if pending_jobs >= self.cfg.max_pending_jobs {
            return Err(DeviceError::Busy("background job queue full"));
        }
        Ok(())
    }
}

/// A command deadline bound to the device's virtual clock.
///
/// Copyable and cheap: threaded through compaction and index-build phase
/// boundaries so half-done background work can stop (and unwind via the
/// idempotent seal path) as soon as its budget expires.
#[derive(Debug, Clone, Copy)]
pub struct Deadline<'a> {
    clock: Option<&'a VirtualClock>,
    deadline_ns: Option<u64>,
}

impl<'a> Deadline<'a> {
    /// No deadline: `check` always passes.
    pub fn none() -> Deadline<'static> {
        Deadline {
            clock: None,
            deadline_ns: None,
        }
    }

    /// A deadline at absolute sim time `deadline_ns` (None = unbounded).
    pub fn new(clock: &'a VirtualClock, deadline_ns: Option<u64>) -> Deadline<'a> {
        Deadline {
            clock: Some(clock),
            deadline_ns,
        }
    }

    /// The absolute expiry, if any.
    pub fn deadline_ns(&self) -> Option<u64> {
        self.deadline_ns
    }

    /// Fail with [`DeviceError::DeadlineExceeded`] once the clock has
    /// reached the deadline. Called at admission and at job-step
    /// boundaries.
    pub fn check(&self) -> Result<()> {
        if let (Some(clock), Some(d)) = (self.clock, self.deadline_ns) {
            if clock.now_ns() >= d {
                return Err(DeviceError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> AdmissionConfig {
        AdmissionConfig {
            dram_high: 0.8,
            dram_low: 0.5,
            dram_reject: 0.95,
            max_pending_jobs: 4,
            debt_slowdown_bytes: 1000,
            debt_stall_bytes: 4000,
            debt_reject_bytes: 16_000,
            slowdown_ns: 10,
            stall_ns: 100,
        }
    }

    fn sample(dram: f64, jobs: usize, debt: u64) -> PressureSample {
        PressureSample {
            dram_usage: dram,
            pending_jobs: jobs,
            compaction_debt: debt,
        }
    }

    #[test]
    fn clear_pressure_admits() {
        let g = AdmissionGate::new(tight());
        assert_eq!(g.admit_write(&sample(0.1, 0, 0)), Decision::Admit);
        assert!(!g.is_engaged());
    }

    #[test]
    fn bands_escalate_with_debt() {
        let g = AdmissionGate::new(tight());
        assert_eq!(
            g.admit_write(&sample(0.1, 0, 2000)),
            Decision::Slowdown { charge_ns: 10 }
        );
        assert_eq!(
            g.admit_write(&sample(0.1, 0, 5000)),
            Decision::Stall { charge_ns: 100 }
        );
        assert!(matches!(
            g.admit_write(&sample(0.1, 0, 20_000)),
            Decision::Reject { .. }
        ));
    }

    #[test]
    fn stall_band_is_hysteretic() {
        let g = AdmissionGate::new(tight());
        // Cross the high watermark: engage.
        assert!(matches!(
            g.admit_write(&sample(0.85, 0, 0)),
            Decision::Stall { .. }
        ));
        assert!(g.is_engaged());
        // Pressure eases but stays above the low watermark: still stalled.
        assert!(matches!(
            g.admit_write(&sample(0.7, 0, 0)),
            Decision::Stall { .. }
        ));
        assert!(g.is_engaged());
        // Below the low watermark: release, and this write proceeds.
        assert_eq!(g.admit_write(&sample(0.3, 0, 0)), Decision::Admit);
        assert!(!g.is_engaged());
    }

    #[test]
    fn full_job_queue_rejects_writes_and_jobs() {
        let g = AdmissionGate::new(tight());
        assert!(matches!(
            g.admit_write(&sample(0.1, 4, 0)),
            Decision::Reject {
                reason: "background job queue full"
            }
        ));
        assert!(g.admit_job(3).is_ok());
        assert!(matches!(g.admit_job(4), Err(DeviceError::Busy(_))));
    }

    #[test]
    fn queries_are_never_stalled_or_rejected() {
        let g = AdmissionGate::new(tight());
        // Engage the stall band (a rejecting sample would short-circuit
        // before the hysteresis flag), then pile on reject-level pressure.
        g.admit_write(&sample(0.85, 0, 0));
        assert!(g.is_engaged());
        match g.admit_query(&sample(0.99, 10, 100_000)) {
            Decision::Slowdown { .. } => {}
            other => panic!("queries must only slow down, got {other:?}"),
        }
        let calm = AdmissionGate::new(tight());
        assert_eq!(calm.admit_query(&sample(0.1, 0, 0)), Decision::Admit);
    }

    #[test]
    fn decisions_are_deterministic() {
        let samples = [
            sample(0.1, 0, 0),
            sample(0.9, 0, 0),
            sample(0.7, 0, 0),
            sample(0.3, 0, 0),
            sample(0.1, 0, 5000),
            sample(0.1, 9, 0),
        ];
        let run = || {
            let g = AdmissionGate::new(tight());
            samples.iter().map(|s| g.admit_write(s)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same samples must replay identically");
    }

    #[test]
    fn deadline_checks_against_the_clock() {
        let clock = VirtualClock::new();
        assert!(Deadline::none().check().is_ok());
        assert!(Deadline::new(&clock, None).check().is_ok());
        let d = Deadline::new(&clock, Some(100));
        assert!(d.check().is_ok());
        clock.advance(99);
        assert!(d.check().is_ok());
        clock.advance(1);
        assert!(matches!(d.check(), Err(DeviceError::DeadlineExceeded)));
    }
}
