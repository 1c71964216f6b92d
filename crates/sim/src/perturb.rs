//! Seeded schedule perturbation for concurrency tests.
//!
//! The OS scheduler explores very few interleavings of a multi-threaded
//! test: whichever thread wins each lock tends to keep winning, and CI
//! machines are depressingly consistent about it. This module injects
//! `thread::yield_now()` bursts at every shim-lock acquisition point
//! (`kvcsd_sim::sync` calls [`maybe_yield`] in debug builds), driven by a
//! deterministic per-seed decision stream, so running the same test under
//! two seeds exercises two genuinely different interleavings — and the
//! happens-before race detector (`sync.rs`) gets to observe them.
//!
//! # Determinism
//!
//! Perturbation is off unless a seed is installed, either via the
//! `KVCSD_PERTURB` environment variable or [`install_seed`]. Each thread
//! is assigned a *lane* (a small ordinal, in the order threads first hit
//! a yield point) and draws its decisions from
//! [`PerturbSchedule::new(seed, lane)`](PerturbSchedule::new): the
//! decision sequence for a lane is a pure function of `(seed, lane)`,
//! which is what the determinism self-tests pin down. (Which OS thread
//! lands in which lane still depends on scheduling — determinism is per
//! lane, not per thread id.)
//!
//! Yields are charged to the installed [`VirtualClock`] (~100 ns each,
//! see [`install_clock`]), never slept: perturbation must not distort the
//! virtual-time results a test asserts on any more than any other
//! simulated CPU work does.
//!
//! Everything here uses `OnceLock`/atomics/thread-locals only — it is
//! called from inside the `sync` shims and must not recurse into them.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::clock::VirtualClock;
use crate::rng::XorShift64;

/// Virtual nanoseconds charged per injected yield.
const YIELD_COST_NS: u64 = 100;

/// Probability of yielding at a given point is 1 in `YIELD_ONE_IN`.
const YIELD_ONE_IN: u64 = 16;

/// Seed installed programmatically; 0 means "not installed".
static OVERRIDE_SEED: AtomicU64 = AtomicU64::new(0);

/// Seed parsed (once) from `KVCSD_PERTURB`; 0 / unset / garbage = off.
static ENV_SEED: OnceLock<u64> = OnceLock::new();

/// Clock the injected yields are charged to.
static CLOCK: OnceLock<Arc<VirtualClock>> = OnceLock::new();

/// Lane ordinals, handed out in the order threads first hit a yield point.
static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// (seed the schedule was built for, this thread's schedule).
    static SCHEDULE: RefCell<Option<(u64, PerturbSchedule)>> = const { RefCell::new(None) };
}

fn env_seed() -> u64 {
    *ENV_SEED.get_or_init(|| {
        std::env::var("KVCSD_PERTURB")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    })
}

/// Install a perturbation seed programmatically (e.g. from a test),
/// taking precedence over `KVCSD_PERTURB`. A seed of 0 turns
/// perturbation off. Call it before the threads under test start, or
/// already-running threads keep their previous schedules.
///
/// Panics if the kvcsd-mc controlled scheduler is active: seeded
/// perturbation and exhaustive scheduling are mutually exclusive (the
/// reverse direction is enforced by `mc::Execution::begin`).
pub fn install_seed(seed: u64) {
    #[cfg(debug_assertions)]
    if seed != 0 && crate::mc::controlled_active() {
        panic!(
            "KVCSD_PERTURB and the kvcsd-mc controlled scheduler are mutually exclusive: \
             a perturbation seed was installed while an mc execution is active. The mc \
             explorer already owns every scheduling decision — injected yields would only \
             distort it. Finish the mc execution first, or drop the seed."
        );
    }
    OVERRIDE_SEED.store(seed, Ordering::Relaxed);
}

/// The seed currently driving perturbation, if any.
pub fn active_seed() -> Option<u64> {
    match OVERRIDE_SEED.load(Ordering::Relaxed) {
        0 => match env_seed() {
            0 => None,
            s => Some(s),
        },
        s => Some(s),
    }
}

/// Charge injected yields to `clock` (first installation wins; returns
/// whether this call installed it). Without a clock, yields still happen
/// but cost no virtual time.
pub fn install_clock(clock: &Arc<VirtualClock>) -> bool {
    CLOCK.set(Arc::clone(clock)).is_ok()
}

/// The deterministic per-lane decision stream. Public so tests can pin
/// "same seed ⇒ same schedule" without spawning threads.
#[derive(Debug, Clone)]
pub struct PerturbSchedule {
    rng: XorShift64,
}

impl PerturbSchedule {
    pub fn new(seed: u64, lane: u64) -> Self {
        // splitmix64 over (seed, lane) so neighbouring lanes do not get
        // correlated xorshift streams.
        let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self {
            rng: XorShift64::new(z ^ (z >> 31)),
        }
    }

    /// The next decision: `None` = run through, `Some(n)` = yield `n`
    /// times (1..=3) before taking the lock.
    pub fn next_decision(&mut self) -> Option<u64> {
        let x = self.rng.next_u64();
        if x.is_multiple_of(YIELD_ONE_IN) {
            Some(1 + (x >> 4) % 3)
        } else {
            None
        }
    }
}

/// Yield point. Called by the `kvcsd_sim::sync` shims on every lock /
/// `Shared` acquisition in debug builds; a no-op unless a seed is active.
pub fn maybe_yield() {
    let Some(seed) = active_seed() else {
        return;
    };
    let decision = SCHEDULE
        .try_with(|slot| {
            let mut slot = slot.borrow_mut();
            let rebuild = !matches!(&*slot, Some((s, _)) if *s == seed);
            if rebuild {
                let lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
                *slot = Some((seed, PerturbSchedule::new(seed, lane)));
            }
            slot.as_mut().map(|(_, sched)| sched.next_decision())
        })
        .ok()
        .flatten()
        .flatten();
    if let Some(n) = decision {
        for _ in 0..n {
            std::thread::yield_now();
        }
        if let Some(clock) = CLOCK.get() {
            clock.add(n * YIELD_COST_NS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, lane: u64, n: usize) -> Vec<Option<u64>> {
        let mut s = PerturbSchedule::new(seed, lane);
        (0..n).map(|_| s.next_decision()).collect()
    }

    #[test]
    fn same_seed_same_lane_same_schedule() {
        assert_eq!(stream(42, 0, 4096), stream(42, 0, 4096));
        assert_eq!(stream(42, 3, 4096), stream(42, 3, 4096));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(stream(1, 0, 4096), stream(2, 0, 4096));
    }

    #[test]
    fn different_lanes_differ() {
        assert_ne!(stream(9, 0, 4096), stream(9, 1, 4096));
    }

    #[test]
    fn schedule_actually_yields_sometimes() {
        let hits = stream(7, 0, 4096).iter().filter(|d| d.is_some()).count();
        // 1-in-16 odds over 4096 draws: expect ~256; insist on a sane band.
        assert!((64..1024).contains(&hits), "got {hits} yield decisions");
        for d in stream(7, 0, 4096).into_iter().flatten() {
            assert!((1..=3).contains(&d), "burst length out of range: {d}");
        }
    }

    #[test]
    fn inactive_without_seed_or_with_zero() {
        // Cannot assert on the process-global env here; just pin the
        // decision plumbing: install_seed(0) means "off".
        install_seed(0);
        assert_eq!(OVERRIDE_SEED.load(Ordering::Relaxed), 0);
    }
}
