//! A monotonically advancing virtual clock in nanoseconds.
//!
//! The clock is advisory: phase elapsed times are computed analytically by
//! [`crate::TimeModel`], and harnesses advance the clock by those amounts so
//! that multi-phase experiments report consistent cumulative timestamps.

use std::sync::atomic::{AtomicU64, Ordering};

/// Virtual time in nanoseconds since simulation start.
///
/// Shared freely across threads; all operations are atomic. Time never goes
/// backwards: [`VirtualClock::advance_to`] is a max-update.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: AtomicU64,
}

impl VirtualClock {
    /// A clock starting at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Acquire)
    }

    /// Current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }

    /// Advance the clock by `delta_ns`, returning the new time. A charged
    /// wait: debug builds panic if a shim guard is held across it
    /// (`DESIGN.md` §13).
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn advance(&self, delta_ns: u64) -> u64 {
        crate::sync::charged_wait("VirtualClock::advance");
        self.add(delta_ns)
    }

    /// Move the clock forward to at least `target_ns` (max-update). A
    /// charged wait, like [`VirtualClock::advance`].
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn advance_to(&self, target_ns: u64) {
        crate::sync::charged_wait("VirtualClock::advance_to");
        self.now_ns.fetch_max(target_ns, Ordering::AcqRel);
    }

    /// [`VirtualClock::advance`] without the charged-wait check, for the
    /// perturbation yields the sync shims inject while a guard may be held.
    pub(crate) fn add(&self, delta_ns: u64) -> u64 {
        self.now_ns.fetch_add(delta_ns, Ordering::AcqRel) + delta_ns
    }
}

/// Capped doubling backoff: `base_ns` before attempt 1 (1-based),
/// doubling per attempt, never above `cap_ns`. Once doubling further
/// would drop bits it saturates at `cap_ns`, so any attempt number is
/// safe.
///
/// The one backoff formula in the workspace: client retries
/// (`RetryPolicy`), repeat job polls, replication retransmits
/// (`ShipPolicy`) and device-side job retries all call it. There is no
/// separate ceiling on the multiplier: a 2^20 ceiling, as `ShipPolicy`
/// applied, only changes a result past attempt 21, and no policy the
/// repo constructs gets that far below its cap.
#[inline]
pub fn doubling_backoff_ns(base_ns: u64, cap_ns: u64, attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1);
    if shift >= base_ns.leading_zeros() {
        return cap_ns; // doubling further would drop bits
    }
    (base_ns << shift).min(cap_ns)
}

/// Wall-clock stopwatch for self-timed benchmark harnesses.
///
/// [`WallTimer::start`] is the single place in the workspace allowed to
/// read host time (both `clippy.toml`s disallow `Instant::now`; it carries
/// the one `#[expect]`); everything that needs to measure the harness's
/// own speed — as opposed to the [`VirtualClock`]'s simulated time — goes
/// through a `WallTimer` so that no data-path code can accidentally
/// become wall-clock dependent and break simulation determinism.
#[derive(Debug, Clone, Copy)]
pub struct WallTimer(std::time::Instant);

impl WallTimer {
    /// Start a stopwatch at the current host time.
    #[expect(
        clippy::disallowed_methods,
        reason = "WallTimer is the one sanctioned host-time read, for harness self-timing"
    )]
    pub fn start() -> Self {
        Self(std::time::Instant::now())
    }

    /// Host time elapsed since [`WallTimer::start`].
    pub fn elapsed(&self) -> std::time::Duration {
        self.0.elapsed()
    }

    /// Elapsed host seconds since [`WallTimer::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_timer_moves_forward() {
        let t = WallTimer::start();
        std::hint::black_box((0..1000).sum::<u64>());
        assert!(t.elapsed_secs() >= 0.0);
        assert!(t.elapsed() >= std::time::Duration::ZERO);
    }

    #[test]
    fn doubling_backoff_matches_the_formulas_it_replaced() {
        // The four formulas the helper replaced, copied as written.
        fn retry_policy(base: u64, cap: u64, attempt: u32) -> u64 {
            let shift = attempt.saturating_sub(1);
            if shift >= base.leading_zeros() {
                return cap;
            }
            (base << shift).min(cap)
        }
        fn job_poll(base: u64, cap: u64, streak: u32) -> u64 {
            (base << (streak - 1).min(20)).min(cap)
        }
        fn ship_policy(base: u64, cap: u64, attempt: u32) -> u64 {
            base.saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
                .min(cap)
        }
        fn job_retry(base: u64, attempt: u32) -> u64 {
            base << (attempt - 1)
        }
        // (base, cap) of every backoff policy the repo constructs.
        let policies = [
            (100_000, 10_000_000), // RetryPolicy::default / none
            (1_000, 1_500),        // the client's capped-policy test
            (10_000, 1_000_000),   // Job::poll
            (100_000, 5_000_000),  // ShipPolicy::default
            (1_000, 1_000),        // the cluster protocol model's ShipPolicy
            (50_000, u64::MAX),    // device job retries (uncapped)
        ];
        for (base, cap) in policies {
            for attempt in 1..=21 {
                let got = doubling_backoff_ns(base, cap, attempt);
                assert_eq!(
                    got,
                    retry_policy(base, cap, attempt),
                    "{base}/{cap}#{attempt}"
                );
                assert_eq!(got, job_poll(base, cap, attempt), "{base}/{cap}#{attempt}");
                assert_eq!(
                    got,
                    ship_policy(base, cap, attempt),
                    "{base}/{cap}#{attempt}"
                );
            }
        }
        for attempt in 1..=21 {
            assert_eq!(
                doubling_backoff_ns(50_000, u64::MAX, attempt),
                job_retry(50_000, attempt)
            );
        }
    }

    #[test]
    fn starts_at_zero() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_secs(), 0.0);
    }

    #[test]
    fn advance_accumulates() {
        let c = VirtualClock::new();
        assert_eq!(c.advance(5), 5);
        assert_eq!(c.advance(10), 15);
        assert_eq!(c.now_ns(), 15);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = VirtualClock::new();
        c.advance_to(100);
        assert_eq!(c.now_ns(), 100);
        c.advance_to(50); // must not move backwards
        assert_eq!(c.now_ns(), 100);
        c.advance_to(200);
        assert_eq!(c.now_ns(), 200);
    }

    #[test]
    fn seconds_conversion() {
        let c = VirtualClock::new();
        c.advance(1_500_000_000);
        assert!((c.now_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_advance() {
        use std::sync::Arc;
        let c = Arc::new(VirtualClock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.advance(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now_ns(), 4000);
    }
}
