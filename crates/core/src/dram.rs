//! SoC DRAM budget accounting.
//!
//! The SoC has 8 GB of DRAM (scaled down together with the dataset in
//! laptop runs). Ingest buffers and external-sort runs allocate from this
//! budget; the sort degrades to more merge passes instead of failing when
//! memory is tight — exactly the trade-off the paper describes for
//! LSM-trees vs. memory-hungry bitmap indexes.

use kvcsd_sim::sync::{Hold, Shared};

/// A shared DRAM budget with lock-free-style reserve/release.
///
/// The `used` gauge is a [`Shared`] cell: every reserve/release is a
/// single self-synchronized `update`, so reservations are race-free by
/// construction and the debug-build happens-before detector observes
/// every access (DESIGN.md §11).
#[derive(Debug)]
pub struct DramBudget {
    limit: u64,
    used: Shared<u64>,
}

impl DramBudget {
    pub fn new(limit_bytes: u64) -> Self {
        Self {
            limit: limit_bytes,
            used: Shared::new(0),
        }
    }

    pub fn limit(&self) -> u64 {
        self.limit
    }

    pub fn used(&self) -> u64 {
        self.used.get()
    }

    pub fn available(&self) -> u64 {
        self.limit.saturating_sub(self.used())
    }

    /// Try to reserve exactly `bytes`; false if it would exceed the limit.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        let limit = self.limit;
        self.used.update(|used| {
            if *used + bytes > limit {
                false
            } else {
                *used += bytes;
                true
            }
        })
    }

    /// Reserve as much as possible up to `want`, at least `min`.
    /// Returns the granted amount, or `None` if even `min` does not fit.
    pub fn reserve_up_to(&self, want: u64, min: u64) -> Option<u64> {
        let mut ask = want.max(min);
        loop {
            if self.try_reserve(ask) {
                return Some(ask);
            }
            if ask == min {
                return None;
            }
            ask = (ask / 2).max(min);
        }
    }

    /// Return `bytes` to the pool.
    pub fn release(&self, bytes: u64) {
        self.used.update(|used| {
            debug_assert!(*used >= bytes, "double release");
            *used = used.saturating_sub(bytes);
        });
    }

    /// Fraction of the budget currently in use (0.0 ..= 1.0). Admission
    /// control's DRAM pressure signal.
    pub fn usage_fraction(&self) -> f64 {
        if self.limit == 0 {
            return 1.0;
        }
        self.used() as f64 / self.limit as f64
    }

    /// Reserve exactly `bytes`, returning an RAII guard that releases on
    /// drop. `None` if the reservation would exceed the limit.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn reserve(&self, bytes: u64) -> Option<DramReservation<'_>> {
        if self.try_reserve(bytes) {
            Some(DramReservation {
                budget: self,
                bytes,
                _hold: Hold::new("a DRAM reservation"),
            })
        } else {
            None
        }
    }

    /// Guard-returning form of [`DramBudget::reserve_up_to`]: as much as
    /// possible up to `want`, at least `min`, released on drop.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn reserve_up_to_guarded(&self, want: u64, min: u64) -> Option<DramReservation<'_>> {
        let bytes = self.reserve_up_to(want, min)?;
        Some(DramReservation {
            budget: self,
            bytes,
            _hold: Hold::new("a DRAM reservation"),
        })
    }
}

/// An RAII DRAM reservation: the bytes return to the budget when the
/// guard drops, so early-error returns can never leak the reservation.
/// Like a shim guard, it must not be held across a charged wait.
#[derive(Debug)]
pub struct DramReservation<'a> {
    budget: &'a DramBudget,
    bytes: u64,
    _hold: Hold,
}

impl DramReservation<'_> {
    /// Bytes held by this reservation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Transfer ownership of the bytes to the caller *without* releasing
    /// them — for reservations that legitimately outlive the reserving
    /// call (e.g. a keyspace's ingest buffer, released only at seal or
    /// delete). The caller becomes responsible for the matching
    /// [`DramBudget::release`].
    pub fn leak(mut self) -> u64 {
        std::mem::take(&mut self.bytes)
    }
}

impl Drop for DramReservation<'_> {
    fn drop(&mut self) {
        if self.bytes > 0 {
            self.budget.release(self.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let b = DramBudget::new(1000);
        assert!(b.try_reserve(600));
        assert_eq!(b.used(), 600);
        assert_eq!(b.available(), 400);
        assert!(!b.try_reserve(500));
        b.release(600);
        assert!(b.try_reserve(1000));
    }

    #[test]
    fn reserve_up_to_halves_until_fit() {
        let b = DramBudget::new(1000);
        b.try_reserve(800);
        let got = b.reserve_up_to(1000, 100).unwrap();
        assert!((100..=200).contains(&got), "got {got}");
    }

    #[test]
    fn reserve_up_to_fails_below_min() {
        let b = DramBudget::new(100);
        b.try_reserve(90);
        assert_eq!(b.reserve_up_to(50, 20), None);
        assert_eq!(b.used(), 90, "failed reservation must not leak");
    }

    #[test]
    fn guard_releases_on_drop_and_on_early_return() {
        let b = DramBudget::new(1000);
        fn failing_path(b: &DramBudget) -> Result<(), ()> {
            let _guard = b.reserve(400).ok_or(())?;
            Err(()) // early error: the guard must still release
        }
        assert!(failing_path(&b).is_err());
        assert_eq!(b.used(), 0, "early-error return leaked the reservation");
        let g = b.reserve(600).unwrap();
        assert_eq!(g.bytes(), 600);
        assert_eq!(b.used(), 600);
        drop(g);
        assert_eq!(b.used(), 0);
        assert!(b.reserve(1001).is_none());
    }

    #[test]
    fn guard_leak_transfers_ownership() {
        let b = DramBudget::new(1000);
        let g = b.reserve_up_to_guarded(800, 100).unwrap();
        let bytes = g.leak();
        assert_eq!(bytes, 800);
        assert_eq!(b.used(), 800, "leak must not release");
        b.release(bytes);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn usage_fraction_tracks_pressure() {
        let b = DramBudget::new(1000);
        assert_eq!(b.usage_fraction(), 0.0);
        b.try_reserve(850);
        assert!((b.usage_fraction() - 0.85).abs() < 1e-12);
        assert_eq!(DramBudget::new(0).usage_fraction(), 1.0);
    }

    #[test]
    fn concurrent_reservations_never_exceed_limit() {
        use std::sync::Arc;
        let b = Arc::new(DramBudget::new(10_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = Arc::clone(&b);
            handles.push(kvcsd_sim::sync::spawn(move || {
                for _ in 0..1000 {
                    if b.try_reserve(7) {
                        assert!(b.used() <= 10_000);
                        b.release(7);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.used(), 0);
    }
}
