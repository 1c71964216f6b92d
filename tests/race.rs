//! Self-tests for the happens-before race detector (DESIGN.md §11).
//!
//! The detector only exists in debug builds, so every test that expects
//! a report first checks [`detector_on`] and degrades to a no-op
//! otherwise — the same binary stays green under `--release`.
//!
//! The deliberately racy fixtures use a plain `std::sync::mpsc` channel
//! to force a *real-time* ordering the detector cannot see: the channel
//! is not a `kvcsd::sim::sync` primitive, so it transfers no vector
//! clock, and the second access is guaranteed to observe the first as
//! unordered. That makes the "must panic" outcome deterministic instead
//! of a timing-dependent maybe.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use kvcsd::sim::perturb::PerturbSchedule;
use kvcsd::sim::sync::{spawn, Mutex, Shared};

/// True when the race detector is compiled in (debug builds).
fn detector_on() -> bool {
    cfg!(debug_assertions)
}

/// Two threads, one `Shared` cell, no lock and no `spawn`/`join` edge:
/// the detector must panic and the report must name both access sites.
#[test]
fn unordered_writes_panic_with_both_sites() {
    if !detector_on() {
        return;
    }
    let cell = Arc::new(Shared::new(0u64));
    let (tx, rx) = mpsc::channel();
    #[expect(
        clippy::disallowed_methods,
        reason = "deliberately-racy fixture: a shim spawn would add the very happens-before edge this test must not have"
    )]
    let racer = {
        let cell = Arc::clone(&cell);
        thread::Builder::new()
            .name("racer".into())
            .spawn(move || {
                *cell.write() = 1;
                tx.send(()).unwrap();
            })
            .unwrap()
    };
    // The channel guarantees the racer's write already happened in real
    // time; the detector still (correctly) sees it as unordered.
    rx.recv().unwrap();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        *cell.write() = 2;
    }));
    let _ = racer.join();
    let err = caught.expect_err("unordered writes must be reported");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a message");
    assert!(
        msg.contains("data race detected"),
        "unexpected report: {msg}"
    );
    assert!(msg.contains("thread 'racer'"), "missing racer site: {msg}");
    let sites = msg.matches("tests/race.rs:").count();
    assert!(
        sites >= 2,
        "report must name both access sites in this file, found {sites}: {msg}"
    );
}

/// The lock-protected twin of the racy fixture: identical shape, but both
/// accesses happen under one shim mutex, whose release→acquire clock
/// transfer orders them. Must stay silent.
#[test]
fn lock_protected_twin_is_silent() {
    let cell = Arc::new(Shared::new(0u64));
    let guard = Arc::new(Mutex::new(()));
    let (tx, rx) = mpsc::channel();
    #[expect(
        clippy::disallowed_methods,
        reason = "the lock-protected twin must mirror the racy fixture's raw spawn so only the mutex orders the accesses"
    )]
    let worker = {
        let cell = Arc::clone(&cell);
        let guard = Arc::clone(&guard);
        thread::spawn(move || {
            let _g = guard.lock();
            *cell.write() = 1;
            drop(_g);
            tx.send(()).unwrap();
        })
    };
    rx.recv().unwrap();
    {
        let _g = guard.lock();
        *cell.write() += 1;
    }
    worker.join().unwrap();
    let _g = guard.lock();
    assert_eq!(*cell.read(), 2);
}

/// `update`/`get` are self-synchronized: many std threads hammering one
/// cell with no external lock is clean by construction and lossless.
#[test]
fn update_get_needs_no_external_ordering() {
    let cell = Arc::new(Shared::new(0u64));
    #[expect(
        clippy::disallowed_methods,
        reason = "proves self-synchronized ops need no spawn/join edge; raw std threads are the point"
    )]
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                for _ in 0..500 {
                    cell.update(|v| *v += 1);
                    let _ = cell.get();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.get(), 2000);
}

/// `kvcsd::sim::sync::spawn`/`join` carry vector clocks, so plain
/// `read`/`write` accesses separated by a join are ordered without any
/// lock.
#[test]
fn spawn_join_orders_plain_accesses() {
    let cell = Arc::new(Shared::new(0u64));
    let child = {
        let cell = Arc::clone(&cell);
        spawn(move || {
            *cell.write() = 7;
        })
    };
    child.join().unwrap();
    assert_eq!(*cell.read(), 7);
}

/// Same seed ⇒ same perturbation schedule, per lane; different seeds and
/// different lanes diverge. This is what makes a `KVCSD_PERTURB` failure
/// reproducible from the seed printed in CI.
#[test]
fn perturbation_schedule_is_deterministic_per_seed() {
    let draw = |seed, lane| {
        let mut s = PerturbSchedule::new(seed, lane);
        (0..2048).map(|_| s.next_decision()).collect::<Vec<_>>()
    };
    assert_eq!(draw(42, 0), draw(42, 0), "same seed+lane must replay");
    assert_ne!(draw(42, 0), draw(43, 0), "seeds must decorrelate");
    assert_ne!(draw(42, 0), draw(42, 1), "lanes must decorrelate");
    assert!(
        draw(42, 0).iter().any(|d| d.is_some()),
        "schedule never yields"
    );
}
