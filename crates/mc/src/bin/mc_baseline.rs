//! Prints the mc baseline: explored-schedule counts per harness, as
//! JSON on stdout. CI runs this (debug profile — the controlled
//! scheduler does not exist in release) and diffs the output against the
//! committed `mc_baseline.json`; a drift means the schedule space of a
//! harness changed (new scheduling points, changed reduction), which is
//! worth a human look even when every schedule still passes.
//!
//! Budgets here are fixed and must stay in sync with `tests/mc.rs`, so
//! the numbers CI diffs are the numbers the test suite actually
//! explores. The DFS is deterministic, so the counts are too. The
//! network explorer's run count is pinned exactly by its sweep in
//! `tests/mc.rs`, next to the scenario it counts.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use kvcsd_mc::{harnesses, McConfig};

fn main() {
    if !cfg!(debug_assertions) {
        eprintln!("mc_baseline requires a debug build: release compiles the scheduler out");
        std::process::exit(2);
    }
    let full = McConfig::default();
    let bounded = McConfig {
        preemption_bound: Some(2),
        ..McConfig::default()
    };
    let naive = McConfig {
        dpor: false,
        ..McConfig::default()
    };

    let mut entries: Vec<(&str, u64)> = Vec::new();
    let mut failed = false;

    for (name, report) in [
        ("admission-bands", harnesses::admission_bands(&full)),
        ("health-promotion", harnesses::health_promotion(&full)),
        ("racy-increment", harnesses::racy_increment(&full)),
        ("replica-dedup-full", harnesses::replica_dedup(&full)),
        ("replica-dedup-pb2", harnesses::replica_dedup(&bounded)),
        ("three-locks-dpor", harnesses::three_locks(&full)),
        ("three-locks-naive", harnesses::three_locks(&naive)),
        ("window-matching", harnesses::window_matching(&full)),
        ("window-retry", harnesses::window_retry(&full)),
    ] {
        // racy-increment is *supposed* to fail: its baseline entry is
        // the schedule count at which the counterexample is found.
        if name != "racy-increment" {
            if let Some(f) = &report.failure {
                eprintln!("mc_baseline: {name} failed: {:?}: {}", f.kind, f.message);
                failed = true;
            }
        } else if report.failure.is_none() {
            eprintln!("mc_baseline: racy-increment found no counterexample");
            failed = true;
        }
        entries.push((name, report.schedules));
    }

    entries.sort();
    println!("{{");
    let last = entries.len() - 1;
    for (i, (name, count)) in entries.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        println!("  \"{name}\": {count}{comma}");
    }
    println!("}}");

    if failed {
        std::process::exit(1);
    }
}
