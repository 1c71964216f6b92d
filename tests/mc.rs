//! Acceptance tests for kvcsd-mc: bounded-exhaustive verification of the
//! concurrency harnesses and of the cluster router under every scripted
//! replication-link fault sequence, plus the explorer's own self-tests
//! (counterexample discovery, replayable traces, DPOR < naive, release
//! no-op).
//!
//! The thread-interleaving tests are debug-only: the controlled
//! scheduler compiles out in release and `check` degrades to a single
//! uncontrolled run. The network sweep needs no scheduler and runs in
//! every profile.

#![allow(dead_code)]

mod contract;

use std::sync::Arc;

use contract::Fleet;
use kvcsd::cluster::{ClusterConfig, ShipPolicy};
use kvcsd::proto::{KvCommand, KvStatus, ShipKind};
use kvcsd::sim::BusFault;
use kvcsd_mc::{explore_net, McConfig};
#[cfg(debug_assertions)]
use kvcsd_mc::{harnesses, FailureKind};

#[cfg(debug_assertions)]
fn temp_trace_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("kvcsd-mc-{}-{tag}", std::process::id()))
}

#[cfg(debug_assertions)]
#[test]
fn health_promotion_has_exactly_one_winner_under_all_interleavings() {
    let report = harnesses::health_promotion(&McConfig::default());
    report.assert_ok();
    assert!(report.controlled && report.completed);
    assert!(
        report.schedules >= 6,
        "three racing CAS attempts have at least 3! dependent orders, saw {}",
        report.schedules
    );
}

#[cfg(debug_assertions)]
#[test]
fn admission_band_transitions_hold_under_all_interleavings() {
    let report = harnesses::admission_bands(&McConfig::default());
    report.assert_ok();
    assert!(report.controlled && report.completed);
}

#[cfg(debug_assertions)]
#[test]
fn replica_dedup_is_idempotent_under_all_interleavings() {
    let report = harnesses::replica_dedup(&McConfig::default());
    report.assert_ok();
    assert!(report.controlled && report.completed);
    assert!(
        report.schedules >= 100,
        "two concurrent ships share seq counter, bus and receiver state — the schedule \
         space should not collapse (saw {})",
        report.schedules
    );
}

#[cfg(debug_assertions)]
#[test]
fn window_completion_matching_holds_under_all_interleavings() {
    let report = harnesses::window_matching(&McConfig::default());
    report.assert_ok();
    assert!(report.controlled && report.completed);
    assert!(
        report.schedules >= 2,
        "two threads share the window's lock — the schedule space must not collapse \
         (saw {})",
        report.schedules
    );
}

#[cfg(debug_assertions)]
#[test]
fn window_retry_resends_under_all_interleavings() {
    let report = harnesses::window_retry(&McConfig::default());
    report.assert_ok();
    assert!(report.controlled && report.completed);
    assert!(
        report.schedules >= 2,
        "two threads share the window while one op is resent — the schedule space \
         must not collapse (saw {})",
        report.schedules
    );
}

// ---------------------------------------------------------------------
// The network explorer over the real router
// ---------------------------------------------------------------------

/// Pairs per committed batch, and their value length.
const NET_PAIRS: u32 = 8;
const NET_VALUE_LEN: usize = 16;
/// Anti-entropy passes after the heal.
const RECONCILE_ROUNDS: usize = 2;
/// The sweep's depth bound, and the exact number of distinct scripts it
/// runs: a scenario that stops reaching a branch changes the count.
const NET_DEPTH: usize = 4;
const NET_RUNS: u64 = 256;

/// One scripted run up to the kills: the fleet, and what it saw.
struct NetRun {
    fleet: Fleet,
    /// Batches committed before the run stopped committing.
    committed: usize,
    /// Deposed-side probes rejected at a fence: every ack the deposed
    /// primary attempted, and every stale ship the replica's receive
    /// fence counted.
    fenced_probes: u64,
}

/// Steps 1-3 of the scenario on a one-shard fleet, whose primary and
/// replica log are the two sides of the scripted link. Every ship gives
/// up after two attempts, so a deposition is two decisions away.
///
/// 1. Commit two batches the way [`Fleet::commit_batches`] does.
/// 2. Stop committing at the first deposition: a later anti-entropy
///    pass would re-ship what a missing promotion reseed dropped.
/// 3. Probe the deposed side: its acks are fenced, and its stale ships
///    install nothing in the replica log.
fn net_commit_and_probe(script: &[BusFault]) -> NetRun {
    let mut fleet = Fleet::new(
        ClusterConfig {
            shards: 1,
            ship: ShipPolicy {
                max_attempts: 2,
                ..ShipPolicy::default()
            },
            ..ClusterConfig::default()
        },
        'n',
        NET_PAIRS,
        NET_VALUE_LEN,
    );
    let r = Arc::clone(&fleet.router);
    r.shard_link(0).set_bus_script(script.to_vec());
    let committed = fleet.commit_batches_until(2, |r| r.has_deposed(0));
    // The contract has no epochs yet, so the epoch rule is asserted here.
    assert_eq!(
        r.shard_epoch(0),
        1 + r.events().len() as u64,
        "every promotion mints exactly one fencing epoch"
    );
    let held = r.with_deposed_device(0, |d| d.keyspaces().list());
    let log = r.replica_log(0);
    let mut fenced_probes = 0;
    for (local, name, _) in held.into_iter().flatten() {
        let rogue = KvCommand::Put {
            ks: local,
            key: b"rogue".to_vec(),
            value: b"write".to_vec(),
        };
        let resp = r.exec_on_deposed(0, rogue);
        assert!(
            matches!(resp, Err(KvStatus::EpochFenced { shard: 0 })),
            "{name}: the deposed primary answered past the epoch fence: {resp:?}"
        );
        fenced_probes += 1;
        let (accepted, fenced) = (log.accepted(), log.fenced());
        let _ = r.ship_from_deposed(0, &name);
        assert_eq!(
            log.accepted(),
            accepted,
            "{name}: a stale-epoch ship installed state past the receive fence"
        );
        fenced_probes += log.fenced() - fenced;
    }
    NetRun {
        fleet,
        committed,
        fenced_probes,
    }
}

impl NetRun {
    /// Steps 4-5: kill the promoted primary while the link is still
    /// scripted and check every committed pair; then heal the link, run
    /// anti-entropy to convergence, kill again and check once more.
    /// Returns the link decisions the run consumed.
    fn finish(mut self) -> usize {
        let r = Arc::clone(&self.fleet.router);
        self.fleet.kill_all_primaries();
        self.fleet.model.power_cut();
        self.fleet.verify_committed();
        // Clearing the script resets its count: read it first.
        let link = r.shard_link(0);
        let consumed = link.bus_script_consumed();
        link.clear_bus_script();
        for _ in 0..RECONCILE_ROUNDS {
            r.reconcile();
        }
        assert_eq!(
            r.reconcile(),
            0,
            "the replica did not converge in {RECONCILE_ROUNDS} anti-entropy rounds after the heal"
        );
        self.fleet.kill_all_primaries();
        self.fleet.model.power_cut();
        self.fleet.verify_committed();
        consumed
    }
}

/// The whole scenario for one script: what [`explore_net`] runs.
fn net_scenario(script: &[BusFault]) -> usize {
    net_commit_and_probe(script).finish()
}

#[test]
fn router_holds_the_replication_invariants_for_all_bus_scripts_to_depth_4() {
    let report = explore_net(NET_DEPTH, net_scenario);
    report.assert_ok();
    assert_eq!(
        report.runs, NET_RUNS,
        "distinct scripts run at depth {NET_DEPTH}"
    );
}

#[test]
fn clean_script_commits_both_batches_without_failover() {
    let run = net_commit_and_probe(&[]);
    let r = &run.fleet.router;
    assert_eq!(run.committed, 2);
    assert!(r.events().is_empty(), "a clean link deposes nobody");
    assert_eq!(r.shard_epoch(0), 1);
    assert_eq!(run.fenced_probes, 0);
    // The seal-time ship carried the sealed logs; only anti-entropy
    // ships the compacted form.
    let gens = r.replica_log(0).generations();
    for name in run.fleet.model.keyspaces() {
        let kind = gens.iter().find(|g| g.0 == name).map(|g| g.1);
        assert_eq!(kind, Some(ShipKind::Compacted), "{name}");
    }
    run.finish();
}

#[test]
fn double_drop_deposes_the_primary_and_fences_both_probes() {
    // Both attempts of the first seal-time ship drop: LinkDown, and the
    // primary is deposed on suspicion.
    let run = net_commit_and_probe(&[BusFault::Drop, BusFault::Drop]);
    let r = &run.fleet.router;
    let events = r.events();
    assert_eq!(events.len(), 1);
    assert!(events[0].suspected, "deposed on suspicion, not death");
    assert_eq!(r.shard_epoch(0), 2);
    assert!(r.has_deposed(0));
    assert_eq!(
        run.fenced_probes, 2,
        "the deposed ack and the deposed ship are both fenced"
    );
    run.finish();
}

#[test]
fn duplicate_and_late_deliveries_stay_idempotent() {
    let run = net_commit_and_probe(&[
        BusFault::Deliver {
            copies: 2,
            delay_ns: 0,
        },
        BusFault::Late { copies: 1 },
    ]);
    let r = &run.fleet.router;
    assert!(r.replica_log(0).duplicates() > 0);
    assert!(
        r.events().is_empty(),
        "duplicates and late acks depose nobody"
    );
    assert_eq!(run.committed, 2);
    run.finish();
}

/// Anti-entropy after a heal, which the depth-4 sweep never exercises:
/// there, step 4's kill reseeds the replica log before the heal, so the
/// post-heal rounds ship nothing. Here the gap opens after the heal. In
/// availability mode a seal whose ship drops on both attempts bounces
/// without a deposition, and only anti-entropy can close it.
#[test]
fn anti_entropy_closes_a_gap_opened_after_the_heal() {
    let mut fleet = Fleet::new(
        ClusterConfig {
            shards: 1,
            ship: ShipPolicy {
                max_attempts: 2,
                ..ShipPolicy::default()
            },
            partition_failover: false,
            ..ClusterConfig::default()
        },
        'h',
        NET_PAIRS,
        NET_VALUE_LEN,
    );
    let r = Arc::clone(&fleet.router);
    let link = r.shard_link(0);
    fleet.commit_batches(1);
    link.partition_now();
    assert_eq!(r.reconcile(), 0, "a partitioned link loses the exchange");
    link.heal_link_now();
    assert_eq!(r.reconcile(), 0, "nothing is missing before the gap");
    let ks = fleet.create("gap");
    for i in 0..NET_PAIRS {
        fleet
            .put("gap", format!("gapk{i:05}").as_bytes())
            .expect("puts are device-local");
    }
    link.set_bus_script(vec![BusFault::Drop, BusFault::Drop]);
    assert!(
        matches!(
            fleet.drive(|| KvCommand::Compact { ks }),
            Err(KvStatus::TransientDeviceError(_))
        ),
        "a seal whose ship dropped must bounce retryably"
    );
    assert_eq!(link.bus_script_consumed(), 2, "both ship attempts dropped");
    link.clear_bus_script();
    assert!(r.events().is_empty(), "availability mode never deposes");
    let gap_kind = || {
        let gens = r.replica_log(0).generations();
        gens.iter().find(|g| g.0 == "gap").map(|g| g.1)
    };
    assert_eq!(gap_kind(), None, "the replica lacks the gap");
    // The background pass compacts the sealed keyspace; its anti-entropy
    // then ships the compacted form.
    assert!(r.run_background() >= 1, "the seal queued a compaction");
    assert_eq!(gap_kind(), Some(ShipKind::Compacted));
    assert_eq!(r.reconcile(), 0, "the replica converged");
    // The resent COMPACT finds the replica current and acks; a promotion
    // then serves the gap from the replica log.
    assert!(fleet.compact_to_done("gap"));
    fleet.kill_all_primaries();
    fleet.model.power_cut();
    fleet.verify_committed();
}

#[cfg(debug_assertions)]
#[test]
fn racy_fixture_is_caught_within_bounded_schedules_with_a_replayable_trace() {
    let dir = temp_trace_dir("racy");
    let cfg = McConfig {
        trace_dir: Some(dir.clone()),
        ..McConfig::default()
    };
    let report = harnesses::racy_increment(&cfg);
    let failure = report.failure.as_ref().expect("lost update must be found");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("lost update"),
        "{}",
        failure.message
    );
    assert!(
        report.schedules <= 32,
        "a 2-thread lost update must surface within a handful of schedules, took {}",
        report.schedules
    );
    assert!(!failure.trace.steps.is_empty());

    // The trace file is on disk and parses back to the same schedule.
    let path = failure.trace_file.as_ref().expect("trace must be written");
    let loaded = kvcsd_mc::Trace::load(path).expect("trace file must parse");
    assert_eq!(loaded, failure.trace);

    // Replaying the trace reproduces the identical failure in one run.
    let replayed = harnesses::racy_increment_replay(&loaded);
    assert_eq!(replayed.schedules, 1);
    let rf = replayed.failure.expect("replay must reproduce the failure");
    assert_eq!(rf.kind, FailureKind::Panic);
    assert_eq!(rf.message, failure.message, "identical failure on replay");

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(debug_assertions)]
#[test]
fn replay_env_var_short_circuits_exploration() {
    let dir = temp_trace_dir("env");
    let cfg = McConfig {
        trace_dir: Some(dir.clone()),
        ..McConfig::default()
    };
    // Record a counterexample under a name unique to this test, so the
    // env var cannot affect the other tests in this binary.
    let recorded = kvcsd_mc::check("env-replay-fixture", &cfg, harnesses::racy_increment_body);
    let failure = recorded.failure.expect("fixture must fail");
    let path = failure.trace_file.expect("trace must be written");
    assert!(
        recorded.schedules > 1,
        "exploration took multiple schedules"
    );

    std::env::set_var("KVCSD_MC_REPLAY", &path);
    let replayed = kvcsd_mc::check("env-replay-fixture", &cfg, harnesses::racy_increment_body);
    std::env::remove_var("KVCSD_MC_REPLAY");

    assert_eq!(
        replayed.schedules, 1,
        "KVCSD_MC_REPLAY must replay the one traced schedule instead of exploring"
    );
    let rf = replayed.failure.expect("replay must reproduce the failure");
    assert_eq!(rf.message, failure.message);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(debug_assertions)]
#[test]
fn dpor_explores_fewer_schedules_than_naive_dfs() {
    let dpor = harnesses::three_locks(&McConfig::default());
    let naive = harnesses::three_locks(&McConfig {
        dpor: false,
        ..McConfig::default()
    });
    dpor.assert_ok();
    naive.assert_ok();
    assert!(dpor.completed && naive.completed);
    assert!(
        dpor.schedules < naive.schedules,
        "DPOR ({}) must beat naive DFS ({}) when one thread's work commutes",
        dpor.schedules,
        naive.schedules
    );
}

#[cfg(debug_assertions)]
#[test]
fn modeled_deadlock_is_reported_without_hanging() {
    use kvcsd_sim::sync::{spawn, Mutex};
    use std::sync::Arc;

    let dir = temp_trace_dir("deadlock");
    let cfg = McConfig {
        trace_dir: Some(dir.clone()),
        ..McConfig::default()
    };
    // Parent holds the lock across join; the child needs it to exit:
    // a deadlock no lock-order cycle analysis can see (single lock).
    let report = kvcsd_mc::check("join-deadlock", &cfg, || {
        let m = Arc::new(Mutex::new(0u32));
        let guard = m.lock();
        let m2 = Arc::clone(&m);
        let child = spawn(move || *m2.lock());
        let _ = child.join();
        drop(guard);
    });
    let failure = report.failure.expect("the deadlock must be modeled");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(
        failure.message.contains("mutex-lock") && failure.message.contains("join"),
        "{}",
        failure.message
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(debug_assertions)]
#[test]
fn preemption_bound_restricts_the_explored_space() {
    let full = harnesses::replica_dedup(&McConfig::default());
    let bounded = harnesses::replica_dedup(&McConfig {
        preemption_bound: Some(2),
        ..McConfig::default()
    });
    full.assert_ok();
    bounded.assert_ok();
    assert!(
        bounded.schedules < full.schedules,
        "a preemption bound of 2 must cut the dedup schedule space ({} vs {})",
        bounded.schedules,
        full.schedules
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn release_profile_runs_once_uncontrolled() {
    let report = kvcsd_mc::check("release-noop", &McConfig::default(), || {
        // Nothing shared, nothing scheduled: the release fallback just
        // calls this once on the OS scheduler.
    });
    assert!(!report.controlled);
    assert_eq!(report.schedules, 1);
    assert!(report.failure.is_none());
}
