//! Bounded-exhaustive exploration of bus-fault decision sequences.
//!
//! `tests/partition.rs` samples link faults from seeded probability
//! draws; this explorer replaces the draws with an explicit script
//! (`FaultInjector::set_bus_script`) and enumerates *every* script over
//! the fault alphabet up to a depth bound, running a deterministic
//! scenario against each. The scenario checks its invariants by
//! panicking and returns how many link decisions it consumed, which
//! prunes the tree: extending a script at positions the run never read
//! cannot change its outcome, so only consumed positions branch.
//!
//! The explorer is generic over the scenario, so it needs no cluster
//! code. The canonical scenario lives next to the rig it needs, in
//! `tests/mc.rs`: it drives the real `ClusterRouter` through a scripted
//! replication link and checks every run against the `tests/contract`
//! client contract.
//!
//! Unlike the thread-interleaving explorer this needs no controlled
//! scheduler (the scenario is single-threaded), so it works in release
//! builds too.

use std::panic::{catch_unwind, AssertUnwindSafe};

use kvcsd_sim::BusFault;

/// The decision a script position takes when nothing interesting
/// happens: one clean, immediate delivery. Trailing defaults are what
/// `decide_bus` returns past the script's end, so a script never needs
/// default-padded suffixes.
pub const NET_DEFAULT: BusFault = BusFault::Deliver {
    copies: 1,
    delay_ns: 0,
};

/// The non-default letters the explorer branches over at each consumed
/// position: drop, duplicate delivery, late delivery.
pub fn net_alphabet() -> [BusFault; 3] {
    [
        BusFault::Drop,
        BusFault::Deliver {
            copies: 2,
            delay_ns: 0,
        },
        BusFault::Late { copies: 1 },
    ]
}

/// A scenario run that panicked, and the script that provoked it.
#[derive(Debug, Clone)]
pub struct NetFailure {
    pub script: Vec<BusFault>,
    /// The panic message.
    pub message: String,
}

/// Outcome of one [`explore_net`] sweep.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Scenario executions (distinct scripts actually run), the failing
    /// one included.
    pub runs: u64,
    /// The depth bound the sweep used.
    pub depth: usize,
    pub failure: Option<NetFailure>,
}

impl NetReport {
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "kvcsd-mc net: invariant violated after {} run(s) by script {:?}: {}",
                self.runs, f.script, f.message
            );
        }
    }
}

/// Run `scenario` against every fault script up to `depth` non-trailing
/// decisions. The scenario returns the count of decisions it consumed
/// and panics when an invariant fails; exploration stops at the first
/// panic, recorded with its script.
pub fn explore_net<F>(depth: usize, scenario: F) -> NetReport
where
    F: Fn(&[BusFault]) -> usize,
{
    let mut report = NetReport {
        runs: 0,
        depth,
        failure: None,
    };
    let mut prefix = Vec::new();
    run_prefix(&mut prefix, depth, &scenario, &mut report);
    report
}

/// Returns false to stop the sweep (a failure was recorded).
fn run_prefix<F>(
    prefix: &mut Vec<BusFault>,
    depth: usize,
    scenario: &F,
    report: &mut NetReport,
) -> bool
where
    F: Fn(&[BusFault]) -> usize,
{
    report.runs += 1;
    match catch_unwind(AssertUnwindSafe(|| scenario(prefix))) {
        Ok(consumed) => extend(prefix, consumed, depth, scenario, report),
        Err(payload) => {
            report.failure = Some(NetFailure {
                script: prefix.clone(),
                message: crate::panic_message(&*payload),
            });
            false
        }
    }
}

fn extend<F>(
    prefix: &mut Vec<BusFault>,
    consumed: usize,
    depth: usize,
    scenario: &F,
    report: &mut NetReport,
) -> bool
where
    F: Fn(&[BusFault]) -> usize,
{
    // Positions past what the parent run consumed were never read;
    // branching there reproduces the parent byte-for-byte.
    if prefix.len() >= depth || prefix.len() >= consumed {
        return true;
    }
    for f in net_alphabet() {
        prefix.push(f);
        let keep_going = run_prefix(prefix, depth, scenario, report);
        prefix.pop();
        if !keep_going {
            return false;
        }
    }
    // The default extension IS the parent run (past-the-end decisions
    // already default to a clean delivery): skip the redundant re-run
    // and push the branching frontier one position deeper.
    prefix.push(NET_DEFAULT);
    let keep_going = extend(prefix, consumed, depth, scenario, report);
    prefix.pop();
    keep_going
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumed_count_prunes_unread_positions() {
        // A scenario that reads exactly one decision: the sweep is the
        // empty script plus one run per non-default letter at position
        // 0, regardless of depth.
        let report = explore_net(5, |script| {
            let _ = script.first();
            1
        });
        assert!(report.failure.is_none());
        assert_eq!(report.runs, 1 + net_alphabet().len() as u64);
    }

    #[test]
    fn first_violating_script_is_reported() {
        let report = explore_net(3, |script| {
            assert!(
                !matches!(script.first(), Some(BusFault::Drop)),
                "drop at position 0 breaks the toy invariant"
            );
            script.len().max(1)
        });
        // The empty script, then the failing `[Drop]`: the first letter
        // branched at position 0.
        assert_eq!(report.runs, 2, "the failing run counts");
        let failure = report.failure.expect("sweep must find the violation");
        assert!(matches!(failure.script[..], [BusFault::Drop]));
        assert!(failure.message.contains("position 0"));
    }

    #[test]
    fn depth_bounds_the_sweep_when_nothing_prunes() {
        // Scenario always consumes more decisions than the depth bound:
        // full branching at every position. The run count is exactly the
        // scripts of length <= depth with no trailing default (trailing
        // defaults collapse into their parent run): 1 empty + 3 of
        // length 1 + 4*3 of length 2 = 16.
        let report = explore_net(2, |_| 3);
        assert!(report.failure.is_none());
        assert_eq!(report.runs, 16);
    }
}
