//! The keyspace lifecycle transition table.
//!
//! "Each keyspace in KV-CSD can exist in one of the following four
//! states: EMPTY, WRITABLE, COMPACTING, and COMPACTED" (Section IV) —
//! plus the DEGRADED state PR 1 added for persistent media failures
//! during background jobs. This module is the single declarative source
//! of truth for which state changes are legal; every mutation of
//! `Keyspace::state` outside snapshot decoding flows through
//! [`crate::keyspace::Keyspace::transition_to`], which checks the table
//! and rejects illegal edges with
//! [`DeviceError::IllegalTransition`](crate::error::DeviceError::IllegalTransition).
//!
//! Invariants the table encodes:
//! * COMPACTED never becomes writable again; re-ingest requires delete +
//!   recreate (paper's model: one absorb/compact cycle per keyspace). Its
//!   only exit is READ_ONLY on space exhaustion.
//! * EMPTY never goes straight to COMPACTING — compacting an empty
//!   keyspace short-circuits to COMPACTED without a compaction job.
//! * DEGRADED is only entered from COMPACTING (a failed background job)
//!   and only left by retrying compaction.
//! * READ_ONLY is the graceful-degradation state for zone/space
//!   exhaustion: entered from WRITABLE (ingest hit DeviceFull; the write
//!   log is sealed in place), COMPACTING (the job died on
//!   OutOfZones or OutOfDram) or COMPACTED (space exhaustion during an index
//!   build). It is left by a successful re-compaction (-> COMPACTING,
//!   from the intact sealed logs) or by space reclaim when a primary
//!   index already exists (-> COMPACTED). Writes fail fast in READ_ONLY;
//!   reads keep serving wherever an index exists.

use kvcsd_proto::KeyspaceState;
use kvcsd_sim::TransitionTable;

/// Every legal keyspace state change (self-edges implicitly legal).
pub static KEYSPACE_TRANSITIONS: TransitionTable<KeyspaceState> = TransitionTable {
    machine: "keyspace",
    edges: &[
        // First PUT opens the write log.
        (KeyspaceState::Empty, KeyspaceState::Writable),
        // Compacting an empty keyspace yields an (empty) compacted one
        // without running a job.
        (KeyspaceState::Empty, KeyspaceState::Compacted),
        // Reopen after power loss without a WAL: absorbed-but-unsealed
        // data is gone, the keyspace rewinds to EMPTY.
        (KeyspaceState::Writable, KeyspaceState::Empty),
        // Compaction seals the logs.
        (KeyspaceState::Writable, KeyspaceState::Compacting),
        // Background sort/index job finishes...
        (KeyspaceState::Compacting, KeyspaceState::Compacted),
        // ...or dies on a persistent media error.
        (KeyspaceState::Compacting, KeyspaceState::Degraded),
        // Retrying compaction from the intact sealed logs.
        (KeyspaceState::Degraded, KeyspaceState::Compacting),
        // Zone exhaustion during ingest: the write log is sealed in place
        // and the keyspace freezes rather than failing outright.
        (KeyspaceState::Writable, KeyspaceState::ReadOnly),
        // A compaction job died out of zones or SoC DRAM.
        (KeyspaceState::Compacting, KeyspaceState::ReadOnly),
        // Space exhaustion during a secondary-index build on an already
        // compacted keyspace.
        (KeyspaceState::Compacted, KeyspaceState::ReadOnly),
        // Recovery: re-compaction from the sealed logs once space frees up.
        (KeyspaceState::ReadOnly, KeyspaceState::Compacting),
        // Recovery: space reclaim with a primary index already in place.
        (KeyspaceState::ReadOnly, KeyspaceState::Compacted),
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DeviceError;
    use crate::keyspace::Keyspace;

    #[test]
    fn happy_path_is_legal() {
        use KeyspaceState::*;
        for (from, to) in [
            (Empty, Writable),
            (Writable, Compacting),
            (Compacting, Compacted),
        ] {
            assert!(KEYSPACE_TRANSITIONS.is_legal(from, to), "{from:?}->{to:?}");
        }
    }

    #[test]
    fn degraded_cycle_is_legal() {
        use KeyspaceState::*;
        assert!(KEYSPACE_TRANSITIONS.is_legal(Compacting, Degraded));
        assert!(KEYSPACE_TRANSITIONS.is_legal(Degraded, Compacting));
    }

    #[test]
    fn compacted_never_becomes_writable() {
        use KeyspaceState::*;
        // The only way out of COMPACTED is freezing on space exhaustion.
        assert_eq!(KEYSPACE_TRANSITIONS.successors(Compacted), vec![ReadOnly]);
        assert!(!KEYSPACE_TRANSITIONS.is_legal(Compacted, Writable));
        assert!(!KEYSPACE_TRANSITIONS.is_legal(Compacted, Empty));
    }

    #[test]
    fn read_only_cycle_is_legal() {
        use KeyspaceState::*;
        for (from, to) in [
            (Writable, ReadOnly),
            (Compacting, ReadOnly),
            (Compacted, ReadOnly),
            (ReadOnly, Compacting),
            (ReadOnly, Compacted),
        ] {
            assert!(KEYSPACE_TRANSITIONS.is_legal(from, to), "{from:?}->{to:?}");
        }
        // A frozen keyspace never reopens for writes directly.
        assert!(!KEYSPACE_TRANSITIONS.is_legal(ReadOnly, Writable));
        assert!(!KEYSPACE_TRANSITIONS.is_legal(ReadOnly, Empty));
        assert!(!KEYSPACE_TRANSITIONS.is_legal(Empty, ReadOnly));
    }

    #[test]
    fn read_only_illegal_edges_carry_context() {
        let err = KEYSPACE_TRANSITIONS
            .check(KeyspaceState::ReadOnly, KeyspaceState::Writable)
            .unwrap_err();
        assert_eq!(err.machine, "keyspace");
        assert_eq!(err.from, "ReadOnly");
        assert_eq!(err.to, "Writable");
        assert!(err.to_string().contains("illegal keyspace transition"));
    }

    #[test]
    fn empty_cannot_enter_compacting() {
        assert!(!KEYSPACE_TRANSITIONS.is_legal(KeyspaceState::Empty, KeyspaceState::Compacting));
    }

    #[test]
    fn transition_to_rejects_illegal_edges_with_context() {
        let mut ks = Keyspace::new(1, "x".into());
        ks.transition_to(KeyspaceState::Writable).unwrap();
        ks.transition_to(KeyspaceState::Compacting).unwrap();
        ks.transition_to(KeyspaceState::Compacted).unwrap();
        let err = ks.transition_to(KeyspaceState::Writable).unwrap_err();
        match err {
            DeviceError::IllegalTransition { machine, from, to } => {
                assert_eq!(machine, "keyspace");
                assert_eq!(from, "COMPACTED");
                assert_eq!(to, "WRITABLE");
            }
            other => panic!("expected IllegalTransition, got {other:?}"),
        }
        // The failed transition must not have moved the state.
        assert_eq!(ks.state, KeyspaceState::Compacted);
    }

    #[test]
    fn self_transitions_are_noops() {
        let mut ks = Keyspace::new(1, "x".into());
        ks.transition_to(KeyspaceState::Empty).unwrap();
        assert_eq!(ks.state, KeyspaceState::Empty);
    }
}
