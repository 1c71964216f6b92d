//! Declarative state-machine transition tables, and the cell that
//! holds a state under one.
//!
//! The device's correctness argument leans on two small lifecycles — the
//! keyspace lifecycle (EMPTY → WRITABLE → COMPACTING → COMPACTED /
//! DEGRADED, Section IV of the paper) and the ZNS zone lifecycle (empty →
//! open → full → reset). Each is a single declarative edge list, a
//! [`TransitionTable`], and each state lives in a [`Lifecycle`] cell
//! whose field is private to this module: the only ways to move it are
//! the checked [`Lifecycle::transition`] and the unchecked
//! [`Lifecycle::restore`] that reinstalls a persisted state verbatim. An
//! illegal edge is a typed error at the mutation site, and a direct
//! assignment does not compile.
//!
//! Self-transitions (`from == to`) are always legal: they are idempotent
//! no-ops (e.g. `finish` on an already-Full zone) and listing them would
//! only bloat the tables.

use std::fmt;

/// A named transition table over a copyable state enum.
///
/// Tables are `'static` data — the edge list is the documentation — and
/// checking is O(edges), which is fine for lifecycles with < 10 states.
#[derive(Debug, Clone, Copy)]
pub struct TransitionTable<S: 'static> {
    /// Machine name used in error messages ("keyspace", "zone").
    pub machine: &'static str,
    /// The state every new [`Lifecycle`] starts in.
    pub initial: S,
    /// Every legal `(from, to)` edge. Self-edges are implicit.
    pub edges: &'static [(S, S)],
}

impl<S: Copy + PartialEq + fmt::Debug> TransitionTable<S> {
    /// True when `from -> to` is a legal edge (or a no-op self-edge).
    pub fn is_legal(&self, from: S, to: S) -> bool {
        from == to || self.edges.iter().any(|&(f, t)| f == from && t == to)
    }

    /// Check an edge, returning a typed error naming the machine and the
    /// offending states.
    pub fn check(&self, from: S, to: S) -> Result<(), IllegalTransition> {
        if self.is_legal(from, to) {
            Ok(())
        } else {
            Err(IllegalTransition {
                machine: self.machine,
                from: format!("{from:?}"),
                to: format!("{to:?}"),
            })
        }
    }

    /// All states reachable from `from` in one step (diagnostics/docs).
    pub fn successors(&self, from: S) -> Vec<S> {
        self.edges
            .iter()
            .filter(|&&(f, _)| f == from)
            .map(|&(_, t)| t)
            .collect()
    }
}

/// A rejected state-machine edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IllegalTransition {
    pub machine: &'static str,
    pub from: String,
    pub to: String,
}

impl fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal {} transition: {} -> {}",
            self.machine, self.from, self.to
        )
    }
}

impl std::error::Error for IllegalTransition {}

/// A state that only moves along its [`TransitionTable`].
///
/// The state field is private to this module, so code elsewhere reads it
/// with [`get`](Self::get) and cannot assign it:
///
/// ```compile_fail,E0616
/// use kvcsd_sim::fsm::{Lifecycle, TransitionTable};
/// static T: TransitionTable<u8> = TransitionTable { machine: "demo", initial: 0, edges: &[(0, 1)] };
/// let mut cell = Lifecycle::new(&T);
/// cell.state = 1;
/// ```
///
/// The same move through the table compiles:
///
/// ```
/// use kvcsd_sim::fsm::{Lifecycle, TransitionTable};
/// static T: TransitionTable<u8> = TransitionTable { machine: "demo", initial: 0, edges: &[(0, 1)] };
/// let mut cell = Lifecycle::new(&T);
/// cell.transition(1).unwrap();
/// ```
///
/// The cell is neither `Clone` nor `Copy`, so one keyspace's or zone's
/// state cannot be copied into another's either.
pub struct Lifecycle<S: 'static> {
    table: &'static TransitionTable<S>,
    state: S,
}

impl<S: Copy + PartialEq + fmt::Debug> Lifecycle<S> {
    /// A cell in `table`'s initial state.
    pub const fn new(table: &'static TransitionTable<S>) -> Self {
        Self {
            table,
            state: table.initial,
        }
    }

    /// The current state.
    pub fn get(&self) -> S {
        self.state
    }

    /// Move to `to` if the table has the edge; a rejected edge leaves
    /// the state where it was.
    pub fn transition(&mut self, to: S) -> Result<(), IllegalTransition> {
        self.table.check(self.state, to)?;
        self.state = to;
        Ok(())
    }

    /// Install `state` without consulting the table: for reinstalling a
    /// persisted or shipped state verbatim, never for a lifecycle step.
    pub fn restore(&mut self, state: S) {
        self.state = state;
    }
}

impl<S: fmt::Debug> fmt::Debug for Lifecycle<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.state.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Demo {
        A,
        B,
        C,
    }

    static DEMO: TransitionTable<Demo> = TransitionTable {
        machine: "demo",
        initial: Demo::A,
        edges: &[(Demo::A, Demo::B), (Demo::B, Demo::C), (Demo::C, Demo::A)],
    };

    #[test]
    fn legal_edges_pass() {
        assert!(DEMO.check(Demo::A, Demo::B).is_ok());
        assert!(DEMO.check(Demo::B, Demo::C).is_ok());
    }

    #[test]
    fn self_edges_are_noops() {
        assert!(DEMO.check(Demo::B, Demo::B).is_ok());
    }

    #[test]
    fn illegal_edges_carry_context() {
        let err = DEMO.check(Demo::A, Demo::C).unwrap_err();
        assert_eq!(err.machine, "demo");
        assert_eq!(err.from, "A");
        assert_eq!(err.to, "C");
        assert!(err.to_string().contains("illegal demo transition"));
    }

    #[test]
    fn a_rejected_edge_leaves_the_cell_unchanged() {
        let mut cell = Lifecycle::new(&DEMO);
        assert_eq!(cell.get(), Demo::A);
        let err = cell.transition(Demo::C).unwrap_err();
        assert_eq!((err.from.as_str(), err.to.as_str()), ("A", "C"));
        assert_eq!(cell.get(), Demo::A);
        cell.transition(Demo::B).unwrap();
        cell.transition(Demo::B).unwrap();
        assert_eq!(cell.get(), Demo::B);
    }

    #[test]
    fn restore_installs_any_state() {
        for from in [Demo::A, Demo::B, Demo::C] {
            for to in [Demo::A, Demo::B, Demo::C] {
                let mut cell = Lifecycle::new(&DEMO);
                cell.restore(from);
                cell.restore(to);
                assert_eq!(cell.get(), to);
            }
        }
        // A restore past the table (A has no edge to C) leaves the table
        // in charge of the next step.
        let mut cell = Lifecycle::new(&DEMO);
        cell.restore(Demo::C);
        assert!(cell.transition(Demo::B).is_err());
        cell.transition(Demo::A).unwrap();
    }

    #[test]
    fn successors_enumerate_edges() {
        assert_eq!(DEMO.successors(Demo::A), vec![Demo::B]);
        assert!(DEMO.successors(Demo::B).contains(&Demo::C));
    }
}
