//! Simulation substrate for the KV-CSD reproduction.
//!
//! The reproduction executes every data-path algorithm for real (bytes are
//! actually stored, sorted, indexed and queried), but the hardware the paper
//! ran on — a Fidus Sidewinder-100 SoC, an E1.L NVMe ZNS SSD and a 32-core
//! EPYC host — is replaced by a *cost model*. This crate provides the three
//! pieces every other crate builds on:
//!
//! * [`IoLedger`] — a thread-safe set of counters recording every byte of
//!   NAND I/O, PCIe DMA traffic and CPU work performed by the real
//!   algorithms. Amplification and data-movement volumes are therefore
//!   *measured*, never assumed.
//! * [`HardwareSpec`] / [`CostModel`] — the configured constants (core
//!   counts, bandwidths, latencies) mirroring Table I of the paper.
//! * [`TimeModel`] — converts a ledger delta plus a phase's parallelism into
//!   simulated elapsed seconds, assuming pipelined overlap between
//!   independent resources (elapsed = max over bottlenecks).
//!
//! See `DESIGN.md` §2 for why this substitution preserves the paper's
//! result *shapes* even though absolute numbers are not comparable.

pub mod bus;
pub mod bytes;
pub mod clock;
pub mod config;
pub mod fault;
pub mod fsm;
pub mod ledger;
pub mod mc;
pub mod model;
pub mod perturb;
pub mod phase;
pub mod rng;
pub mod stats;
pub mod sync;

pub use bus::{BusConfig, BusResource, BusXmit};
pub use clock::{VirtualClock, WallTimer};
pub use config::{CostModel, HardwareSpec};
pub use fault::{
    BusFault, FaultDecision, FaultEvent, FaultInjector, FaultKind, FaultPlan, OpClass,
};
pub use fsm::{IllegalTransition, Lifecycle, TransitionTable};
pub use ledger::{IoLedger, LedgerSnapshot};
pub use model::{PhaseTime, TimeModel};
pub use phase::PhaseRunner;
pub use rng::XorShift64;
