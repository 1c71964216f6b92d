//! Benchmark harness for the KV-CSD reproduction.
//!
//! One binary per figure of the paper's evaluation (Section VI):
//!
//! | Binary    | Reproduces |
//! |-----------|------------|
//! | `table1`  | Table I — hardware specification |
//! | `fig7`    | Fig 7a/7b — shared-keyspace PUT time + I/O vs host cores |
//! | `fig8`    | Fig 8 — PUT time vs value size |
//! | `fig9`    | Fig 9 — multi-keyspace insert scaling, 3 RocksDB modes |
//! | `fig10`   | Fig 10a/10b — random GET time + I/O |
//! | `fig11`   | Fig 11 — VPIC write-phase breakdown |
//! | `fig12`   | Fig 12 — secondary-index query time vs selectivity |
//! | `ablation`| design-choice ablations (bulk PUT, cluster width, ...) |
//!
//! Runs are scaled down from the paper's 32M-key/1B-key datasets; pass
//! `--keys N` / `--scale X` to grow them. Simulated times come from the
//! measured-work + cost-model pipeline described in `DESIGN.md`; the
//! *shapes* (who wins, by what factor) are the reproduction target, not
//! the absolute numbers.
//!
//! A phase's "threads" are logical: the runners execute them one after
//! another. Simulated time depends only on the work each thread charges
//! to the ledger, which the time model divides by the phase's pinned core
//! count, so every run is bit-for-bit reproducible.

pub mod args;
pub mod baseline;
pub mod kvcsd;
pub mod report;
pub mod testbed;
pub mod vpic_exp;

pub use args::Args;
pub use report::{fmt_io, fmt_secs};
pub use testbed::Testbed;
