//! Workload generators for the KV-CSD evaluation.
//!
//! * [`kv`] — synthetic random key-value workloads (the micro benchmarks:
//!   16 B keys, configurable values, uniform random GET sets);
//! * [`vpic`] — a synthetic VPIC-like particle dump: 48 B particles (16 B
//!   particle ID + 8 numeric attributes including kinetic energy) sharded
//!   into 16 files, plus energy-threshold helpers for driving query
//!   selectivity from 0.1% to 20% as the macro benchmark does.
//!
//! All generators are seeded and deterministic.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod kv;
pub mod vpic;

pub use kv::{GetWorkload, PutWorkload};
pub use vpic::{Particle, VpicDump, PARTICLE_BYTES, PARTICLE_ID_BYTES, PAYLOAD_BYTES};
