//! Simulated NAND flash SSD for the KV-CSD reproduction.
//!
//! The paper's device is an E1.L NVMe **ZNS** SSD; its baseline (RocksDB on
//! ext4) runs on a **conventional** block SSD. This crate provides both
//! personalities over a shared NAND model:
//!
//! * [`NandArray`] — raw flash: channels x dies x blocks x pages, with real
//!   program-once/erase-before-reuse enforcement. Every page operation
//!   charges the [`kvcsd_sim::IoLedger`] with per-channel busy time, which
//!   is what makes channel striping and conflicts *measurable* rather than
//!   assumed.
//! * [`ZonedNamespace`] — zones with write pointers, sequential-write
//!   enforcement, append/reset/finish, and open-zone limits (NVMe ZNS
//!   command set semantics).
//! * [`ConventionalNamespace`] — a page-mapping FTL with round-robin
//!   channel striping, over-provisioning and greedy garbage collection;
//!   the substrate for the `kvcsd-blockfs` filesystem the baseline uses.
//!
//! Data is actually stored: what you program is what you read back, and the
//! test suites verify it.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod conv;
pub mod error;
pub mod geometry;
pub mod nand;
pub mod zns;

pub use conv::{ConvConfig, ConventionalNamespace};
pub use error::FlashError;
pub use geometry::FlashGeometry;
pub use nand::NandArray;
pub use zns::{ZnsConfig, ZoneInfo, ZoneState, ZonedNamespace};

/// Result alias used throughout the flash crate.
pub type Result<T> = std::result::Result<T, FlashError>;
