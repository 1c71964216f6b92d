//! A minimal host filesystem over the conventional-namespace SSD.
//!
//! The paper's baseline (RocksDB) "operates on a POSIX filesystem and
//! depends on host computing resources to carry out all database
//! operations". This crate is that substrate: a deliberately small
//! ext4-flavoured filesystem providing the pieces whose *costs* matter to
//! the evaluation —
//!
//! * per-call VFS overhead and per-I/O block-layer overhead (charged to
//!   the ledger; the "host software tax" of DESIGN.md),
//! * a metadata **journal**: every namespace/metadata mutation writes a
//!   journal page before the inode page, doubling small-write metadata
//!   traffic exactly the way ext4's ordered mode does,
//! * an **OS page cache** with LRU eviction (RocksDB's reads benefit from
//!   it; the paper drops it before every query run, and so can you via
//!   [`BlockFs::drop_caches`]),
//! * page-granularity extents: partial-page appends are absorbed by the
//!   cache's dirty tail and written out on page fill or fsync, and every
//!   device write is a whole page — which is where the baseline's small-
//!   record read/write amplification comes from.
//!
//! Files store real bytes; everything round-trips.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod error;
pub mod fs;

pub use cache::LruCache;
pub use error::FsError;
pub use fs::{BlockFs, FsConfig, FsStats};

/// Result alias for filesystem operations.
pub type Result<T> = std::result::Result<T, FsError>;
