//! NVMe key-value command set for KV-CSD, plus the host-device transport.
//!
//! The paper's prototype speaks the standard **NVMe KV command set** \[56\]
//! between its client library and the device, extended with commands the
//! standard lacks: compaction, secondary-index construction and
//! secondary-index queries. This crate defines those commands as typed
//! Rust enums ([`KvCommand`] / [`KvResponse`]), the 128 KB bulk-PUT
//! message format ([`bulk::BulkBuilder`]), and a [`transport::QueuePair`]
//! that models the PCIe DMA path by charging every message's bytes to the
//! shared I/O ledger.
//!
//! The wire encoding is deliberately simple (this is a simulation, not an
//! interoperable NVMe stack) but byte-accounted: [`KvCommand::wire_size`]
//! and [`KvResponse::wire_size`] say exactly how many bytes cross the bus,
//! and the bulk payload really is packed into a flat buffer and decoded on
//! the device side.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod bulk;
pub mod cluster;
pub mod command;
pub mod status;
pub mod transport;

pub use bulk::{BulkBuilder, BulkPayload, DEFAULT_BULK_BYTES};
pub use cluster::{ReplicaShip, ShardId, ShardRoute, ShipKind, SHIP_HEADER_BYTES};
pub use command::{
    Bound, JobId, JobState, KeyspaceDesc, KeyspaceStat, KeyspaceState, KvCommand, KvResponse,
    SecondaryIndexSpec, SecondaryKeyType, SidxKey,
};
pub use status::KvStatus;
pub use transport::{Completion, DeviceHandler, ExecProbe, QueuePair};

/// Keyspace identifier assigned by the device at creation time.
pub type KeyspaceId = u32;
