//! The host-side KV-CSD client library.
//!
//! "User applications communicate with KV-CSD through a lightweight
//! client library that exposes a key-value interface similar to that of a
//! software key-value store. ... its primary job is to pack application
//! function calls into requests that are sent to the underlying device,
//! where the actual key-value based storage processing occurs."
//!
//! [`KvCsd`] is the device handle; [`Keyspace`] is a session on one
//! keyspace supporting puts, the [`WriteAccelerator`] (key-sorted 128 KiB
//! bulk PUTs), offloaded [`Keyspace::compact`] /
//! [`Keyspace::build_secondary_index`] (returning pollable [`Job`]s), and
//! point/range queries over both indexes. All host-side marshalling cost
//! is charged to the host CPU; all bytes cross the simulated PCIe link
//! through [`kvcsd_proto::QueuePair`].

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod accel;
pub mod api;
pub mod error;
mod radix;
pub mod window;

pub use accel::WriteAccelerator;
pub use api::{Job, Keyspace, KvCsd, RetryPolicy};
pub use error::{status_class, ClientError, StatusClass};
pub use window::{InflightWindow, OpId};

/// Result alias for client operations.
pub type Result<T> = std::result::Result<T, ClientError>;
