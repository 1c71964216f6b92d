//! Umbrella crate for the KV-CSD reproduction.
//!
//! Re-exports the public API of every sub-crate so applications can depend
//! on `kvcsd` alone. Start with [`client`] (`kvcsd_client::KvCsd`) for the
//! host-side key-value API, and see `examples/quickstart.rs` for a tour.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub use kvcsd_blockfs as blockfs;
pub use kvcsd_client as client;
pub use kvcsd_cluster as cluster;
pub use kvcsd_core as device;
pub use kvcsd_flash as flash;
pub use kvcsd_lsm as lsm;
pub use kvcsd_proto as proto;
pub use kvcsd_sim as sim;
pub use kvcsd_workloads as workloads;
