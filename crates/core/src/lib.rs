//! The KV-CSD on-SoC key-value store — the paper's primary contribution.
//!
//! This crate implements the device side of KV-CSD: an ordered key-value
//! store running *inside* a computational storage device, directly on a
//! zoned-namespace SSD, with all performance-critical work offloaded from
//! the host:
//!
//! * [`zone_mgr`] — the zone manager: allocates zones in **zone clusters**
//!   and stripes 4 KiB blocks across them with a per-cluster randomized
//!   offset, spreading writes over all NAND channels (Section IV);
//! * [`keyspace`] — the keyspace manager: named containers of key-value
//!   pairs with the EMPTY / WRITABLE / COMPACTING / COMPACTED lifecycle,
//!   persisted to a metadata zone;
//! * [`ingest`] — the write path: a 192 KiB SoC DRAM buffer packing
//!   key-value pairs with **key-value separation** into KLOG (keys +
//!   value pointers) and VLOG (raw values) zone clusters;
//! * [`extsort`] — DRAM-bounded external merge sort, the engine behind
//!   deferred compaction (multiple rounds of merge sorts, Section V);
//! * `index` — the one block format, writer, scan and [`BlockIndex`]
//!   of the PIDX and every SIDX, with its **sketch** (one pivot key per
//!   4 KiB index block);
//! * [`compact`] — offloaded compaction: sort the keys, then reorder the
//!   values, producing PIDX + SORTED_VALUES clusters;
//! * [`sidx`] — offloaded secondary-index construction;
//! * [`query`] — point and range query processing over both indexes,
//!   entirely device-side: only results cross the bus;
//! * [`admission`] — overload control: the admission gate every command
//!   path consults (slowdown / stall / reject bands over DRAM usage, job
//!   queue depth and compaction debt) plus sim-clock deadlines;
//! * [`device`] — [`KvCsdDevice`], the command processor implementing
//!   [`kvcsd_proto::DeviceHandler`];
//! * `jobs` — the deferred background-job queue and the job runner
//!   (compaction and index builds run asynchronously from the host's
//!   perspective);
//! * [`stack`] — [`DeviceStack`], the one way to stand a device up over
//!   NAND and ZNS, and to power-cycle it after an injected cut.
//!
//! All SoC CPU work is charged at `soc_slowdown` times host cost; all
//! storage I/O goes through the real ZNS rules in `kvcsd-flash`.

pub mod admission;
pub mod artifact;
pub mod compact;
pub mod device;
pub mod dram;
pub mod error;
pub mod extsort;
mod index;
pub mod ingest;
mod jobs;
pub mod keyspace;
pub mod lifecycle;
pub mod meta;
pub mod query;
pub mod sidx;
pub mod snapshot;
pub mod soc;
pub mod stack;
pub mod wal;
pub mod zone_mgr;

pub use admission::{AdmissionConfig, AdmissionGate, Deadline, Decision, PressureSample};
pub use artifact::{ArtifactPayload, IndexArtifact, KeyspaceArtifacts, SidxArtifact};
pub use device::{DeviceConfig, KvCsdDevice};
pub use dram::{DramBudget, DramReservation};
pub use error::DeviceError;
pub use index::{BlockIndex, EntryRef, IndexBlock, IndexBlockBuilder, PidxEntry, Sketch};
pub use stack::DeviceStack;
pub use zone_mgr::{BlockAddr, ClusterId, ZoneManager};

/// Result alias for device-side operations.
pub type Result<T> = std::result::Result<T, DeviceError>;

/// The device's fixed data block size: one NAND page, as in the paper
/// ("both store data as a series of 4 KB data blocks").
pub const BLOCK_BYTES: usize = 4096;

/// Default SoC DRAM ingest buffer per keyspace ("192 KB for the current
/// prototype").
pub const INGEST_BUFFER_BYTES: usize = 192 * 1024;

#[cfg(test)]
mod testing {
    use super::{soc::SocCharger, DramBudget, ZoneManager};
    use kvcsd_flash::{FlashGeometry, NandArray, ZnsConfig, ZonedNamespace};
    use kvcsd_sim::{config::CostModel, HardwareSpec, IoLedger};
    use std::sync::Arc;

    /// The device stack this crate's unit tests run on: an 8-channel ZNS
    /// namespace of `blocks_per_channel` 16-page blocks, a zone manager
    /// with stripe-offset seed `seed`, a SoC charger on the namespace's
    /// ledger and a 4 MiB SoC DRAM budget.
    pub(crate) fn test_stack(
        blocks_per_channel: u32,
        seed: u64,
    ) -> (ZoneManager, SocCharger, DramBudget) {
        let geom = FlashGeometry {
            channels: 8,
            blocks_per_channel,
            pages_per_block: 16,
            page_bytes: 4096,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(
            geom,
            &HardwareSpec::default(),
            Arc::clone(&ledger),
        ));
        let zns = Arc::new(ZonedNamespace::new(nand, ZnsConfig::default()));
        (
            ZoneManager::new(zns, 1, seed),
            SocCharger::new(ledger, CostModel::default()),
            DramBudget::new(4 << 20),
        )
    }
}
