//! The zone manager: zone clusters and striped block streams.
//!
//! From the paper (Section IV): "Rather than allocating zones on a
//! per-zone basis, KV-CSD allocates zones in groups that we call *zone
//! clusters*. This enables striping I/O across multiple zones to better
//! leverage available SSD bandwidth. ... KV-CSD associates a random
//! number with each zone cluster to determine which zone to perform the
//! next write within a zone cluster. This allows zone writes to be
//! randomly distributed across all available I/O channels."
//!
//! A cluster is an append-only stream of 4 KiB blocks, dealt over the
//! zones of its current stripe group in *stripe units* of `unit` blocks:
//! unit `u` of a group lands on zone slot `(u + offset) % width`, where
//! `offset` is the cluster's random number — so concurrent clusters start
//! on different channels and conflicts average out. When a stripe group
//! fills, the cluster transparently grows by another `width` zones.
//! Released clusters reset their zones (the cheap, GC-free reclamation
//! ZNS gives the design).
//!
//! Most clusters stripe by page (`unit` 1), which spreads random reads of
//! an index or a value file over every channel. Write logs stripe by NAND
//! erase block ([`alloc_log_cluster`](ZoneManager::alloc_log_cluster)):
//! they are read once, in order, and then released, and a reset erases
//! only the blocks a zone has written, so a short log costs one erase
//! per block it filled rather than one per zone of its group.

use std::collections::HashMap;
use std::sync::Arc;

use kvcsd_flash::{ZoneState, ZonedNamespace};
use kvcsd_sim::sync::{Mutex, Shared};
use kvcsd_sim::XorShift64;

use crate::error::DeviceError;
use crate::Result;
use crate::BLOCK_BYTES;

/// Identifies a zone cluster within one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

/// Address of one 4 KiB block within a cluster's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockAddr {
    pub cluster: ClusterId,
    pub block: u64,
}

#[derive(Debug)]
struct Cluster {
    /// Stripe groups of `width` zones each, in allocation order.
    groups: Vec<Vec<u32>>,
    width: u32,
    /// The paper's per-cluster random number.
    offset: u32,
    /// Blocks per stripe unit: 1, or a NAND erase block for write logs.
    /// Always divides the zone's capacity.
    unit: u32,
    /// Blocks appended so far.
    blocks: u64,
}

impl Cluster {
    /// The zone and in-zone page that hold stream block `block`. Units
    /// are dealt round-robin over the group's zones, so each zone is
    /// still filled in order.
    fn locate(&self, zone_blocks: u64, block: u64) -> (u32, u32) {
        let (width, unit) = (self.width as u64, self.unit as u64);
        let group_blocks = width * zone_blocks;
        let in_group = block % group_blocks;
        let u = in_group / unit;
        let slot = ((u + self.offset as u64) % width) as usize;
        let page = (u / width) * unit + in_group % unit;
        (
            self.groups[(block / group_blocks) as usize][slot],
            page as u32,
        )
    }
}

/// Serializable state of one cluster (device snapshots).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterState {
    pub id: u32,
    pub width: u32,
    pub offset: u32,
    pub unit: u32,
    pub blocks: u64,
    pub groups: Vec<Vec<u32>>,
}

/// Serializable state of the zone manager (device snapshots).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ZoneManagerState {
    pub next_id: u32,
    pub clusters: Vec<ClusterState>,
}

#[derive(Debug)]
struct Inner {
    /// Free zones grouped by channel for spread-aware allocation.
    free_by_channel: Vec<Vec<u32>>,
    clusters: HashMap<u32, Cluster>,
    next_id: u32,
    rng: XorShift64,
}

/// Allocates zone clusters and serves striped block I/O.
#[derive(Debug)]
pub struct ZoneManager {
    zns: Arc<ZonedNamespace>,
    inner: Mutex<Inner>,
    /// Free-zone gauge mirroring `inner.free_by_channel` so pressure
    /// probes ([`free_zones`](Self::free_zones)) never contend on the
    /// allocation lock. Self-synchronized [`Shared`] cell, refreshed
    /// under the `inner` lock at every allocation-state mutation, and
    /// visible to the debug-build race detector (DESIGN.md §11).
    free_count: Shared<u32>,
    zone_blocks: u64,
    /// Zones held back from ordinary allocation so that sealing a write
    /// log always has room for its final tail blocks. Without this, a
    /// device that hits exhaustion mid-append can never seal — the full
    /// tail block retries the exact allocation that just failed — and the
    /// keyspace can't be frozen READ_ONLY gracefully.
    seal_reserve: u32,
}

impl ZoneManager {
    /// Wrap a zoned namespace. `reserved_zones` zones at the front are
    /// excluded from allocation (the keyspace manager's metadata zone(s)).
    pub fn new(zns: Arc<ZonedNamespace>, reserved_zones: u32, seed: u64) -> Self {
        let channels = zns.nand().geometry().channels;
        let mut free_by_channel: Vec<Vec<u32>> = (0..channels).map(|_| Vec::new()).collect();
        for z in (reserved_zones..zns.zone_count()).rev() {
            free_by_channel[zns.channel_of_zone(z) as usize].push(z);
        }
        let zone_blocks = zns.zone_capacity_pages() as u64;
        debug_assert_eq!(
            zns.nand().geometry().page_bytes as usize,
            BLOCK_BYTES,
            "device blocks are NAND pages"
        );
        let free_total: u32 = free_by_channel.iter().map(|v| v.len() as u32).sum();
        Self {
            zns,
            inner: Mutex::new(Inner {
                free_by_channel,
                clusters: HashMap::new(),
                next_id: 1,
                rng: XorShift64::new(seed),
            }),
            free_count: Shared::new(free_total),
            zone_blocks,
            seal_reserve: 0,
        }
    }

    /// Re-derive the free-zone gauge from the free lists. Callers must
    /// hold the `inner` lock, so the recount is consistent with the
    /// mutation it follows.
    fn refresh_free_count(&self, inner: &Inner) {
        let total: u32 = inner.free_by_channel.iter().map(|v| v.len() as u32).sum();
        self.free_count.set(total);
    }

    /// Hold `zones` zones back from ordinary growth as the seal reserve
    /// (see the field doc). Sized by the device to cover one emergency
    /// stripe group for each of KLOG and VLOG.
    pub fn with_seal_reserve(mut self, zones: u32) -> Self {
        self.seal_reserve = zones;
        self
    }

    pub fn zns(&self) -> &Arc<ZonedNamespace> {
        &self.zns
    }

    /// Total free zones. Reads the cached gauge — pressure probes don't
    /// contend on the allocation lock.
    pub fn free_zones(&self) -> u32 {
        self.free_count.get()
    }

    /// Blocks one zone holds.
    pub fn zone_blocks(&self) -> u64 {
        self.zone_blocks
    }

    /// Number of live clusters.
    pub fn cluster_count(&self) -> usize {
        self.inner.lock().clusters.len()
    }

    /// The id the next allocated cluster gets. Ids only grow within a
    /// session, so every cluster allocated after this call is numbered
    /// at or above it.
    pub fn next_cluster_id(&self) -> u32 {
        self.inner.lock().next_id
    }

    /// The allocated clusters numbered `first` or above, in id order.
    pub fn cluster_ids_from(&self, first: u32) -> Vec<u32> {
        let mut ids: Vec<u32> = (self.inner.lock().clusters.keys())
            .copied()
            .filter(|&id| id >= first)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn take_zone_group(inner: &mut Inner, width: u32, reserve: u32) -> Result<Vec<u32>> {
        let channels = inner.free_by_channel.len();
        let total_free: usize = inner.free_by_channel.iter().map(Vec::len).sum();
        if total_free < width as usize + reserve as usize {
            return Err(DeviceError::OutOfZones {
                need: width,
                free: total_free as u32,
                reserve,
            });
        }
        // One zone per channel where possible, starting at a random
        // channel so clusters spread load.
        let start = inner.rng.next_below(channels as u64) as usize;
        let mut zones = Vec::with_capacity(width as usize);
        let mut probe = 0;
        while zones.len() < width as usize {
            let c = (start + probe) % channels;
            probe += 1;
            if let Some(z) = inner.free_by_channel[c].pop() {
                zones.push(z);
            }
            if probe > channels * (width as usize + 1) {
                // All remaining free zones are on few channels; drain them.
                for ch in 0..channels {
                    while zones.len() < width as usize {
                        match inner.free_by_channel[ch].pop() {
                            Some(z) => zones.push(z),
                            None => break,
                        }
                    }
                }
                break;
            }
        }
        debug_assert_eq!(zones.len(), width as usize);
        Ok(zones)
    }

    /// Allocate a cluster striping page by page over `width` zones.
    pub fn alloc_cluster(&self, width: u32) -> Result<ClusterId> {
        self.alloc(width, 1)
    }

    /// Allocate a write-log cluster: `width` zones striped by NAND erase
    /// block, so releasing a short log erases only the blocks it filled.
    pub fn alloc_log_cluster(&self, width: u32) -> Result<ClusterId> {
        let pages_per_block = self.zns.nand().geometry().pages_per_block as u64;
        self.alloc(width, pages_per_block.min(self.zone_blocks) as u32)
    }

    fn alloc(&self, width: u32, unit: u32) -> Result<ClusterId> {
        let width = width.max(1);
        let mut inner = self.inner.lock();
        let zones = Self::take_zone_group(&mut inner, width, self.seal_reserve)?;
        self.refresh_free_count(&inner);
        let id = inner.next_id;
        inner.next_id += 1;
        let offset = inner.rng.next_below(width as u64) as u32;
        inner.clusters.insert(
            id,
            Cluster {
                groups: vec![zones],
                width,
                offset,
                unit,
                blocks: 0,
            },
        );
        Ok(ClusterId(id))
    }

    /// Blocks appended to `cluster` so far.
    pub fn cluster_blocks(&self, cluster: ClusterId) -> Result<u64> {
        let inner = self.inner.lock();
        let c = inner
            .clusters
            .get(&cluster.0)
            .ok_or(DeviceError::Internal(format!(
                "cluster {} not found",
                cluster.0
            )))?;
        Ok(c.blocks)
    }

    /// Zones currently owned by `cluster`.
    pub fn cluster_zone_count(&self, cluster: ClusterId) -> Result<u32> {
        let inner = self.inner.lock();
        let c = inner
            .clusters
            .get(&cluster.0)
            .ok_or_else(|| DeviceError::Internal(format!("cluster {} not found", cluster.0)))?;
        Ok(c.groups.iter().map(|g| g.len() as u32).sum())
    }

    /// Append one block (at most [`BLOCK_BYTES`]) to the cluster stream,
    /// returning its block index.
    pub fn append_block(&self, cluster: ClusterId, data: &[u8]) -> Result<u64> {
        self.append_block_inner(cluster, data, self.seal_reserve)
    }

    /// Like [`append_block`](Self::append_block) but allowed to dip into
    /// the seal reserve. Only the log-seal path may use this: it appends
    /// at most one padded tail block per log, so the reserve bounds it.
    pub fn append_block_sealing(&self, cluster: ClusterId, data: &[u8]) -> Result<u64> {
        self.append_block_inner(cluster, data, 0)
    }

    fn append_block_inner(&self, cluster: ClusterId, data: &[u8], reserve: u32) -> Result<u64> {
        if data.len() > BLOCK_BYTES {
            return Err(DeviceError::BadPayload(format!(
                "block of {} bytes",
                data.len()
            )));
        }
        let mut inner = self.inner.lock();
        // Grow by a stripe group if the current groups are full.
        let (zone, page, block_ix) = {
            let need_group = {
                let c = inner
                    .clusters
                    .get(&cluster.0)
                    .ok_or_else(|| DeviceError::Internal("cluster gone".into()))?;
                let capacity = c.groups.len() as u64 * c.width as u64 * self.zone_blocks;
                c.blocks >= capacity
            };
            if need_group {
                let width = inner.clusters[&cluster.0].width;
                let zones = Self::take_zone_group(&mut inner, width, reserve)?;
                self.refresh_free_count(&inner);
                inner
                    .clusters
                    .get_mut(&cluster.0)
                    .ok_or_else(|| DeviceError::Internal("cluster gone".into()))?
                    .groups
                    .push(zones);
            }
            let c = inner
                .clusters
                .get_mut(&cluster.0)
                .ok_or_else(|| DeviceError::Internal("cluster gone".into()))?;
            let block_ix = c.blocks;
            c.blocks += 1;
            let (zone, page) = c.locate(self.zone_blocks, block_ix);
            (zone, page, block_ix)
        };
        drop(inner);
        let start = self.zns.append(zone, data)?;
        debug_assert_eq!(start, page, "unit striping must fill zones in order");
        Ok(block_ix)
    }

    /// Read one whole block back: the NAND's stored page, shared rather
    /// than copied. It is not a cache — every call pays the page read.
    pub fn read_block(&self, cluster: ClusterId, block: u64) -> Result<Arc<[u8]>> {
        let (zone, page) = {
            let inner = self.inner.lock();
            let c = inner
                .clusters
                .get(&cluster.0)
                .ok_or_else(|| DeviceError::Internal("cluster gone".into()))?;
            if block >= c.blocks {
                return Err(DeviceError::Internal(format!(
                    "block {block} past end of cluster ({})",
                    c.blocks
                )));
            }
            c.locate(self.zone_blocks, block)
        };
        Ok(self.zns.read_page(zone, page)?)
    }

    /// Read `len` bytes at stream byte `offset`, touching only the
    /// covering blocks (whole-block I/O — the read-amplification
    /// granularity of the device) and copying only the requested span.
    pub fn read_bytes(&self, cluster: ClusterId, offset: u64, len: usize) -> Result<Vec<u8>> {
        let bb = BLOCK_BYTES as u64;
        let first = offset / bb;
        let last = (offset + len as u64).div_ceil(bb);
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        for b in first..last {
            let block = self.read_block(cluster, b)?;
            let start = (pos - b * bb) as usize;
            let take = (len - out.len()).min(BLOCK_BYTES - start);
            out.extend_from_slice(&block[start..start + take]);
            pos += take as u64;
        }
        Ok(out)
    }

    /// Export the manager's allocation state for a device snapshot.
    pub fn export_state(&self) -> ZoneManagerState {
        let inner = self.inner.lock();
        let mut clusters: Vec<ClusterState> = inner
            .clusters
            .iter()
            .map(|(&id, c)| ClusterState {
                id,
                width: c.width,
                offset: c.offset,
                unit: c.unit,
                blocks: c.blocks,
                groups: c.groups.clone(),
            })
            .collect();
        clusters.sort_by_key(|c| c.id);
        ZoneManagerState {
            next_id: inner.next_id,
            clusters,
        }
    }

    /// Rebuild a manager from a snapshot after a device restart.
    ///
    /// Cluster block counts are recomputed from the zones' *write
    /// pointers* (the ground truth that survives a crash), because data
    /// may have been appended after the snapshot was taken.
    pub fn restore(
        zns: Arc<ZonedNamespace>,
        reserved_zones: u32,
        seed: u64,
        state: &ZoneManagerState,
    ) -> Result<Self> {
        let mgr = Self::new(Arc::clone(&zns), reserved_zones, seed);
        {
            let mut inner = mgr.inner.lock();
            inner.next_id = state.next_id;
            let mut used: std::collections::HashSet<u32> = std::collections::HashSet::new();
            for cs in &state.clusters {
                let unit_fits = cs.unit > 0 && zns.zone_capacity_pages().is_multiple_of(cs.unit);
                if cs.width == 0 || !unit_fits || cs.offset >= cs.width {
                    return Err(DeviceError::Internal(format!(
                        "snapshot cluster {} has width {}, offset {}, unit {}",
                        cs.id, cs.width, cs.offset, cs.unit
                    )));
                }
                let mut blocks = 0u64;
                for group in &cs.groups {
                    for &z in group {
                        if z >= zns.zone_count() {
                            return Err(DeviceError::Internal(format!(
                                "snapshot references zone {z} outside the device"
                            )));
                        }
                        used.insert(z);
                        blocks += zns.zone_info(z)?.write_pointer_pages as u64;
                    }
                }
                inner.clusters.insert(
                    cs.id,
                    Cluster {
                        groups: cs.groups.clone(),
                        width: cs.width,
                        offset: cs.offset,
                        unit: cs.unit,
                        blocks,
                    },
                );
            }
            for free in &mut inner.free_by_channel {
                free.retain(|z| !used.contains(z));
            }
            mgr.refresh_free_count(&inner);
            // Crash debris: zones written after the snapshot was taken
            // (in-flight allocations the crash lost) are referenced by no
            // restored cluster but still carry data. Reset them now so a
            // later alloc hands out zones whose write pointer is 0.
            for ch in 0..inner.free_by_channel.len() {
                for i in 0..inner.free_by_channel[ch].len() {
                    let z = inner.free_by_channel[ch][i];
                    if zns.zone_info(z)?.state != ZoneState::Empty {
                        zns.reset(z)?;
                    }
                }
            }
        }
        Ok(mgr)
    }

    /// Release a cluster: reset all its zones and return them to the pool.
    /// A zone whose reset fails is left out of the pool (the orphan sweep
    /// in [`restore`](Self::restore) resets it on reopen); the others are
    /// still freed, and the first error is returned.
    pub fn release_cluster(&self, cluster: ClusterId) -> Result<()> {
        let mut inner = self.inner.lock();
        let c = inner
            .clusters
            .remove(&cluster.0)
            .ok_or_else(|| DeviceError::Internal("cluster gone".into()))?;
        // Reset outside the free-list mutation but inside the lock is fine:
        // zns has its own synchronization.
        let mut first_err = None;
        for &zone in c.groups.iter().flatten() {
            let reset = self.zns.zone_info(zone).and_then(|info| match info.state {
                ZoneState::Empty => Ok(()),
                _ => self.zns.reset(zone),
            });
            match reset {
                Ok(()) => {
                    let ch = self.zns.channel_of_zone(zone) as usize;
                    inner.free_by_channel[ch].push(zone);
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        self.refresh_free_count(&inner);
        first_err.map_or(Ok(()), |e| Err(e.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_flash::{FlashGeometry, NandArray, ZnsConfig};
    use kvcsd_sim::{HardwareSpec, IoLedger};

    /// Erase blocks of 4 pages, zones of 2 erase blocks (8 pages).
    fn mgr(channels: u32, blocks_per_channel: u32) -> ZoneManager {
        mgr_zoned(channels, blocks_per_channel, 2)
    }

    fn mgr_zoned(channels: u32, blocks_per_channel: u32, zone_blocks: u32) -> ZoneManager {
        let geom = FlashGeometry {
            channels,
            blocks_per_channel,
            pages_per_block: 4,
            page_bytes: 4096,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        let zns = Arc::new(ZonedNamespace::new(
            nand,
            ZnsConfig {
                zone_blocks,
                max_open_zones: 4096,
            },
        ));
        ZoneManager::new(zns, 1, 42)
    }

    /// A full block whose bytes name its stream index.
    fn pattern(i: u64) -> Vec<u8> {
        (0..BLOCK_BYTES as u64)
            .map(|j| (i * 7 + j / 8) as u8)
            .collect()
    }

    fn erases(m: &ZoneManager, run: impl FnOnce()) -> u64 {
        let before = m.zns().nand().ledger().snapshot();
        run();
        (m.zns().nand().ledger().snapshot())
            .since(&before)
            .nand_erase_blocks
    }

    #[test]
    fn alloc_spreads_channels() {
        let m = mgr(8, 8);
        let c = m.alloc_cluster(8).unwrap();
        assert_eq!(m.cluster_zone_count(c).unwrap(), 8);
        // Write 8 blocks: all 8 channels must see traffic.
        for i in 0..8u8 {
            m.append_block(c, &[i; 64]).unwrap();
        }
        let s = m.zns().nand().ledger().snapshot();
        let busy = s.channel_busy_ns.iter().filter(|&&b| b > 0).count();
        assert_eq!(busy, 8, "cluster of width 8 must hit all 8 channels");
    }

    #[test]
    fn stream_roundtrip_block_level() {
        let m = mgr(4, 16);
        let c = m.alloc_cluster(4).unwrap();
        for i in 0..20u64 {
            let ix = m.append_block(c, &[i as u8; 4096]).unwrap();
            assert_eq!(ix, i);
        }
        assert_eq!(m.cluster_blocks(c).unwrap(), 20);
        for i in 0..20u64 {
            assert_eq!(
                &*m.read_block(c, i).unwrap(),
                &[i as u8; 4096][..],
                "block {i}"
            );
        }
    }

    #[test]
    fn short_final_block_zero_padded() {
        let m = mgr(4, 16);
        let c = m.alloc_cluster(2).unwrap();
        m.append_block(c, &[9u8; 100]).unwrap();
        let b = m.read_block(c, 0).unwrap();
        assert_eq!(&b[..100], &[9u8; 100]);
        assert!(b[100..].iter().all(|&x| x == 0));
    }

    #[test]
    fn byte_stream_reads_span_blocks() {
        let m = mgr(4, 16);
        let c = m.alloc_cluster(3).unwrap();
        let mut all = Vec::new();
        for i in 0..6u64 {
            let block: Vec<u8> = (0..4096u32)
                .map(|j| ((i * 31 + j as u64) % 251) as u8)
                .collect();
            m.append_block(c, &block).unwrap();
            all.extend_from_slice(&block);
        }
        assert_eq!(m.read_bytes(c, 4000, 200).unwrap(), &all[4000..4200]);
        assert_eq!(m.read_bytes(c, 0, 1).unwrap(), &all[0..1]);
        assert_eq!(m.read_bytes(c, 8192, 4096).unwrap(), &all[8192..12288]);
    }

    #[test]
    fn clusters_grow_beyond_initial_group() {
        let m = mgr(4, 16); // zone = 2 blocks * 4 pages = 8 blocks of 4 KiB
        let c = m.alloc_cluster(2).unwrap();
        // Initial group: 2 zones * 8 blocks = 16 blocks. Write 40.
        for i in 0..40u64 {
            m.append_block(c, &[i as u8; 8]).unwrap();
        }
        assert!(m.cluster_zone_count(c).unwrap() >= 6);
        for i in (0..40u64).step_by(7) {
            assert_eq!(m.read_block(c, i).unwrap()[0], i as u8);
        }
    }

    #[test]
    fn release_returns_zones_for_reuse() {
        let m = mgr(4, 4); // small: 4 ch * 4 blocks / 2-block zones = 8 zones, 1 reserved
        let free0 = m.free_zones();
        let c = m.alloc_cluster(4).unwrap();
        for i in 0..8u64 {
            m.append_block(c, &[i as u8; 16]).unwrap();
        }
        assert!(m.free_zones() < free0);
        m.release_cluster(c).unwrap();
        assert_eq!(m.free_zones(), free0);
        // Reading a released cluster is an error.
        assert!(m.read_block(c, 0).is_err());
        // And the zones are reusable.
        let c2 = m.alloc_cluster(4).unwrap();
        m.append_block(c2, &[1u8; 16]).unwrap();
    }

    #[test]
    fn failed_reset_frees_the_other_zones_and_the_sweep_reclaims_it() {
        let m = mgr(8, 8);
        let free = m.free_zones();
        let c = m.alloc_cluster(4).unwrap();
        // One block: one zone holds data, the other three stay empty.
        m.append_block(c, &[1; 64]).unwrap();
        let inj = Arc::new(kvcsd_sim::FaultInjector::new(kvcsd_sim::FaultPlan {
            erase_error_prob: 1.0,
            ..kvcsd_sim::FaultPlan::none()
        }));
        m.zns().nand().set_fault_injector(Some(inj));
        assert!(m.release_cluster(c).is_err(), "the erase fault surfaces");
        assert_eq!(m.cluster_count(), 0);
        assert_eq!(m.free_zones(), free - 1, "the three empty zones are free");
        let inner = m.inner.lock();
        let pooled: u32 = inner.free_by_channel.iter().map(|v| v.len() as u32).sum();
        assert_eq!(pooled, free - 1, "the gauge matches the free lists");
        drop(inner);

        // Reopen: the orphan sweep resets the failed zone and frees it.
        m.zns().nand().set_fault_injector(None);
        let state = m.export_state();
        let r = ZoneManager::restore(Arc::clone(m.zns()), 1, 42, &state).unwrap();
        assert_eq!(r.free_zones(), free);
        let c = r.alloc_cluster(8).unwrap();
        r.append_block(c, &[2; 64]).unwrap();
        r.release_cluster(c).unwrap();
        assert_eq!(r.free_zones(), free);
    }

    #[test]
    fn alloc_fails_when_zones_exhausted() {
        let m = mgr(2, 4); // 2*4/2 = 4 zones, 1 reserved -> 3 usable
        let _c1 = m.alloc_cluster(3).unwrap();
        assert!(matches!(
            m.alloc_cluster(1),
            Err(DeviceError::OutOfZones { .. })
        ));
    }

    #[test]
    fn append_overflow_grows_or_errors_cleanly() {
        let m = mgr(2, 4); // 3 usable zones of 8 blocks
        let c = m.alloc_cluster(2).unwrap();
        let mut wrote = 0u64;
        loop {
            match m.append_block(c, &[0u8; 8]) {
                Ok(_) => wrote += 1,
                Err(DeviceError::OutOfZones { .. }) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
            assert!(wrote < 100, "must run out eventually");
        }
        // 2 initial zones (16 blocks) fit; the third group alloc of width
        // 2 fails with 1 zone left.
        assert_eq!(wrote, 16);
    }

    #[test]
    fn seal_reserve_is_kept_back_for_sealing_appends() {
        // 4*4/2 = 8 zones, 1 reserved for metadata -> 7 usable, of which
        // 2 are held back as the seal reserve.
        let m = mgr(4, 4).with_seal_reserve(2);
        let c = m.alloc_cluster(1).unwrap();
        // Ordinary appends stop while 2 zones are still free...
        let mut wrote = 0u64;
        loop {
            match m.append_block(c, &[7u8; 8]) {
                Ok(_) => wrote += 1,
                Err(DeviceError::OutOfZones { reserve, .. }) => {
                    assert_eq!(reserve, 2);
                    break;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
            assert!(wrote < 100, "must hit the reserve floor eventually");
        }
        assert_eq!(m.free_zones(), 2, "reserve must survive ordinary growth");
        // ...but the sealing variant may consume them.
        m.append_block_sealing(c, &[8u8; 8]).unwrap();
        assert!(m.free_zones() < 2);
        // And ordinary allocation is also refused inside the reserve.
        assert!(matches!(
            m.alloc_cluster(1),
            Err(DeviceError::OutOfZones { .. })
        ));
    }

    #[test]
    fn distinct_clusters_have_distinct_streams() {
        let m = mgr(4, 16);
        let a = m.alloc_cluster(2).unwrap();
        let b = m.alloc_cluster(2).unwrap();
        m.append_block(a, &[1u8; 32]).unwrap();
        m.append_block(b, &[2u8; 32]).unwrap();
        assert_eq!(m.read_block(a, 0).unwrap()[0], 1);
        assert_eq!(m.read_block(b, 0).unwrap()[0], 2);
    }

    #[test]
    fn oversized_block_rejected() {
        let m = mgr(4, 16);
        let c = m.alloc_cluster(1).unwrap();
        assert!(matches!(
            m.append_block(c, &vec![0u8; BLOCK_BYTES + 1]),
            Err(DeviceError::BadPayload(_))
        ));
    }

    #[test]
    fn export_restore_roundtrip_preserves_data() {
        let m = mgr(4, 16);
        let a = m.alloc_cluster(3).unwrap();
        let b = m.alloc_cluster(2).unwrap();
        for i in 0..10u64 {
            m.append_block(a, &[i as u8; 64]).unwrap();
        }
        m.append_block(b, &[0xBB; 64]).unwrap();
        let state = m.export_state();
        let zns = Arc::clone(m.zns());
        let free_before = m.free_zones();
        drop(m);

        let m2 = ZoneManager::restore(zns, 1, 42, &state).unwrap();
        assert_eq!(m2.free_zones(), free_before, "free pool reconstructed");
        assert_eq!(m2.cluster_blocks(a).unwrap(), 10);
        assert_eq!(m2.cluster_blocks(b).unwrap(), 1);
        for i in 0..10u64 {
            assert_eq!(m2.read_block(a, i).unwrap()[0], i as u8);
        }
        assert_eq!(m2.read_block(b, 0).unwrap()[0], 0xBB);
        // New allocations do not collide with restored clusters.
        let c = m2.alloc_cluster(2).unwrap();
        assert!(c.0 > b.0);
        m2.append_block(c, &[1; 8]).unwrap();
        // Appends to restored clusters continue at the right position.
        let ix = m2.append_block(a, &[99; 8]).unwrap();
        assert_eq!(ix, 10);
        assert_eq!(m2.read_block(a, 10).unwrap()[0], 99);
    }

    #[test]
    fn restore_rejects_bogus_zone_refs() {
        let m = mgr(4, 16);
        let state = ZoneManagerState {
            next_id: 5,
            clusters: vec![ClusterState {
                id: 1,
                width: 1,
                offset: 0,
                unit: 1,
                blocks: 0,
                groups: vec![vec![9999]],
            }],
        };
        assert!(ZoneManager::restore(Arc::clone(m.zns()), 1, 1, &state).is_err());
        // A stripe unit that does not divide the 8-page zone.
        m.alloc_log_cluster(2).unwrap();
        let mut state = m.export_state();
        state.clusters[0].unit = 3;
        assert!(ZoneManager::restore(Arc::clone(m.zns()), 1, 1, &state).is_err());
    }

    #[test]
    fn releasing_a_log_erases_only_the_erase_blocks_it_filled() {
        // Width 4, 4-page erase blocks, 8-page zones: a group holds 32
        // pages. Page striping leaves a partial block in every zone it
        // touched; the log fills whole blocks, so it erases ceil(P / 4).
        for (pages, page_striped) in [(5u64, 4u64), (9, 4), (20, 8), (40, 12)] {
            let m = mgr(8, 16);
            let (paged, log) = (m.alloc_cluster(4).unwrap(), m.alloc_log_cluster(4).unwrap());
            for i in 0..pages {
                m.append_block(paged, &[i as u8; 64]).unwrap();
                m.append_block(log, &[i as u8; 64]).unwrap();
            }
            let e = erases(&m, || m.release_cluster(paged).unwrap());
            assert_eq!(e, page_striped, "page-striped cluster of {pages} pages");
            let e = erases(&m, || m.release_cluster(log).unwrap());
            assert_eq!(e, pages.div_ceil(4), "log cluster of {pages} pages");
        }
    }

    #[test]
    fn locate_agrees_with_where_append_wrote() {
        for zone_blocks in [1, 4] {
            for width in [1u32, 3, 8] {
                let m = mgr_zoned(8, 64, zone_blocks);
                let unit = m.zone_blocks().min(4);
                let group = width as u64 * m.zone_blocks();
                let (paged, log) = (
                    m.alloc_cluster(width).unwrap(),
                    m.alloc_log_cluster(width).unwrap(),
                );
                for c in [paged, log] {
                    let n = 3 * group + 5;
                    for i in 0..n {
                        assert_eq!(m.append_block(c, &pattern(i)).unwrap(), i);
                    }
                    let inner = m.inner.lock();
                    let cl = &inner.clusters[&c.0];
                    let at: Vec<(u32, u32)> =
                        (0..n).map(|i| cl.locate(m.zone_blocks(), i)).collect();
                    drop(inner);
                    let case = format!("zone of {zone_blocks} blocks, width {width}, {c:?}");
                    for (i, &(zone, page)) in at.iter().enumerate() {
                        let i = i as u64;
                        assert_eq!(
                            &*m.zns().read_page(zone, page).unwrap(),
                            &pattern(i)[..],
                            "{case}: block {i}"
                        );
                        // A log's erase-block units stay whole in one zone.
                        if c == log && !i.is_multiple_of(unit) {
                            assert_eq!(at[i as usize - 1], (zone, page - 1), "{case}: block {i}");
                        }
                    }
                    m.release_cluster(c).unwrap();
                }
            }
        }
    }

    #[test]
    fn a_log_stopped_mid_unit_restores_and_keeps_appending_in_place() {
        let m = mgr(4, 16);
        let log = m.alloc_log_cluster(3).unwrap();
        // 10 blocks: two whole 4-page units and half of a third.
        for i in 0..10 {
            m.append_block(log, &pattern(i)).unwrap();
        }
        let state = m.export_state();
        assert_eq!(state.clusters[0].unit, 4);
        let m = ZoneManager::restore(Arc::clone(m.zns()), 1, 42, &state).unwrap();
        for i in 0..10 {
            assert_eq!(
                &*m.read_block(log, i).unwrap(),
                &pattern(i)[..],
                "block {i}"
            );
        }
        for i in 10..17 {
            assert_eq!(m.append_block(log, &pattern(i)).unwrap(), i);
        }
        for i in 0..17 {
            assert_eq!(
                &*m.read_block(log, i).unwrap(),
                &pattern(i)[..],
                "block {i}"
            );
        }
        assert_eq!(erases(&m, || m.release_cluster(log).unwrap()), 5);
    }

    #[test]
    fn width_one_cluster_works() {
        let m = mgr(4, 16);
        let c = m.alloc_cluster(1).unwrap();
        for i in 0..10u64 {
            m.append_block(c, &[i as u8; 4]).unwrap();
        }
        for i in 0..10u64 {
            assert_eq!(m.read_block(c, i).unwrap()[0], i as u8);
        }
    }
}
