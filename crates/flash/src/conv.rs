//! Conventional (block) namespace: a page-mapping FTL with garbage
//! collection, the substrate the software baseline's filesystem runs on.
//!
//! Logical page writes go to per-channel active blocks in round-robin
//! order, so large sequential writes stripe across all channels just like
//! a real SSD. Overwrites invalidate the old physical page; when free
//! blocks run low a greedy garbage collector relocates the remaining valid
//! pages of the emptiest sealed block and erases it. All relocation I/O is
//! charged to the ledger — the "GC tax" the paper's ZNS design avoids is
//! therefore measured, not asserted.

use std::collections::HashMap;
use std::sync::Arc;

use kvcsd_sim::sync::Mutex;
use kvcsd_sim::IoLedger;

use crate::error::FlashError;
use crate::nand::NandArray;
use crate::Result;

/// Configuration of the conventional namespace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvConfig {
    /// Fraction of physical capacity hidden as over-provisioning
    /// (enterprise SSDs commonly reserve ~7-28%).
    pub op_fraction: f64,
    /// Run garbage collection when the free-block pool drops below this.
    pub gc_free_blocks: u32,
    /// Effective bandwidth of the host's path to this namespace, in
    /// bytes/sec. On the paper's testbed the host reaches the SSD *as a
    /// block device through the CSD's SoC* (a PCIe Gen3 x4 back-link plus
    /// the ext4/block-layer data path), so host block I/O shares one
    /// ~1.2 GB/s pipe regardless of NAND channel parallelism. KV-CSD's
    /// on-SoC store talks to NAND directly and never pays this. Internal
    /// garbage-collection traffic stays inside the SSD and is exempt.
    pub bridge_bw_bps: f64,
}

impl Default for ConvConfig {
    fn default() -> Self {
        Self {
            op_fraction: 0.125,
            gc_free_blocks: 4,
            bridge_bw_bps: 1.2e9,
        }
    }
}

#[derive(Debug)]
struct Ftl {
    /// Logical page -> physical page.
    map: HashMap<u64, u64>,
    /// Physical page -> logical page (for GC relocation).
    rmap: HashMap<u64, u64>,
    /// Valid-page count per erase block.
    valid: HashMap<u64, u32>,
    /// Free (erased) blocks per channel.
    free: Vec<Vec<u64>>,
    /// Currently-filling block per channel: (block, next page index).
    active: Vec<Option<(u64, u32)>>,
    /// Sealed (fully programmed) blocks, candidates for GC.
    sealed: Vec<u64>,
    /// Round-robin channel cursor for allocation.
    rr: usize,
}

/// The conventional block namespace.
#[derive(Debug)]
pub struct ConventionalNamespace {
    nand: Arc<NandArray>,
    cfg: ConvConfig,
    logical_pages: u64,
    ftl: Mutex<Ftl>,
}

impl ConventionalNamespace {
    pub fn new(nand: Arc<NandArray>, cfg: ConvConfig) -> Self {
        let geom = *nand.geometry();
        let logical_pages = (geom.total_pages() as f64 / (1.0 + cfg.op_fraction)).floor() as u64;
        let mut free: Vec<Vec<u64>> = (0..geom.channels).map(|_| Vec::new()).collect();
        for block in 0..geom.total_blocks() {
            free[geom.channel_of_block(block) as usize].push(block);
        }
        // Pop from the back; reverse so low block numbers are used first.
        for f in &mut free {
            f.reverse();
        }
        Self {
            nand,
            cfg,
            logical_pages,
            ftl: Mutex::new(Ftl {
                map: HashMap::new(),
                rmap: HashMap::new(),
                valid: HashMap::new(),
                free,
                active: (0..geom.channels).map(|_| None).collect(),
                sealed: Vec::new(),
                rr: 0,
            }),
        }
    }

    pub fn nand(&self) -> &Arc<NandArray> {
        &self.nand
    }

    fn ledger(&self) -> &Arc<IoLedger> {
        self.nand.ledger()
    }

    /// Logical capacity in pages (physical minus over-provisioning).
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Logical capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.logical_pages * self.nand.geometry().page_bytes as u64
    }

    fn check_lpa(&self, lpa: u64) -> Result<()> {
        if lpa >= self.logical_pages {
            return Err(FlashError::AddressOutOfRange {
                addr: lpa,
                limit: self.logical_pages,
            });
        }
        Ok(())
    }

    /// Occupy the host-side bridge for one page transfer.
    fn charge_bridge(&self) {
        let ns = self.nand.geometry().page_bytes as f64 / self.cfg.bridge_bw_bps * 1e9;
        self.ledger().bridge_busy(ns as u64);
    }

    /// Write one logical page (shorter payloads are zero-padded).
    pub fn write(&self, lpa: u64, data: &[u8]) -> Result<()> {
        self.check_lpa(lpa)?;
        self.charge_bridge();
        let mut ftl = self.ftl.lock();
        let ppa = self.alloc_page(&mut ftl)?;
        self.nand.program(ppa, data)?;
        self.install_mapping(&mut ftl, lpa, ppa);
        Ok(())
    }

    /// Read one logical page. Unmapped pages read as zeroes without
    /// touching NAND (like a hole in a sparse device).
    pub fn read(&self, lpa: u64) -> Result<Vec<u8>> {
        self.check_lpa(lpa)?;
        let ppa = self.ftl.lock().map.get(&lpa).copied();
        match ppa {
            Some(ppa) => {
                self.charge_bridge();
                Ok(self.nand.read(ppa)?.to_vec())
            }
            None => Ok(vec![0u8; self.nand.geometry().page_bytes as usize]),
        }
    }

    /// Discard a logical page (TRIM), freeing its physical page for GC.
    pub fn trim(&self, lpa: u64) -> Result<()> {
        self.check_lpa(lpa)?;
        let mut ftl = self.ftl.lock();
        if let Some(ppa) = ftl.map.remove(&lpa) {
            ftl.rmap.remove(&ppa);
            let block = self.nand.geometry().block_of_ppa(ppa);
            if let Some(v) = ftl.valid.get_mut(&block) {
                *v = v.saturating_sub(1);
            }
        }
        Ok(())
    }

    /// Number of currently free (erased, unallocated) blocks.
    pub fn free_blocks(&self) -> u64 {
        self.ftl.lock().free.iter().map(|f| f.len() as u64).sum()
    }

    /// Pages moved by garbage collection since creation.
    pub fn gc_moved_pages(&self) -> u64 {
        self.ledger().custom("ftl_gc_moved_pages")
    }

    // ---- internals ------------------------------------------------------

    fn install_mapping(&self, ftl: &mut Ftl, lpa: u64, ppa: u64) {
        let geom = self.nand.geometry();
        if let Some(old) = ftl.map.insert(lpa, ppa) {
            ftl.rmap.remove(&old);
            let old_block = geom.block_of_ppa(old);
            if let Some(v) = ftl.valid.get_mut(&old_block) {
                *v = v.saturating_sub(1);
            }
        }
        ftl.rmap.insert(ppa, lpa);
        *ftl.valid.entry(geom.block_of_ppa(ppa)).or_insert(0) += 1;
    }

    /// Allocate the next physical page, garbage-collecting if needed.
    fn alloc_page(&self, ftl: &mut Ftl) -> Result<u64> {
        let geom = *self.nand.geometry();
        // Reclaim until the free pool is healthy or nothing is reclaimable.
        while (ftl.free.iter().map(Vec::len).sum::<usize>() as u32) < self.cfg.gc_free_blocks {
            if !self.collect_garbage(ftl)? {
                break;
            }
        }
        let channels = geom.channels as usize;
        for probe in 0..channels {
            let c = (ftl.rr + probe) % channels;
            if ftl.active[c].is_none() {
                if let Some(block) = ftl.free[c].pop() {
                    ftl.active[c] = Some((block, 0));
                }
            }
            if let Some((block, next)) = ftl.active[c] {
                let ppa = geom.first_ppa_of_block(block) + next as u64;
                if next + 1 == geom.pages_per_block {
                    ftl.sealed.push(block);
                    ftl.active[c] = None;
                } else {
                    ftl.active[c] = Some((block, next + 1));
                }
                ftl.rr = (c + 1) % channels;
                return Ok(ppa);
            }
        }
        Err(FlashError::DeviceFull)
    }

    /// Greedy GC: relocate the valid pages of the emptiest sealed block,
    /// erase it and return it to the free pool. Returns `false` when no
    /// space-gaining victim exists (every sealed block is fully valid).
    fn collect_garbage(&self, ftl: &mut Ftl) -> Result<bool> {
        let geom = *self.nand.geometry();
        let victim_pos = {
            let valid = &ftl.valid;
            ftl.sealed
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| valid.get(b).copied().unwrap_or(0))
                .map(|(i, _)| i)
        };
        let Some(pos) = victim_pos else {
            return Ok(false);
        }; // nothing sealed yet
        let victim = ftl.sealed[pos];
        let victim_valid = ftl.valid.get(&victim).copied().unwrap_or(0);
        if victim_valid >= geom.pages_per_block {
            // Relocating a fully-valid block gains nothing; stop reclaiming.
            return Ok(false);
        }
        ftl.sealed.swap_remove(pos);

        let first = geom.first_ppa_of_block(victim);
        for p in 0..geom.pages_per_block as u64 {
            let ppa = first + p;
            let Some(lpa) = ftl.rmap.get(&ppa).copied() else {
                continue;
            };
            let data = self.nand.read(ppa)?;
            // Relocation must not recurse into GC: allocate directly.
            let new_ppa = self.alloc_for_gc(ftl, victim)?;
            self.nand.program(new_ppa, &data)?;
            ftl.rmap.remove(&ppa);
            ftl.map.insert(lpa, new_ppa);
            ftl.rmap.insert(new_ppa, lpa);
            *ftl.valid.entry(geom.block_of_ppa(new_ppa)).or_insert(0) += 1;
            self.ledger().bump("ftl_gc_moved_pages", 1);
        }
        ftl.valid.remove(&victim);
        self.nand.erase(victim)?;
        ftl.free[geom.channel_of_block(victim) as usize].push(victim);
        Ok(true)
    }

    /// Page allocation used during GC relocation; never triggers GC and
    /// never allocates inside the victim block.
    fn alloc_for_gc(&self, ftl: &mut Ftl, victim: u64) -> Result<u64> {
        let geom = *self.nand.geometry();
        let channels = geom.channels as usize;
        for probe in 0..channels {
            let c = (ftl.rr + probe) % channels;
            if ftl.active[c].is_none() {
                // Prefer a free block that is not the victim (the victim is
                // not in the free list yet, so any free block is safe).
                if let Some(block) = ftl.free[c].pop() {
                    debug_assert_ne!(block, victim);
                    ftl.active[c] = Some((block, 0));
                }
            }
            if let Some((block, next)) = ftl.active[c] {
                let ppa = geom.first_ppa_of_block(block) + next as u64;
                if next + 1 == geom.pages_per_block {
                    ftl.sealed.push(block);
                    ftl.active[c] = None;
                } else {
                    ftl.active[c] = Some((block, next + 1));
                }
                ftl.rr = (c + 1) % channels;
                return Ok(ppa);
            }
        }
        Err(FlashError::DeviceFull)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;
    use kvcsd_sim::HardwareSpec;

    fn conv(blocks_per_channel: u32) -> ConventionalNamespace {
        let geom = FlashGeometry {
            channels: 4,
            blocks_per_channel,
            pages_per_block: 4,
            page_bytes: 256,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        ConventionalNamespace::new(
            nand,
            ConvConfig {
                op_fraction: 0.25,
                gc_free_blocks: 2,
                ..ConvConfig::default()
            },
        )
    }

    #[test]
    fn write_read_roundtrip() {
        let c = conv(8);
        c.write(0, &[1u8; 256]).unwrap();
        c.write(7, &[2u8; 100]).unwrap();
        assert_eq!(c.read(0).unwrap(), vec![1u8; 256]);
        let p7 = c.read(7).unwrap();
        assert_eq!(&p7[..100], &[2u8; 100]);
    }

    #[test]
    fn unmapped_reads_are_zero_and_free() {
        let c = conv(8);
        let before = c.nand().ledger().snapshot();
        assert_eq!(c.read(5).unwrap(), vec![0u8; 256]);
        let d = c.nand().ledger().snapshot().since(&before);
        assert_eq!(d.nand_read_pages, 0);
    }

    #[test]
    fn overwrite_returns_latest_data() {
        let c = conv(8);
        for i in 0..10u8 {
            c.write(3, &[i; 16]).unwrap();
        }
        assert_eq!(c.read(3).unwrap()[0], 9);
    }

    #[test]
    fn writes_stripe_across_channels() {
        let c = conv(8);
        for lpa in 0..8 {
            c.write(lpa, &[1u8; 256]).unwrap();
        }
        let s = c.nand().ledger().snapshot();
        let busy: Vec<bool> = s.channel_busy_ns.iter().map(|&b| b > 0).collect();
        assert_eq!(busy, vec![true; 4], "all 4 channels should be used");
    }

    #[test]
    fn logical_capacity_excludes_over_provisioning() {
        let c = conv(8);
        // 4*8*4 = 128 physical pages, / 1.25 = 102 logical.
        assert_eq!(c.logical_pages(), 102);
        assert!(c.read(102).is_err());
        assert!(c.write(102, &[0]).is_err());
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_survive() {
        let c = conv(4); // 64 physical pages, 51 logical
                         // Overwrite a working set far beyond physical capacity.
        for round in 0..40u8 {
            for lpa in 0..40u64 {
                c.write(lpa, &[round ^ lpa as u8; 32]).unwrap();
            }
        }
        assert!(c.gc_moved_pages() > 0, "GC should have relocated pages");
        for lpa in 0..40u64 {
            assert_eq!(c.read(lpa).unwrap()[0], 39 ^ lpa as u8, "lpa {lpa}");
        }
        let s = c.nand().ledger().snapshot();
        assert!(s.nand_erase_blocks > 0);
        // Write amplification: programs exceed logical writes.
        assert!(s.nand_program_pages > 40 * 40);
    }

    #[test]
    fn trim_releases_pages_for_gc() {
        let c = conv(4);
        for lpa in 0..51u64 {
            c.write(lpa, &[1u8; 8]).unwrap();
        }
        for lpa in 0..51u64 {
            c.trim(lpa).unwrap();
        }
        // The device should now accept a full rewrite without error.
        for lpa in 0..51u64 {
            c.write(lpa, &[2u8; 8]).unwrap();
        }
        assert_eq!(c.read(50).unwrap()[0], 2);
    }

    #[test]
    fn trimmed_page_reads_zero() {
        let c = conv(8);
        c.write(1, &[9u8; 8]).unwrap();
        c.trim(1).unwrap();
        assert_eq!(c.read(1).unwrap(), vec![0u8; 256]);
    }

    #[test]
    fn device_full_when_everything_is_valid() {
        let c = conv(4); // 51 logical pages over 64 physical
        for lpa in 0..51u64 {
            c.write(lpa, &[1u8; 8]).unwrap();
        }
        // Keep overwriting: GC can always reclaim because overwrites
        // invalidate, so this must keep succeeding.
        for round in 0..20u8 {
            for lpa in 0..51u64 {
                c.write(lpa, &[round; 8]).unwrap();
            }
        }
        assert_eq!(c.read(0).unwrap()[0], 19);
    }

    #[test]
    fn free_block_accounting() {
        let c = conv(8);
        let initial = c.free_blocks();
        assert_eq!(initial, 32);
        // Fill one block's worth of pages (4 pages round-robin across 4
        // channels -> 4 active blocks leave the free pool).
        for lpa in 0..4u64 {
            c.write(lpa, &[1u8; 8]).unwrap();
        }
        assert_eq!(c.free_blocks(), 28);
    }
}
