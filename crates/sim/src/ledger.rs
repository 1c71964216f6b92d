//! The I/O ledger: measured work performed by the real algorithms.
//!
//! Every store in this workspace (the KV-CSD device store and the software
//! LSM baseline) charges its work here as it executes: CPU nanoseconds for
//! comparisons/memcpy/codec work, PCIe bytes for host-device DMA, and NAND
//! page operations (with per-channel busy time) for storage I/O. Figures
//! 7b and 10b of the paper are direct dumps of these counters; the
//! [`crate::TimeModel`] turns ledger deltas into phase times.

use crate::sync::{Mutex, Shared};
use std::collections::BTreeMap;

/// The whole nanoseconds one CPU charge of `ns` books: a negative charge
/// books nothing and the fraction is dropped. A tally that sums many
/// charges rounds each one with this before adding, so it books exactly
/// what charging them one at a time would.
pub fn whole_ns(ns: f64) -> u64 {
    ns.max(0.0) as u64
}

/// Thread-safe work counters. One ledger is shared per simulated testbed.
///
/// Counters are intentionally lock-free-style [`Shared`] cells (the
/// atomic-RMW analogue): charges from every simulated core self-
/// synchronize through each cell, and the debug-build race detector still
/// observes every access (DESIGN.md §11).
#[derive(Debug)]
pub struct IoLedger {
    host_cpu_ns: Shared<u64>,
    soc_cpu_ns: Shared<u64>,
    pcie_h2d_bytes: Shared<u64>,
    pcie_d2h_bytes: Shared<u64>,
    pcie_msgs: Shared<u64>,
    nand_read_pages: Shared<u64>,
    nand_program_pages: Shared<u64>,
    nand_erase_blocks: Shared<u64>,
    fs_calls: Shared<u64>,
    host_block_ios: Shared<u64>,
    bridge_busy_ns: Shared<u64>,
    channel_busy_ns: Box<[Shared<u64>]>,
    page_bytes: u64,
    custom: Mutex<BTreeMap<&'static str, u64>>,
}

impl IoLedger {
    /// Create a ledger for an SSD with `channels` NAND channels and
    /// `page_bytes`-sized pages.
    pub fn new(channels: u32, page_bytes: u32) -> Self {
        Self {
            host_cpu_ns: Shared::new(0),
            soc_cpu_ns: Shared::new(0),
            pcie_h2d_bytes: Shared::new(0),
            pcie_d2h_bytes: Shared::new(0),
            pcie_msgs: Shared::new(0),
            nand_read_pages: Shared::new(0),
            nand_program_pages: Shared::new(0),
            nand_erase_blocks: Shared::new(0),
            fs_calls: Shared::new(0),
            host_block_ios: Shared::new(0),
            bridge_busy_ns: Shared::new(0),
            channel_busy_ns: (0..channels).map(|_| Shared::new(0)).collect(),
            page_bytes: page_bytes as u64,
            custom: Mutex::new(BTreeMap::new()),
        }
    }

    /// Number of NAND channels this ledger tracks.
    pub fn channels(&self) -> u32 {
        self.channel_busy_ns.len() as u32
    }

    // ---- charging -------------------------------------------------------

    /// Charge `ns` of host-core CPU work.
    pub fn charge_host_cpu(&self, ns: f64) {
        self.charge_host_cpu_ns(whole_ns(ns));
    }

    /// Charge host-core CPU work already rounded by [`whole_ns`].
    pub fn charge_host_cpu_ns(&self, ns: u64) {
        self.host_cpu_ns.update(|c| *c += ns);
    }

    /// Charge `ns` of SoC-core CPU work (already scaled by `soc_slowdown`).
    pub fn charge_soc_cpu(&self, ns: f64) {
        self.charge_soc_cpu_ns(whole_ns(ns));
    }

    /// Charge SoC-core CPU work already rounded by [`whole_ns`].
    pub fn charge_soc_cpu_ns(&self, ns: u64) {
        self.soc_cpu_ns.update(|c| *c += ns);
    }

    /// Record a host-to-device DMA transfer of `bytes` within one message.
    pub fn dma_h2d(&self, bytes: u64) {
        self.pcie_h2d_bytes.update(|c| *c += bytes);
        self.pcie_msgs.update(|c| *c += 1);
    }

    /// Record a device-to-host DMA transfer of `bytes` within one message.
    pub fn dma_d2h(&self, bytes: u64) {
        self.pcie_d2h_bytes.update(|c| *c += bytes);
        self.pcie_msgs.update(|c| *c += 1);
    }

    /// Record device-to-host DMA bytes that ride an existing command's
    /// completion (no additional round trip).
    pub fn dma_d2h_payload(&self, bytes: u64) {
        self.pcie_d2h_bytes.update(|c| *c += bytes);
    }

    /// Record `pages` NAND page reads on `channel`, occupying it `busy_ns`.
    pub fn nand_read(&self, channel: u32, pages: u64, busy_ns: u64) {
        self.nand_read_pages.update(|c| *c += pages);
        self.channel_busy_ns[channel as usize].update(|c| *c += busy_ns);
    }

    /// Record `pages` NAND page programs on `channel`, occupying it `busy_ns`.
    pub fn nand_program(&self, channel: u32, pages: u64, busy_ns: u64) {
        self.nand_program_pages.update(|c| *c += pages);
        self.channel_busy_ns[channel as usize].update(|c| *c += busy_ns);
    }

    /// Record a block erase on `channel`, occupying it `busy_ns`.
    pub fn nand_erase(&self, channel: u32, busy_ns: u64) {
        self.nand_erase_blocks.update(|c| *c += 1);
        self.channel_busy_ns[channel as usize].update(|c| *c += busy_ns);
    }

    /// Record one host filesystem call (VFS-layer overhead).
    pub fn fs_call(&self) {
        self.fs_calls.update(|c| *c += 1);
    }

    /// Record one block I/O submitted through the host OS block layer.
    pub fn host_block_io(&self) {
        self.host_block_ios.update(|c| *c += 1);
    }

    /// Occupy the host-to-NAND *bridge* for `ns`. The baseline reaches
    /// the SSD as a block device through the CSD's SoC (PCIe x4
    /// back-link plus the ext4 block path) — a shared serial resource
    /// that KV-CSD's on-device store bypasses entirely.
    pub fn bridge_busy(&self, ns: u64) {
        self.bridge_busy_ns.update(|c| *c += ns);
    }

    /// Bump a named diagnostic counter (cache hits, bloom negatives, ...).
    pub fn bump(&self, name: &'static str, by: u64) {
        *self.custom.lock().entry(name).or_insert(0) += by;
    }

    /// Read a named diagnostic counter.
    pub fn custom(&self, name: &str) -> u64 {
        self.custom.lock().get(name).copied().unwrap_or(0)
    }

    // ---- snapshots ------------------------------------------------------

    /// Device-side busy time so far: SoC CPU + bridge + the busiest
    /// NAND channel, read in place. The snapshot sum it equals
    /// allocates; this runs around every routed fan-out and every timed
    /// device command. Only deltas of it are meaningful.
    pub fn device_busy_ns(&self) -> u64 {
        let busiest = self.channel_busy_ns.iter().map(Shared::get).max();
        self.soc_cpu_ns.get() + self.bridge_busy_ns.get() + busiest.unwrap_or(0)
    }

    /// Host-core CPU time charged so far, read in place.
    pub fn host_cpu_ns(&self) -> u64 {
        self.host_cpu_ns.get()
    }

    /// Capture current counter values.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            host_cpu_ns: self.host_cpu_ns.get(),
            soc_cpu_ns: self.soc_cpu_ns.get(),
            pcie_h2d_bytes: self.pcie_h2d_bytes.get(),
            pcie_d2h_bytes: self.pcie_d2h_bytes.get(),
            pcie_msgs: self.pcie_msgs.get(),
            nand_read_pages: self.nand_read_pages.get(),
            nand_program_pages: self.nand_program_pages.get(),
            nand_erase_blocks: self.nand_erase_blocks.get(),
            fs_calls: self.fs_calls.get(),
            host_block_ios: self.host_block_ios.get(),
            bridge_busy_ns: self.bridge_busy_ns.get(),
            channel_busy_ns: self.channel_busy_ns.iter().map(|c| c.get()).collect(),
            page_bytes: self.page_bytes,
        }
    }
}

/// A point-in-time copy of the ledger; subtract two to get per-phase work.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LedgerSnapshot {
    pub host_cpu_ns: u64,
    pub soc_cpu_ns: u64,
    pub pcie_h2d_bytes: u64,
    pub pcie_d2h_bytes: u64,
    pub pcie_msgs: u64,
    pub nand_read_pages: u64,
    pub nand_program_pages: u64,
    pub nand_erase_blocks: u64,
    pub fs_calls: u64,
    pub host_block_ios: u64,
    pub bridge_busy_ns: u64,
    pub channel_busy_ns: Vec<u64>,
    pub page_bytes: u64,
}

impl LedgerSnapshot {
    /// Work performed between `earlier` and `self` (all counters are
    /// monotonic, so plain saturating subtraction is exact).
    pub fn since(&self, earlier: &LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            host_cpu_ns: self.host_cpu_ns.saturating_sub(earlier.host_cpu_ns),
            soc_cpu_ns: self.soc_cpu_ns.saturating_sub(earlier.soc_cpu_ns),
            pcie_h2d_bytes: self.pcie_h2d_bytes.saturating_sub(earlier.pcie_h2d_bytes),
            pcie_d2h_bytes: self.pcie_d2h_bytes.saturating_sub(earlier.pcie_d2h_bytes),
            pcie_msgs: self.pcie_msgs.saturating_sub(earlier.pcie_msgs),
            nand_read_pages: self.nand_read_pages.saturating_sub(earlier.nand_read_pages),
            nand_program_pages: self
                .nand_program_pages
                .saturating_sub(earlier.nand_program_pages),
            nand_erase_blocks: self
                .nand_erase_blocks
                .saturating_sub(earlier.nand_erase_blocks),
            fs_calls: self.fs_calls.saturating_sub(earlier.fs_calls),
            host_block_ios: self.host_block_ios.saturating_sub(earlier.host_block_ios),
            bridge_busy_ns: self.bridge_busy_ns.saturating_sub(earlier.bridge_busy_ns),
            channel_busy_ns: self
                .channel_busy_ns
                .iter()
                .zip(earlier.channel_busy_ns.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            page_bytes: self.page_bytes,
        }
    }

    /// Total bytes read from NAND (Fig 7b / 10b "storage read" series).
    pub fn storage_read_bytes(&self) -> u64 {
        self.nand_read_pages * self.page_bytes
    }

    /// Total bytes written to NAND (Fig 7b / 10b "storage write" series).
    pub fn storage_write_bytes(&self) -> u64 {
        self.nand_program_pages * self.page_bytes
    }

    /// Busiest NAND channel occupancy in ns — the storage bottleneck term.
    pub fn max_channel_busy_ns(&self) -> u64 {
        self.channel_busy_ns.iter().copied().max().unwrap_or(0)
    }

    /// Total host<->device traffic in bytes.
    pub fn pcie_bytes(&self) -> u64 {
        self.pcie_h2d_bytes + self.pcie_d2h_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> IoLedger {
        IoLedger::new(4, 4096)
    }

    #[test]
    fn cpu_charges_accumulate() {
        let l = ledger();
        l.charge_host_cpu(100.7);
        l.charge_host_cpu(50.2);
        l.charge_soc_cpu(10.0);
        let s = l.snapshot();
        assert_eq!(s.host_cpu_ns, 150);
        assert_eq!(s.soc_cpu_ns, 10);
    }

    #[test]
    fn negative_charge_is_clamped() {
        let l = ledger();
        l.charge_host_cpu(-5.0);
        assert_eq!(l.snapshot().host_cpu_ns, 0);
    }

    #[test]
    fn dma_counts_messages_and_bytes() {
        let l = ledger();
        l.dma_h2d(128 << 10);
        l.dma_d2h(256);
        let s = l.snapshot();
        assert_eq!(s.pcie_h2d_bytes, 128 << 10);
        assert_eq!(s.pcie_d2h_bytes, 256);
        assert_eq!(s.pcie_msgs, 2);
        assert_eq!(s.pcie_bytes(), (128 << 10) + 256);
    }

    #[test]
    fn nand_ops_track_pages_and_channel_busy() {
        let l = ledger();
        l.nand_program(1, 3, 3000);
        l.nand_read(2, 1, 500);
        l.nand_erase(1, 2_000_000);
        let s = l.snapshot();
        assert_eq!(s.nand_program_pages, 3);
        assert_eq!(s.nand_read_pages, 1);
        assert_eq!(s.nand_erase_blocks, 1);
        assert_eq!(s.channel_busy_ns, vec![0, 2_003_000, 500, 0]);
        assert_eq!(s.max_channel_busy_ns(), 2_003_000);
        assert_eq!(s.storage_write_bytes(), 3 * 4096);
        assert_eq!(s.storage_read_bytes(), 4096);
    }

    #[test]
    fn busy_reads_equal_the_snapshot_sums_they_replace() {
        let l = ledger();
        let sum = |l: &IoLedger| {
            let s = l.snapshot();
            s.soc_cpu_ns + s.bridge_busy_ns + s.max_channel_busy_ns()
        };
        assert_eq!((l.device_busy_ns(), l.host_cpu_ns()), (0, 0));
        l.charge_soc_cpu(1234.9);
        l.bridge_busy(77);
        l.nand_program(1, 3, 3000);
        l.nand_read(3, 1, 5000);
        l.charge_host_cpu_ns(41);
        assert_eq!(l.device_busy_ns(), sum(&l));
        assert_eq!(l.device_busy_ns(), 1234 + 77 + 5000);
        l.nand_erase(1, 2_000_000);
        assert_eq!(l.device_busy_ns(), sum(&l));
        assert_eq!(l.host_cpu_ns(), l.snapshot().host_cpu_ns);
        assert_eq!(IoLedger::new(0, 4096).device_busy_ns(), 0, "no channels");
    }

    #[test]
    fn snapshot_diff_isolates_phase_work() {
        let l = ledger();
        l.charge_host_cpu(100.0);
        l.nand_program(0, 1, 10);
        let before = l.snapshot();
        l.charge_host_cpu(40.0);
        l.nand_program(0, 2, 20);
        l.dma_h2d(64);
        let after = l.snapshot();
        let d = after.since(&before);
        assert_eq!(d.host_cpu_ns, 40);
        assert_eq!(d.nand_program_pages, 2);
        assert_eq!(d.channel_busy_ns[0], 20);
        assert_eq!(d.pcie_h2d_bytes, 64);
    }

    #[test]
    fn custom_counters() {
        let l = ledger();
        l.bump("cache_hit", 3);
        l.bump("cache_hit", 2);
        assert_eq!(l.custom("cache_hit"), 5);
        assert_eq!(l.custom("missing"), 0);
    }

    #[test]
    fn concurrent_charging_is_lossless() {
        use std::sync::Arc;
        let l = Arc::new(ledger());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    l.charge_host_cpu(1.0);
                    l.nand_program(t % 4, 1, 7);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = l.snapshot();
        assert_eq!(s.host_cpu_ns, 4000);
        assert_eq!(s.nand_program_pages, 4000);
        assert_eq!(s.channel_busy_ns.iter().sum::<u64>(), 4000 * 7);
    }
}
