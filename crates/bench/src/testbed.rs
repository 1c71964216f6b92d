//! Testbed assembly: build a fresh simulated host + device per run.
//!
//! Each experiment run gets its own ledger, clock and SSD, exactly like
//! the paper's "we reset the device and insert keys into a newly-created
//! keyspace" / "a new DB instance on top of a newly-formatted ext4".

use std::sync::Arc;

use kvcsd_blockfs::{BlockFs, FsConfig};
use kvcsd_client::KvCsd;
use kvcsd_core::{DeviceConfig, DeviceStack, KvCsdDevice};
use kvcsd_flash::{ConvConfig, ConventionalNamespace, FlashGeometry, NandArray, ZnsConfig};
use kvcsd_proto::DeviceHandler;
use kvcsd_sim::config::SimConfig;
use kvcsd_sim::{IoLedger, PhaseRunner, TimeModel};

/// One experiment's simulated machine.
pub struct Testbed {
    pub cfg: SimConfig,
    pub ledger: Arc<IoLedger>,
    pub runner: PhaseRunner,
}

impl Testbed {
    /// Fresh testbed with the paper's hardware constants.
    pub fn new() -> Self {
        let cfg = SimConfig::default();
        let ledger = Arc::new(IoLedger::new(cfg.hw.flash_channels, cfg.hw.page_bytes));
        let runner = PhaseRunner::new(Arc::clone(&ledger), TimeModel::new(cfg.clone()));
        Self {
            cfg,
            ledger,
            runner,
        }
    }

    fn geometry(&self, capacity_bytes: u64) -> FlashGeometry {
        // Scaled-device geometry: 64 KiB erase blocks keep zones small so
        // even tiny experiments get many zones per channel. Unwritten
        // zones cost no host memory (pages are stored sparsely).
        let channels = self.cfg.hw.flash_channels;
        let pages_per_block = 16u32;
        let block_bytes = pages_per_block as u64 * self.cfg.hw.page_bytes as u64;
        let need = (capacity_bytes as f64 * 1.25) as u64;
        let blocks_per_channel =
            (need.div_ceil(block_bytes).div_ceil(channels as u64) as u32).max(64);
        FlashGeometry {
            channels,
            blocks_per_channel,
            pages_per_block,
            page_bytes: self.cfg.hw.page_bytes,
        }
    }

    /// Build a KV-CSD device able to hold `capacity_bytes` of user data
    /// across up to `keyspaces` keyspaces (with headroom for logs,
    /// indexes and sort temporaries), plus a connected client.
    pub fn kvcsd(
        &self,
        capacity_bytes: u64,
        soc_dram_bytes: u64,
        keyspaces: u32,
    ) -> (Arc<KvCsdDevice>, KvCsd) {
        self.kvcsd_with_width(
            capacity_bytes,
            soc_dram_bytes,
            keyspaces,
            self.cfg.hw.flash_channels,
        )
    }

    /// As [`Testbed::kvcsd`] but with an explicit zone-cluster stripe
    /// width (used by the channel-parallelism ablation).
    pub fn kvcsd_with_width(
        &self,
        capacity_bytes: u64,
        soc_dram_bytes: u64,
        keyspaces: u32,
        cluster_width: u32,
    ) -> (Arc<KvCsdDevice>, KvCsd) {
        // Headroom: data passes through logs, sort runs, PIDX and
        // SORTED_VALUES transiently (~6x), and every live cluster
        // pre-reserves one stripe group of `channels` zones; a keyspace
        // plus its in-flight jobs holds at most ~12 clusters.
        let zone_bytes = 16 * self.cfg.hw.page_bytes as u64; // one 64 KiB block per zone
        let reserved =
            keyspaces.max(1) as u64 * 12 * self.cfg.hw.flash_channels as u64 * zone_bytes;
        let stack = DeviceStack::with_ledger(
            self.geometry(capacity_bytes.max(1 << 20) * 6 + reserved),
            ZnsConfig {
                zone_blocks: 1,
                max_open_zones: 1 << 20,
            },
            DeviceConfig {
                cluster_width,
                soc_dram_bytes,
                seed: 0xC5D,
                ..DeviceConfig::default()
            },
            Arc::clone(&self.ledger),
        );
        let dev = Arc::clone(stack.device());
        let client = KvCsd::connect(
            Arc::clone(&dev) as Arc<dyn DeviceHandler>,
            Arc::clone(&self.ledger),
        );
        (dev, client)
    }

    /// Build the baseline's freshly-formatted filesystem over a
    /// conventional SSD sized for `capacity_bytes` of user data (with
    /// headroom for the WAL, L0 and compaction transients).
    pub fn blockfs(&self, capacity_bytes: u64) -> Arc<BlockFs> {
        let geom = self.geometry(capacity_bytes.max(1 << 20) * 6);
        let nand = Arc::new(NandArray::new(geom, &self.cfg.hw, Arc::clone(&self.ledger)));
        let conv = Arc::new(ConventionalNamespace::new(nand, ConvConfig::default()));
        // Scale the OS page cache with the dataset, as the paper's
        // data-size-to-memory-size ratio intends (a cache that swallows
        // the whole experiment would hide all read traffic).
        let cache_pages =
            (capacity_bytes / 16 / self.cfg.hw.page_bytes as u64).clamp(256, 65_536) as usize;
        Arc::new(BlockFs::format(
            conv,
            self.cfg.cost.clone(),
            FsConfig {
                page_cache_pages: cache_pages,
            },
        ))
    }
}

impl Default for Testbed {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_testbeds_are_isolated() {
        let a = Testbed::new();
        let b = Testbed::new();
        a.ledger.charge_host_cpu(100.0);
        assert_eq!(b.ledger.snapshot().host_cpu_ns, 0);
    }

    #[test]
    fn kvcsd_testbed_runs_a_put() {
        let t = Testbed::new();
        let (_dev, client) = t.kvcsd(1 << 20, 8 << 20, 1);
        let ks = client.create_keyspace("x").unwrap();
        ks.put(b"k", b"v").unwrap();
        assert!(t.ledger.snapshot().pcie_msgs > 0);
    }

    #[test]
    fn blockfs_testbed_stores_files() {
        let t = Testbed::new();
        let fs = t.blockfs(1 << 20);
        let f = fs.create("x").unwrap();
        fs.append(f, b"hello").unwrap();
        assert_eq!(fs.read_at(f, 0, 5).unwrap(), b"hello");
    }
}
