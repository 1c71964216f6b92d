//! Generated inputs, device and cluster construction, and answer checks.

use std::sync::Arc;

use kvcsd_client::{ClientError, KvCsd};
use kvcsd_cluster::{ClusterConfig, ClusterRouter, ShardStrategy};
use kvcsd_core::{DeviceConfig, KvCsdDevice};
use kvcsd_flash::{FlashGeometry, NandArray, ZnsConfig, ZonedNamespace};
use kvcsd_proto::{DeviceHandler, SecondaryIndexSpec, SecondaryKeyType, SidxKey};
use kvcsd_sim::config::SimConfig;
use kvcsd_sim::{IoLedger, LedgerSnapshot, PhaseTime, TimeModel, XorShift64};
use kvcsd_workloads::vpic::{VpicDump, ENERGY_OFFSET};
use kvcsd_workloads::{PARTICLE_ID_BYTES, PAYLOAD_BYTES};

use crate::trace::{span, Hooks, Probe, Tracer};

pub const ENERGY_INDEX: &str = "energy";

pub fn energy_spec() -> SecondaryIndexSpec {
    SecondaryIndexSpec {
        name: ENERGY_INDEX.into(),
        value_offset: ENERGY_OFFSET,
        value_len: 4,
        key_type: SecondaryKeyType::F32,
    }
}

/// One VPIC particle as stored: ID key, payload value.
pub struct Record {
    pub key: [u8; PARTICLE_ID_BYTES],
    pub value: [u8; PAYLOAD_BYTES],
}

/// Order-preserving encoding of a record's energy, as the device sorts it.
fn energy_code(value: &[u8]) -> u32 {
    let raw: [u8; 4] = value[ENERGY_OFFSET..ENERGY_OFFSET + 4]
        .try_into()
        .expect("payload holds the energy");
    let enc = SidxKey::F32(f32::from_le_bytes(raw)).encode();
    u32::from_be_bytes(enc.try_into().expect("f32 keys encode to 4 bytes"))
}

/// One keyspace's records with the sorted views the checks need.
pub struct KsData {
    /// Dump order: the order the ingest sends them.
    pub records: Vec<Record>,
    by_key: Vec<u32>,
    by_energy: Vec<(u32, u32)>,
}

impl KsData {
    fn new(records: Vec<Record>) -> Self {
        let mut by_key: Vec<u32> = (0..records.len() as u32).collect();
        by_key.sort_by(|a, b| records[*a as usize].key.cmp(&records[*b as usize].key));
        let mut by_energy: Vec<(u32, u32)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (energy_code(&r.value), i as u32))
            .collect();
        by_energy.sort_unstable();
        Self {
            records,
            by_key,
            by_energy,
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn user_bytes(&self) -> u64 {
        (self.len() * (PARTICLE_ID_BYTES + PAYLOAD_BYTES)) as u64
    }

    pub fn lookup(&self, key: &[u8]) -> Option<&Record> {
        self.by_key
            .binary_search_by(|ix| self.records[*ix as usize].key.as_slice().cmp(key))
            .ok()
            .map(|i| &self.records[self.by_key[i] as usize])
    }

    /// The record of key rank `rank`.
    pub fn at_rank(&self, rank: usize) -> &Record {
        &self.records[self.by_key[rank] as usize]
    }

    /// A key that is not in the keyspace.
    pub fn absent_key(&self, rng: &mut XorShift64) -> Vec<u8> {
        loop {
            let mut key = rng.next_u64().to_be_bytes().to_vec();
            key.extend_from_slice(&rng.next_u64().to_be_bytes());
            if self.lookup(&key).is_none() {
                return key;
            }
        }
    }

    /// Encoded energy bounds `[lo, hi)` spanning `count` records from
    /// energy rank `rank`, with the records inside them sorted by key.
    pub fn energy_window(&self, rank: usize, count: usize) -> (u32, u32, Vec<&Record>) {
        let lo = self.by_energy[rank].0;
        let hi = self.by_energy[(rank + count).min(self.len() - 1)].0;
        let a = self.by_energy.partition_point(|e| e.0 < lo);
        let b = self.by_energy.partition_point(|e| e.0 < hi);
        let mut hits: Vec<&Record> = self.by_energy[a..b]
            .iter()
            .map(|e| &self.records[e.1 as usize])
            .collect();
        hits.sort_by_key(|x| x.key);
        (lo, hi, hits)
    }
}

/// The checkpoint dump: one [`KsData`] per keyspace.
pub struct Dataset {
    pub keyspaces: Vec<KsData>,
}

impl Dataset {
    pub fn generate(seed: u64, keyspaces: u32, pairs_per_ks: u64) -> Self {
        let dump = VpicDump::new(pairs_per_ks * keyspaces as u64, keyspaces, seed);
        let keyspaces = (0..keyspaces)
            .map(|f| {
                KsData::new(
                    dump.shard(f)
                        .map(|p| Record {
                            key: p.id,
                            value: p.payload().try_into().expect("32-byte payload"),
                        })
                        .collect(),
                )
            })
            .collect();
        Self { keyspaces }
    }

    pub fn pairs(&self) -> u64 {
        self.keyspaces.iter().map(|k| k.len() as u64).sum()
    }

    pub fn user_bytes(&self) -> u64 {
        self.keyspaces.iter().map(KsData::user_bytes).sum()
    }
}

/// Whether `got` is the right answer to a GET of `key`.
pub fn get_ok(data: &KsData, key: &[u8], got: &Result<Vec<u8>, ClientError>) -> bool {
    match (data.lookup(key), got) {
        (Some(r), Ok(v)) => v.as_slice() == r.value.as_slice(),
        (None, Err(e)) => e.is_not_found(),
        _ => false,
    }
}

/// Whether `got` holds exactly `want`, in `want`'s order.
pub fn entries_ok(want: &[&Record], got: &[(Vec<u8>, Vec<u8>)]) -> bool {
    want.len() == got.len()
        && want.iter().zip(got).all(|(w, (k, v))| {
            w.key.as_slice() == k.as_slice() && w.value.as_slice() == v.as_slice()
        })
}

const CHANNELS: u32 = 16;
const PAGE_BYTES: u32 = 4096;
const PAGES_PER_BLOCK: u32 = 16;

/// The system under test behind one client.
pub enum Backend {
    Device(Arc<KvCsdDevice>),
    Cluster(Arc<ClusterRouter>),
}

/// A client connected through a [`Probe`] to a device or a cluster.
pub struct Rig {
    pub backend: Backend,
    pub client: KvCsd,
    pub client_ledger: Arc<IoLedger>,
    pub probe: Arc<Probe>,
    pub tracer: Option<Arc<Tracer>>,
    pub model: TimeModel,
}

/// Blocks per channel for a device that must hold `bytes` of zone data.
fn blocks_per_channel(bytes: u64, channels: u32) -> u32 {
    let block_bytes = (PAGES_PER_BLOCK * PAGE_BYTES) as u64;
    let need = (bytes as f64 * 1.25) as u64;
    (need.div_ceil(block_bytes).div_ceil(channels as u64) as u32).max(64)
}

impl Rig {
    /// A single device sized for `user_bytes` of data in `keyspaces`
    /// keyspaces, with the headroom of the figure testbed: data passes
    /// through logs, sort runs and indexes (~6x), and each live keyspace
    /// can hold about 12 stripe groups.
    pub fn device(
        user_bytes: u64,
        soc_dram: u64,
        keyspaces: u32,
        seed: u64,
        tracer: Option<Arc<Tracer>>,
        out: &mut crate::report::Outcome,
    ) -> Rig {
        let mut cfg = SimConfig::default();
        cfg.hw.soc_dram_bytes = soc_dram;
        let ledger = Arc::new(IoLedger::new(CHANNELS, PAGE_BYTES));
        let zone_bytes = (PAGES_PER_BLOCK * PAGE_BYTES) as u64;
        let reserved = keyspaces as u64 * 12 * CHANNELS as u64 * zone_bytes;
        let geometry = FlashGeometry {
            channels: CHANNELS,
            blocks_per_channel: blocks_per_channel(
                user_bytes.max(1 << 20) * 6 + reserved,
                CHANNELS,
            ),
            pages_per_block: PAGES_PER_BLOCK,
            page_bytes: PAGE_BYTES,
        };
        let nand = Arc::new(NandArray::new(geometry, &cfg.hw, Arc::clone(&ledger)));
        let zns = Arc::new(ZonedNamespace::new(
            nand,
            ZnsConfig {
                zone_blocks: 1,
                max_open_zones: 1 << 20,
            },
        ));
        let dev_cfg = DeviceConfig {
            cluster_width: CHANNELS,
            soc_dram_bytes: soc_dram,
            seed,
            ..DeviceConfig::default()
        };
        out.note(
            "device",
            format!(
                "{{\"shards\": 1, {}, \"zone_blocks\": 1, \"cluster_width\": {}, \"soc_dram_bytes\": {soc_dram}, \"device_seed\": {seed}, \"wal\": {}}}",
                geometry_json(&geometry),
                dev_cfg.cluster_width,
                dev_cfg.wal
            ),
        );
        note_sim_config(out, &cfg);
        let dev = Arc::new(KvCsdDevice::new(zns, cfg.cost.clone(), dev_cfg));
        let hooks = {
            let (pages, dram) = (Arc::clone(&ledger), Arc::clone(&dev));
            Hooks {
                read_pages: Box::new(move || pages.snapshot().nand_read_pages),
                dram_frac: Box::new(move || dram.dram().usage_fraction()),
            }
        };
        let probe = Arc::new(Probe::new(
            Arc::clone(&dev) as Arc<dyn DeviceHandler>,
            "core",
            tracer.clone(),
            hooks,
        ));
        let client = KvCsd::connect(
            Arc::clone(&probe) as Arc<dyn DeviceHandler>,
            Arc::clone(&ledger),
        );
        Rig {
            backend: Backend::Device(dev),
            client,
            client_ledger: ledger,
            probe,
            tracer,
            model: TimeModel::new(cfg),
        }
    }

    /// A hash-sharded, replicated cluster of `shards` devices on a clean
    /// link, sized like [`Rig::device`] per shard.
    pub fn cluster(
        shards: u32,
        user_bytes: u64,
        soc_dram: u64,
        keyspaces: u32,
        seed: u64,
        tracer: Option<Arc<Tracer>>,
        out: &mut crate::report::Outcome,
    ) -> Rig {
        let channels = 8;
        let zone_blocks = ZnsConfig::default().zone_blocks;
        let zone_bytes = (zone_blocks * PAGES_PER_BLOCK * PAGE_BYTES) as u64;
        let per_shard = user_bytes.div_ceil(shards as u64).max(1 << 20);
        let reserved = keyspaces as u64 * 12 * channels as u64 * zone_bytes;
        let geometry = FlashGeometry {
            channels,
            blocks_per_channel: blocks_per_channel(per_shard * 6 + reserved, channels)
                .next_multiple_of(zone_blocks),
            pages_per_block: PAGES_PER_BLOCK,
            page_bytes: PAGE_BYTES,
        };
        let cfg = ClusterConfig {
            shards,
            strategy: ShardStrategy::HashKeys,
            replicate: true,
            geometry,
            device: DeviceConfig {
                cluster_width: channels,
                soc_dram_bytes: soc_dram,
                seed,
                ..DeviceConfig::default()
            },
            ..ClusterConfig::default()
        };
        out.note(
            "device",
            format!(
                "{{\"shards\": {shards}, {}, \"zone_blocks\": {zone_blocks}, \"cluster_width\": {channels}, \"soc_dram_bytes\": {soc_dram}, \"device_seed\": {seed}, \"replicate\": true, \"strategy\": \"hash\", \"bus_bytes_per_sec\": {}, \"bus_msg_overhead_ns\": {}}}",
                geometry_json(&geometry),
                cfg.bus.bytes_per_sec,
                cfg.bus.msg_overhead_ns
            ),
        );
        let mut sim = SimConfig::default();
        sim.hw.soc_dram_bytes = soc_dram;
        sim.hw.flash_channels = channels;
        note_sim_config(out, &sim);
        let router = Arc::new(ClusterRouter::new(cfg));
        let hooks = {
            let (pages, dram) = (Arc::clone(&router), Arc::clone(&router));
            Hooks {
                read_pages: Box::new(move || {
                    (0..shards)
                        .map(|ix| pages.shard_ledger(ix).snapshot().nand_read_pages)
                        .sum()
                }),
                dram_frac: Box::new(move || {
                    (0..shards)
                        .map(|ix| dram.with_shard_device(ix, |d| d.dram().usage_fraction()))
                        .fold(0.0, f64::max)
                }),
            }
        };
        let probe = Arc::new(Probe::new(
            Arc::clone(&router) as Arc<dyn DeviceHandler>,
            "cluster",
            tracer.clone(),
            hooks,
        ));
        let client_ledger = Arc::new(IoLedger::new(CHANNELS, PAGE_BYTES));
        let client = KvCsd::connect(
            Arc::clone(&probe) as Arc<dyn DeviceHandler>,
            Arc::clone(&client_ledger),
        );
        Rig {
            backend: Backend::Cluster(router),
            client,
            client_ledger,
            probe,
            tracer,
            model: TimeModel::new(sim),
        }
    }

    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// Drive the device background until no job is left: `run_pending_jobs`
    /// on a device, `run_background` until idle on a cluster.
    pub fn run_jobs(&self, name: &'static str) {
        let t = self.tracer();
        match &self.backend {
            Backend::Device(dev) => {
                span(t, "core", name, || dev.run_pending_jobs());
            }
            Backend::Cluster(r) => span(t, "cluster", name, || while r.run_background() > 0 {}),
        }
    }

    /// Device-side ledgers: one per device.
    pub fn ledgers(&self) -> Vec<Arc<IoLedger>> {
        match &self.backend {
            Backend::Device(_) => vec![Arc::clone(&self.client_ledger)],
            Backend::Cluster(r) => (0..r.config().shards)
                .map(|ix| r.shard_ledger(ix))
                .collect(),
        }
    }

    pub fn snap(&self) -> Vec<LedgerSnapshot> {
        self.ledgers().iter().map(|l| l.snapshot()).collect()
    }

    /// Zone bytes holding data (below the write pointers) and zones in use.
    pub fn zone_usage(&self) -> (u64, u64) {
        let one = |d: &KvCsdDevice| {
            let zns = d.zone_manager().zns();
            let page = zns.nand().geometry().page_bytes as u64;
            (0..zns.zone_count())
                .filter_map(|z| zns.zone_info(z).ok())
                .filter(|z| z.write_pointer_pages > 0)
                .fold((0, 0), |(b, n), z| {
                    (b + z.write_pointer_pages as u64 * page, n + 1)
                })
        };
        match &self.backend {
            Backend::Device(dev) => one(dev),
            Backend::Cluster(r) => (0..r.config().shards)
                .map(|ix| r.with_shard_device(ix, one))
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1)),
        }
    }

    /// Modeled time of one phase: each device's ledger delta through the
    /// [`TimeModel`], the slowest device setting the phase time.
    pub fn model_phase(&self, work: &[LedgerSnapshot], background: bool) -> PhaseTime {
        work.iter()
            .map(|w| {
                if background {
                    self.model.device_phase_time(w)
                } else {
                    self.model.phase_time(w, 1)
                }
            })
            .fold(PhaseTime::default(), |a, b| {
                if b.elapsed_s > a.elapsed_s {
                    b
                } else {
                    a
                }
            })
    }
}

pub fn deltas(after: &[LedgerSnapshot], before: &[LedgerSnapshot]) -> Vec<LedgerSnapshot> {
    after.iter().zip(before).map(|(a, b)| a.since(b)).collect()
}

fn geometry_json(g: &FlashGeometry) -> String {
    format!(
        "\"channels\": {}, \"blocks_per_channel\": {}, \"pages_per_block\": {}, \"page_bytes\": {}",
        g.channels, g.blocks_per_channel, g.pages_per_block, g.page_bytes
    )
}

/// Record the hardware and cost constants every modeled number depends on.
fn note_sim_config(out: &mut crate::report::Outcome, cfg: &SimConfig) {
    let hw = &cfg.hw;
    out.note(
        "hardware",
        format!(
            "{{\"host_cores\": {}, \"soc_cores\": {}, \"soc_dram_bytes\": {}, \"pcie_bw_bps\": {}, \"pcie_cmd_ns\": {}, \"flash_channels\": {}, \"channel_write_bps\": {}, \"channel_read_bps\": {}, \"page_op_ns\": {}, \"erase_ns\": {}, \"page_bytes\": {}}}",
            hw.host_cores,
            hw.soc_cores,
            hw.soc_dram_bytes,
            hw.pcie_bw_bps,
            hw.pcie_cmd_ns,
            hw.flash_channels,
            hw.channel_write_bps,
            hw.channel_read_bps,
            hw.page_op_ns,
            hw.erase_ns,
            hw.page_bytes
        ),
    );
    let c = &cfg.cost;
    out.note(
        "cost_model",
        format!(
            "{{\"memcpy_ns_per_byte\": {}, \"key_cmp_ns\": {}, \"memtable_insert_ns\": {}, \"codec_ns_per_byte\": {}, \"bloom_op_ns\": {}, \"fs_call_ns\": {}, \"host_blockio_ns\": {}, \"kv_op_ns\": {}, \"soc_slowdown\": {}}}",
            c.memcpy_ns_per_byte,
            c.key_cmp_ns,
            c.memtable_insert_ns,
            c.codec_ns_per_byte,
            c.bloom_op_ns,
            c.fs_call_ns,
            c.host_blockio_ns,
            c.kv_op_ns,
            c.soc_slowdown
        ),
    );
}
