//! A miniature simulation-then-analytics pipeline, the workflow the paper
//! targets: a VPIC-style particle dump is bulk-loaded into KV-CSD, the
//! device compacts and builds a kinetic-energy secondary index in the
//! background, and a scientist then runs highly selective energy queries
//! that stream back only the interesting particles.
//!
//! ```sh
//! cargo run --release --example vpic_analytics
//! ```

use std::sync::Arc;

use kvcsd::device::{DeviceConfig, KvCsdDevice};
use kvcsd::flash::{FlashGeometry, NandArray, ZnsConfig, ZonedNamespace};
use kvcsd::proto::{Bound, DeviceHandler, SecondaryIndexSpec, SecondaryKeyType, SidxKey};
use kvcsd::sim::config::SimConfig;
use kvcsd::sim::stats::human_bytes;
use kvcsd::sim::IoLedger;
use kvcsd::workloads::vpic::{VpicDump, ENERGY_OFFSET};
use kvcsd_client::KvCsd;

fn main() {
    let particles: u64 = 200_000;
    let files = 16u32;
    let dump = VpicDump::new(particles, files, 42);

    // Device sized for the dump.
    let cfg = SimConfig::default();
    let geom = FlashGeometry {
        channels: cfg.hw.flash_channels,
        blocks_per_channel: 2048,
        pages_per_block: 16,
        page_bytes: cfg.hw.page_bytes,
    };
    let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
    let nand = Arc::new(NandArray::new(geom, &cfg.hw, Arc::clone(&ledger)));
    let zns = Arc::new(ZonedNamespace::new(nand, ZnsConfig::default()));
    let device = Arc::new(KvCsdDevice::new(
        zns,
        cfg.cost.clone(),
        DeviceConfig::default(),
    ));
    let client = KvCsd::connect(
        Arc::clone(&device) as Arc<dyn DeviceHandler>,
        Arc::clone(&ledger),
    );

    // --- Simulation output phase -------------------------------------------
    // One keyspace per dump file, as the paper's loader does.
    println!("loading {particles} particles from {files} shards...");
    let mut keyspaces = Vec::new();
    for f in 0..files {
        let ks = client
            .create_keyspace(&format!("timestep-0042/file-{f:02}"))
            .unwrap();
        let acc = ks.write_accelerator();
        for p in dump.shard(f) {
            acc.put(&p.id, &p.payload()).unwrap();
        }
        acc.flush().unwrap();
        ks.compact().unwrap(); // deferred: returns immediately
        keyspaces.push(ks);
    }
    println!("simulation exits; device compacts asynchronously...");
    device.run_pending_jobs();

    // --- Index construction ---------------------------------------------------
    for ks in &keyspaces {
        ks.build_secondary_index(SecondaryIndexSpec {
            name: "energy".into(),
            value_offset: ENERGY_OFFSET,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        })
        .unwrap();
    }
    device.run_pending_jobs();
    println!("energy index built.\n");

    // --- Analytics phase --------------------------------------------------------
    for selectivity in [0.001, 0.01, 0.10] {
        let threshold = dump.energy_threshold(selectivity);
        let before = ledger.snapshot();
        let mut hits = 0usize;
        let mut hottest: Option<(f32, Vec<u8>)> = None;
        for ks in &keyspaces {
            let records = ks
                .sidx_range(
                    "energy",
                    Bound::Excluded(SidxKey::F32(threshold).encode()),
                    Bound::Unbounded,
                    None,
                )
                .unwrap();
            for (id, payload) in &records {
                let e = f32::from_le_bytes(
                    payload[ENERGY_OFFSET..ENERGY_OFFSET + 4]
                        .try_into()
                        .unwrap(),
                );
                if hottest.as_ref().is_none_or(|(he, _)| e > *he) {
                    hottest = Some((e, id.clone()));
                }
            }
            hits += records.len();
        }
        let d = ledger.snapshot().since(&before);
        println!(
            "energy > {threshold:.3} (~{:.1}% selectivity): {hits} particles; device read {}, shipped only {} to host",
            selectivity * 100.0,
            human_bytes(d.storage_read_bytes()),
            human_bytes(d.pcie_d2h_bytes),
        );
        if let Some((e, id)) = hottest {
            println!("  hottest particle: energy {e:.3}, id {:02x?}...", &id[..4]);
        }
    }
}
