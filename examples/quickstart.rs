//! Quickstart: bring up a simulated KV-CSD, insert data, run offloaded
//! compaction, and query it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use kvcsd::device::{DeviceConfig, DeviceStack};
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::{Bound, DeviceHandler};
use kvcsd::sim::config::SimConfig;
use kvcsd_client::KvCsd;

fn main() {
    // 1. Assemble the device: NAND array -> zoned namespace -> KV-CSD.
    let cfg = SimConfig::default();
    let geom = FlashGeometry {
        channels: cfg.hw.flash_channels,
        blocks_per_channel: 256,
        pages_per_block: 16,
        page_bytes: cfg.hw.page_bytes,
    };
    let stack = DeviceStack::new(geom, ZnsConfig::default(), DeviceConfig::default());
    let (device, ledger) = (stack.device(), stack.ledger());

    // 2. Connect the lightweight client library.
    let client = KvCsd::connect(
        Arc::clone(device) as Arc<dyn DeviceHandler>,
        Arc::clone(ledger),
    );

    // 3. Create a keyspace and bulk-insert some pairs.
    let ks = client
        .create_keyspace("quickstart")
        .expect("create keyspace");
    let acc = ks.write_accelerator();
    for i in 0..10_000u32 {
        let key = format!("sensor/{i:06}");
        let value = format!("reading={}", i * 7);
        acc.put(key.as_bytes(), value.as_bytes()).expect("put");
    }
    let inserted = acc.flush().expect("finish");
    println!("inserted {inserted} pairs");

    // 4. Invoke deferred compaction. The command returns immediately; the
    //    device sorts and indexes in the background.
    let job = ks.compact().expect("compact");
    println!(
        "compaction job {:?} started (state: {:?})",
        job.id(),
        job.poll().unwrap()
    );
    device.run_pending_jobs(); // the device working asynchronously
    println!("compaction finished (state: {:?})", job.poll().unwrap());

    // 5. Point and range queries, processed entirely on the device.
    let v = ks.get(b"sensor/000042").expect("get");
    println!("sensor/000042 -> {}", String::from_utf8_lossy(&v));

    let entries = ks
        .range(
            Bound::Included(b"sensor/000100".to_vec()),
            Bound::Excluded(b"sensor/000105".to_vec()),
            None,
        )
        .expect("range");
    println!(
        "range sensor/000100..000105 returned {} records:",
        entries.len()
    );
    for (k, v) in &entries {
        println!(
            "  {} -> {}",
            String::from_utf8_lossy(k),
            String::from_utf8_lossy(v)
        );
    }

    // 6. Show what crossed the PCIe bus vs. what the device did in place.
    let s = ledger.snapshot();
    println!(
        "\nledger: {} host->device, {} device->host, {} read from NAND, {} written to NAND",
        s.pcie_h2d_bytes,
        s.pcie_d2h_bytes,
        s.storage_read_bytes(),
        s.storage_write_bytes()
    );

    let stat = ks.stat().expect("stat");
    println!("keyspace state: {:?}, {} pairs", stat.state, stat.num_pairs);
}
