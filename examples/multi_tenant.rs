//! Multiple applications sharing one KV-CSD through separate keyspaces.
//!
//! Demonstrates the keyspace manager's isolation guarantees: identical
//! keys in different keyspaces never conflict, each keyspace compacts
//! independently, and deleting one reclaims its zones without disturbing
//! the others (no device-wide garbage collection — the ZNS advantage).
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use std::sync::Arc;

use kvcsd::device::{DeviceConfig, DeviceStack};
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::DeviceHandler;
use kvcsd::sim::config::SimConfig;
use kvcsd_client::KvCsd;

fn main() {
    let cfg = SimConfig::default();
    let geom = FlashGeometry {
        channels: cfg.hw.flash_channels,
        blocks_per_channel: 512,
        pages_per_block: 16,
        page_bytes: cfg.hw.page_bytes,
    };
    let stack = DeviceStack::new(geom, ZnsConfig::default(), DeviceConfig::default());
    let (device, ledger) = (stack.device(), stack.ledger());
    let client = KvCsd::connect(
        Arc::clone(device) as Arc<dyn DeviceHandler>,
        Arc::clone(ledger),
    );

    let free_at_start = device.zone_manager().free_zones();
    println!("device has {free_at_start} free zones\n");

    // Three tenants, deliberately using the SAME keys.
    let tenants = ["telemetry", "checkpoints", "scratch"];
    let mut sessions = Vec::new();
    for name in tenants {
        let ks = client.create_keyspace(name).unwrap();
        let acc = ks.write_accelerator();
        for i in 0..5_000u32 {
            // Identical key names across tenants: "keys within a keyspace
            // must be unique while across keyspaces keys can be reused".
            acc.put(
                format!("record/{i:05}").as_bytes(),
                format!("{name}-{i}").as_bytes(),
            )
            .unwrap();
        }
        acc.flush().unwrap();
        ks.compact().unwrap();
        sessions.push(ks);
    }
    device.run_pending_jobs();

    // Each tenant sees only its own data.
    for (ks, name) in sessions.iter().zip(tenants) {
        let v = ks.get(b"record/00007").unwrap();
        println!("{name:12} record/00007 -> {}", String::from_utf8_lossy(&v));
        assert!(v.starts_with(name.as_bytes()));
    }

    println!("\nkeyspaces on device:");
    for desc in client.list_keyspaces().unwrap() {
        println!("  #{:<3} {:12} {:?}", desc.id, desc.name, desc.state);
    }

    // Drop the scratch tenant; its zones return to the pool immediately.
    let before = device.zone_manager().free_zones();
    sessions.pop().unwrap().delete().unwrap();
    let after = device.zone_manager().free_zones();
    println!(
        "\ndeleted 'scratch': {} zones reclaimed by zone resets (no GC), {} keyspaces remain",
        after - before,
        client.list_keyspaces().unwrap().len()
    );

    // Survivors are untouched.
    for (ks, name) in sessions.iter().zip(tenants) {
        assert!(ks
            .get(b"record/04999")
            .unwrap()
            .starts_with(name.as_bytes()));
    }
    println!("remaining tenants verified intact.");
}
