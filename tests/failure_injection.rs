//! Failure-injection and misuse tests: the system must fail cleanly and
//! loudly, never corrupt state, and keep working after errors.

use std::sync::Arc;

use kvcsd::device::{DeviceConfig, DeviceStack, KvCsdDevice};
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::{Bound, DeviceHandler, KvStatus, SecondaryIndexSpec, SecondaryKeyType};
use kvcsd::sim::config::SimConfig;
use kvcsd_client::{ClientError, KvCsd};

fn tiny_device(blocks_per_channel: u32) -> (Arc<KvCsdDevice>, KvCsd) {
    let cfg = SimConfig::default();
    let geom = FlashGeometry {
        channels: cfg.hw.flash_channels,
        blocks_per_channel,
        pages_per_block: 16,
        page_bytes: cfg.hw.page_bytes,
    };
    let stack = DeviceStack::new(
        geom,
        ZnsConfig {
            zone_blocks: 1,
            max_open_zones: 1 << 16,
        },
        DeviceConfig {
            cluster_width: 4,
            soc_dram_bytes: 16 << 20,
            seed: 11,
            ..DeviceConfig::default()
        },
    );
    let dev = Arc::clone(stack.device());
    let client = KvCsd::connect(
        Arc::clone(&dev) as Arc<dyn DeviceHandler>,
        Arc::clone(stack.ledger()),
    );
    (dev, client)
}

#[test]
fn state_machine_rejects_out_of_order_operations() {
    let (dev, client) = tiny_device(512);
    let ks = client.create_keyspace("strict").unwrap();

    // Query before any write: EMPTY is not queryable.
    assert!(matches!(
        ks.get(b"x"),
        Err(ClientError::Device(KvStatus::BadKeyspaceState { .. }))
    ));

    ks.put(b"a", b"1").unwrap();
    // Query while WRITABLE: rejected.
    assert!(matches!(
        ks.range(Bound::Unbounded, Bound::Unbounded, None),
        Err(ClientError::Device(KvStatus::BadKeyspaceState { .. }))
    ));
    // Secondary index before compaction: rejected synchronously.
    let spec = SecondaryIndexSpec {
        name: "s".into(),
        value_offset: 0,
        value_len: 4,
        key_type: SecondaryKeyType::U32,
    };
    assert!(matches!(
        ks.build_secondary_index(spec),
        Err(ClientError::Device(KvStatus::BadKeyspaceState { .. }))
    ));

    ks.compact().unwrap();
    // Writes during COMPACTING: rejected.
    assert!(matches!(
        ks.put(b"b", b"2"),
        Err(ClientError::Device(KvStatus::BadKeyspaceState { .. }))
    ));
    // Double compaction: rejected.
    assert!(matches!(
        ks.compact(),
        Err(ClientError::Device(KvStatus::BadKeyspaceState { .. }))
    ));

    dev.run_pending_jobs();
    // After COMPACTED, the data is all there despite the misuse attempts.
    assert_eq!(ks.get(b"a").unwrap(), b"1");
    assert!(ks.get(b"b").unwrap_err().is_not_found());
}

#[test]
fn device_full_fails_cleanly_and_delete_recovers_space() {
    // 16 channels x 8 blocks x 1-block zones = 128 zones, a handful of
    // clusters' worth.
    let (dev, client) = tiny_device(8);
    let ks = client.create_keyspace("hog").unwrap();
    let mut i = 0u64;
    let err = loop {
        match ks.put(format!("k{i:012}").as_bytes(), &[7u8; 4096]) {
            Ok(()) => i += 1,
            Err(e) => break e,
        }
        assert!(i < 100_000, "device must eventually fill");
    };
    assert!(matches!(err, ClientError::Device(KvStatus::DeviceFull)));

    // The keyspace is still deletable, and afterwards the device works.
    ks.delete().unwrap();
    let ks2 = client.create_keyspace("after").unwrap();
    ks2.put(b"k", b"v").unwrap();
    ks2.compact().unwrap();
    dev.run_pending_jobs();
    assert_eq!(ks2.get(b"k").unwrap(), b"v");
}

#[test]
fn unknown_names_and_ids_error() {
    let (_dev, client) = tiny_device(256);
    assert!(matches!(
        client.open_keyspace("ghost"),
        Err(ClientError::Device(KvStatus::KeyspaceNotFound))
    ));
    let ks = client.create_keyspace("real").unwrap();
    ks.clone().delete().unwrap();
    // The stale session handle now errors cleanly.
    assert!(matches!(
        ks.put(b"k", b"v"),
        Err(ClientError::Device(KvStatus::KeyspaceNotFound))
    ));
}

#[test]
fn bad_payloads_are_rejected() {
    let (_dev, client) = tiny_device(256);
    let ks = client.create_keyspace("b").unwrap();
    // Empty keys are invalid.
    assert!(ks.put(b"", b"v").is_err());
    // And the keyspace still works afterwards.
    ks.put(b"ok", b"v").unwrap();
}

/// A key too long for a bulk entry's `u16` length must not be packed
/// into a bulk: it ships alone, the device refuses it, `flush` reports
/// that, and every other pair of its batch lands exactly as staged.
#[test]
fn oversized_key_fails_its_flush_and_alters_no_other_pair() {
    let (dev, client) = tiny_device(512);
    let ks = client.create_keyspace("long-key").unwrap();
    let acc = ks.write_accelerator();
    // Keys on both sides of the long one, so a mis-packed entry would
    // shift the pairs after it.
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..40u32)
        .map(|i| {
            let side = if i % 2 == 0 { 'a' } else { 'z' };
            (format!("{side}{i:03}").into_bytes(), vec![i as u8; 16])
        })
        .collect();
    for (k, v) in &pairs[..20] {
        acc.put(k, v).unwrap();
    }
    acc.put(&vec![b'k'; u16::MAX as usize + 5], b"value")
        .unwrap();
    for (k, v) in &pairs[20..] {
        acc.put(k, v).unwrap();
    }
    assert!(matches!(
        acc.flush(),
        Err(ClientError::Device(KvStatus::BadValue))
    ));
    assert_eq!(acc.flush().unwrap(), 40, "every other pair is acked");

    ks.compact().unwrap();
    dev.run_pending_jobs();
    assert_eq!(ks.stat().unwrap().num_pairs, 40);
    for (k, v) in &pairs {
        assert_eq!(&ks.get(k).unwrap(), v);
    }
}

#[test]
fn failed_sidx_spec_reports_and_preserves_keyspace() {
    let (dev, client) = tiny_device(512);
    let ks = client.create_keyspace("specs").unwrap();
    ks.put(b"key", &[1u8; 8]).unwrap();
    ks.compact().unwrap();
    dev.run_pending_jobs();

    // Width mismatch caught synchronously.
    assert!(matches!(
        ks.build_secondary_index(SecondaryIndexSpec {
            name: "bad".into(),
            value_offset: 0,
            value_len: 3,
            key_type: SecondaryKeyType::F32,
        }),
        Err(ClientError::Device(KvStatus::BadIndexSpec))
    ));

    // A spec beyond the value bounds builds an empty index (values are
    // skipped, not fatal) and queries on it return nothing.
    ks.build_secondary_index(SecondaryIndexSpec {
        name: "short".into(),
        value_offset: 100,
        value_len: 4,
        key_type: SecondaryKeyType::U32,
    })
    .unwrap();
    dev.run_pending_jobs();
    let got = ks
        .sidx_range("short", Bound::Unbounded, Bound::Unbounded, None)
        .unwrap();
    assert!(got.is_empty());
    // Primary data untouched.
    assert_eq!(ks.get(b"key").unwrap(), vec![1u8; 8]);
}

#[test]
fn duplicate_keyspace_names_rejected_without_leaking() {
    let (dev, client) = tiny_device(256);
    let zones0 = dev.zone_manager().free_zones();
    client.create_keyspace("dup").unwrap();
    for _ in 0..5 {
        assert!(matches!(
            client.create_keyspace("dup"),
            Err(ClientError::Device(KvStatus::KeyspaceExists))
        ));
    }
    // Failed creations must not consume zones.
    assert_eq!(dev.zone_manager().free_zones(), zones0);
    assert_eq!(client.list_keyspaces().unwrap().len(), 1);
}
