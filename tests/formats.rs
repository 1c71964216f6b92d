//! Golden bytes of the device's persistent and shipped formats.
//!
//! The codec tests elsewhere round-trip: they encode and decode with the
//! same code, so a layout change made to both sides at once passes them.
//! These pin the bytes themselves, for one small COMPACTED keyspace with
//! one secondary index built on a two-channel device:
//! - its first PIDX block and its first SIDX block, as read from flash;
//! - the device snapshot that records it;
//! - the replication payload size of its exported artifacts.
//!
//! The keyspace is reached through the device's public surface only, so
//! a refactor of the index code cannot change what the tests look at.
//! A deliberate format change must update the constants here, and
//! should bump the snapshot `VERSION`.

use std::sync::Arc;

use kvcsd::device::snapshot;
use kvcsd::device::{ClusterId, DeviceConfig, DeviceStack, KvCsdDevice};
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::{DeviceHandler, KvCommand, KvResponse, SecondaryIndexSpec, SecondaryKeyType};

/// A keyspace "ks" of three pairs `k1..k3`, each value eight bytes whose
/// last four are a little-endian `u32` score (30, 10, 20), compacted and
/// then indexed by score as "score".
fn compacted_keyspace() -> (Arc<KvCsdDevice>, u32) {
    let geom = FlashGeometry {
        channels: 2,
        blocks_per_channel: 32,
        pages_per_block: 16,
        page_bytes: 4096,
    };
    let stack = DeviceStack::new(
        geom,
        ZnsConfig::default(),
        DeviceConfig {
            cluster_width: 2,
            soc_dram_bytes: 8 << 20,
            seed: 7,
            ..DeviceConfig::default()
        },
    );
    let dev = Arc::clone(stack.device());
    let ok = |resp: KvResponse| match resp {
        KvResponse::Err(e) => panic!("unexpected error: {e}"),
        other => other,
    };
    let KvResponse::Created { ks } =
        ok(dev.handle(KvCommand::CreateKeyspace { name: "ks".into() }))
    else {
        panic!("create failed")
    };
    for (key, score) in [(b"k1", 30u32), (b"k2", 10), (b"k3", 20)] {
        let mut value = vec![0xEE; 4];
        value.extend_from_slice(&score.to_le_bytes());
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key.to_vec(),
            value,
        }));
    }
    ok(dev.handle(KvCommand::Compact { ks }));
    dev.run_pending_jobs();
    ok(dev.handle(KvCommand::BuildSecondaryIndex {
        ks,
        spec: SecondaryIndexSpec {
            name: "score".into(),
            value_offset: 4,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        },
    }));
    dev.run_pending_jobs();
    (dev, ks)
}

/// The ids of the live clusters, ascending: the PIDX, SORTED_VALUES and
/// SIDX, in the order compaction and the index build allocated them.
fn live_clusters(dev: &KvCsdDevice) -> Vec<u32> {
    let ids: Vec<u32> = dev
        .zone_manager()
        .export_state()
        .clusters
        .iter()
        .map(|c| c.id)
        .collect();
    assert_eq!(ids.len(), 3, "PIDX, SORTED_VALUES and SIDX: {ids:?}");
    ids
}

/// Block 0 of `cluster`: the first `len` bytes, checking that the rest
/// of the 4 KiB page is zero padding.
fn block_head(dev: &KvCsdDevice, cluster: u32, len: usize) -> Vec<u8> {
    let page = dev
        .zone_manager()
        .read_block(ClusterId(cluster), 0)
        .unwrap();
    assert_eq!(page.len(), 4096);
    assert!(page[len..].iter().all(|&b| b == 0), "bytes past {len}");
    page[..len].to_vec()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn pidx_block_bytes_are_pinned() {
    let (dev, _) = compacted_keyspace();
    let pidx = live_clusters(&dev)[0];
    // Entry count, then per entry: key length u16, value offset u64,
    // value length u32, key.
    let want = [
        "0300",
        "0200 0000000000000000 08000000 6b31",
        "0200 0800000000000000 08000000 6b32",
        "0200 1000000000000000 08000000 6b33",
    ];
    assert_eq!(
        hex(&block_head(&dev, pidx, 50)),
        want.concat().replace(' ', "")
    );
}

#[test]
fn sidx_block_bytes_are_pinned() {
    let (dev, _) = compacted_keyspace();
    let sidx = live_clusters(&dev)[2];
    // Entry count, then per entry: secondary key length u16, primary key
    // length u16, value offset u64, value length u32, the
    // order-preserving big-endian secondary key, the primary key.
    let want = [
        "0300",
        "0400 0200 0800000000000000 08000000 0000000a 6b32",
        "0400 0200 1000000000000000 08000000 00000014 6b33",
        "0400 0200 0000000000000000 08000000 0000001e 6b31",
    ];
    assert_eq!(
        hex(&block_head(&dev, sidx, 68)),
        want.concat().replace(' ', "")
    );
}

#[test]
fn compacted_snapshot_bytes_are_pinned() {
    let (dev, _) = compacted_keyspace();
    let zones = dev.zone_manager().export_state();
    let bytes = dev
        .keyspaces()
        .with_all(|list| snapshot::encode_parts(&zones, list));
    let want = [
        // Version, next cluster id, cluster count.
        "02 06000000 03000000",
        // Per cluster: id, width, stripe offset, stripe unit (1: pages,
        // as every compaction output), blocks, zone groups.
        "03000000 02000000 00000000 01000000 0100000000000000 01000000 02000000 06000000 07000000",
        "04000000 02000000 00000000 01000000 0100000000000000 01000000 02000000 09000000 08000000",
        "05000000 02000000 01000000 01000000 0100000000000000 01000000 02000000 04000000 05000000",
        // Keyspace count; id, state COMPACTED, name "ks".
        "01000000 01000000 03 02000000 6b73",
        // Pairs, data bytes, min key "k1", max key "k3".
        "0300000000000000 1e00000000000000 01 02000000 6b31 01 02000000 6b33",
        // Flags: PIDX and SORTED_VALUES present.
        "0c",
        // PIDX: cluster, blocks, pivot count, pivot "k1".
        "03000000 01000000 01000000 02000000 6b31",
        // SORTED_VALUES: cluster, bytes.
        "04000000 1800000000000000",
        // Secondary index count; name "score", value offset, value
        // length, key type U32.
        "01000000 05000000 73636f7265 04000000 04000000 00",
        // Cluster, blocks, entries, pivot count, pivot 10.
        "05000000 01000000 0300000000000000 01000000 04000000 0000000a",
    ];
    assert_eq!(hex(&bytes), want.concat().replace(' ', ""));
}

#[test]
fn exported_artifact_wire_bytes_are_pinned() {
    let (dev, ks) = compacted_keyspace();
    let art = dev.export_keyspace_artifacts(ks).unwrap();
    // Min and max key (2 + 2), the PIDX block (4096) and its pivot "k1"
    // (2 + 4), SORTED_VALUES (24), the SIDX block (4096), its name (5),
    // spec and entry count (16) and its pivot (4 + 4).
    assert_eq!(art.wire_bytes(), 4 + 4096 + 6 + 24 + 4096 + 5 + 16 + 8);
}
