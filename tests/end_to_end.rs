//! Cross-crate integration tests: the full client -> protocol -> device ->
//! zone manager -> ZNS -> NAND stack, and cross-system result equivalence
//! between KV-CSD and the software LSM baseline.

use std::collections::BTreeMap;
use std::sync::Arc;

use kvcsd::blockfs::{BlockFs, FsConfig};
use kvcsd::device::{DeviceConfig, KvCsdDevice};
use kvcsd::flash::{
    ConvConfig, ConventionalNamespace, FlashGeometry, NandArray, ZnsConfig, ZonedNamespace,
};
use kvcsd::lsm::{CompactionMode, Db, Options};
use kvcsd::proto::{Bound, DeviceHandler, SecondaryIndexSpec, SecondaryKeyType, SidxKey};
use kvcsd::sim::config::SimConfig;
use kvcsd::sim::{IoLedger, XorShift64};
use kvcsd_client::KvCsd;

fn make_device() -> (Arc<KvCsdDevice>, KvCsd, Arc<IoLedger>) {
    let cfg = SimConfig::default();
    let geom = FlashGeometry {
        channels: cfg.hw.flash_channels,
        blocks_per_channel: 1024,
        pages_per_block: 16,
        page_bytes: cfg.hw.page_bytes,
    };
    let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
    let nand = Arc::new(NandArray::new(geom, &cfg.hw, Arc::clone(&ledger)));
    let zns = Arc::new(ZonedNamespace::new(nand, ZnsConfig::default()));
    let dev = Arc::new(KvCsdDevice::new(
        zns,
        cfg.cost.clone(),
        DeviceConfig::default(),
    ));
    let client = KvCsd::connect(
        Arc::clone(&dev) as Arc<dyn DeviceHandler>,
        Arc::clone(&ledger),
    );
    (dev, client, ledger)
}

fn make_baseline() -> (Arc<Db>, Arc<BlockFs>) {
    let cfg = SimConfig::default();
    let geom = FlashGeometry {
        channels: cfg.hw.flash_channels,
        blocks_per_channel: 1024,
        pages_per_block: 16,
        page_bytes: cfg.hw.page_bytes,
    };
    let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
    let nand = Arc::new(NandArray::new(geom, &cfg.hw, ledger));
    let conv = Arc::new(ConventionalNamespace::new(nand, ConvConfig::default()));
    let fs = Arc::new(BlockFs::format(conv, cfg.cost.clone(), FsConfig::default()));
    let db = Arc::new(
        Db::open(
            Arc::clone(&fs),
            "",
            Options {
                memtable_bytes: 64 << 10,
                compaction: CompactionMode::Automatic,
                ..Options::default()
            },
        )
        .unwrap(),
    );
    (db, fs)
}

/// Random dataset: unique random-looking keys, values carrying a trailing
/// u32 "score" so a secondary index can be built.
fn dataset(n: u64, seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = XorShift64::new(seed);
    (0..n)
        .map(|i| {
            let key = format!("k{:016x}", rng.next_u64()).into_bytes();
            let mut value = vec![0u8; 32];
            value[..8].copy_from_slice(&i.to_le_bytes());
            value[28..].copy_from_slice(&((i % 1000) as u32).to_le_bytes());
            (key, value)
        })
        .collect()
}

#[test]
fn kvcsd_matches_inmemory_model() {
    let (dev, client, _) = make_device();
    let data = dataset(5_000, 1);
    let model: BTreeMap<Vec<u8>, Vec<u8>> = data.iter().cloned().collect();

    let ks = client.create_keyspace("model-check").unwrap();
    let acc = ks.write_accelerator();
    for (k, v) in &data {
        acc.put(k, v).unwrap();
    }
    acc.flush().unwrap();
    ks.compact().unwrap();
    dev.run_pending_jobs();

    // Point queries match the model.
    for (k, v) in model.iter().step_by(37) {
        assert_eq!(&ks.get(k).unwrap(), v);
    }
    // Full scan matches the model in order and content.
    let scan = ks.range(Bound::Unbounded, Bound::Unbounded, None).unwrap();
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
    assert_eq!(scan, want);
    // Bounded ranges match the model's ranges.
    let keys: Vec<&Vec<u8>> = model.keys().collect();
    let (lo, hi) = (keys[100].clone(), keys[200].clone());
    let got = ks
        .range(
            Bound::Included(lo.clone()),
            Bound::Excluded(hi.clone()),
            None,
        )
        .unwrap();
    let want: Vec<(Vec<u8>, Vec<u8>)> = model
        .range(lo..hi)
        .map(|(a, b)| (a.clone(), b.clone()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn kvcsd_and_baseline_agree_on_everything() {
    let (dev, client, _) = make_device();
    let (db, _fs) = make_baseline();
    let data = dataset(4_000, 2);

    let ks = client.create_keyspace("agree").unwrap();
    let acc = ks.write_accelerator();
    for (k, v) in &data {
        acc.put(k, v).unwrap();
        db.put(k, v).unwrap();
    }
    acc.flush().unwrap();
    ks.compact().unwrap();
    dev.run_pending_jobs();
    db.flush().unwrap();

    for (k, _) in data.iter().step_by(41) {
        assert_eq!(Some(ks.get(k).unwrap()), db.get(k).unwrap());
    }
    let scan_k = ks.range(Bound::Unbounded, Bound::Unbounded, None).unwrap();
    let scan_b = db.scan(&[], &[], None).unwrap();
    assert_eq!(scan_k, scan_b);
}

#[test]
fn secondary_index_agrees_with_brute_force() {
    let (dev, client, _) = make_device();
    let data = dataset(3_000, 3);
    let ks = client.create_keyspace("sidx").unwrap();
    let acc = ks.write_accelerator();
    for (k, v) in &data {
        acc.put(k, v).unwrap();
    }
    acc.flush().unwrap();
    ks.compact().unwrap();
    dev.run_pending_jobs();
    ks.build_secondary_index(SecondaryIndexSpec {
        name: "score".into(),
        value_offset: 28,
        value_len: 4,
        key_type: SecondaryKeyType::U32,
    })
    .unwrap();
    dev.run_pending_jobs();

    // Brute-force expectation: score in [900, 1000).
    let mut want: Vec<Vec<u8>> = data
        .iter()
        .filter(|(_, v)| u32::from_le_bytes(v[28..32].try_into().unwrap()) >= 900)
        .map(|(k, _)| k.clone())
        .collect();
    want.sort();
    let got = ks
        .sidx_range(
            "score",
            Bound::Included(SidxKey::U32(900).encode()),
            Bound::Unbounded,
            None,
        )
        .unwrap();
    let mut got_keys: Vec<Vec<u8>> = got.iter().map(|(k, _)| k.clone()).collect();
    got_keys.sort();
    assert_eq!(got_keys, want);
    // Values returned are the full original records.
    for (k, v) in &got {
        let orig = data.iter().find(|(dk, _)| dk == k).unwrap();
        assert_eq!(v, &orig.1);
    }
}

#[test]
fn device_survives_many_keyspace_lifecycles() {
    let (dev, client, _) = make_device();
    let zones0 = dev.zone_manager().free_zones();
    for round in 0..10 {
        let ks = client.create_keyspace(&format!("cycle-{round}")).unwrap();
        let acc = ks.write_accelerator();
        for i in 0..500u32 {
            acc.put(format!("k{i:05}").as_bytes(), &[round as u8; 32])
                .unwrap();
        }
        acc.flush().unwrap();
        ks.compact().unwrap();
        dev.run_pending_jobs();
        assert_eq!(ks.get(b"k00123").unwrap(), vec![round as u8; 32]);
        ks.delete().unwrap();
    }
    assert_eq!(
        dev.zone_manager().free_zones(),
        zones0,
        "every cycle must return all its zones"
    );
    assert_eq!(dev.dram().used(), 0);
}

#[test]
fn offloading_keeps_host_idle_during_background_work() {
    let (dev, client, ledger) = make_device();
    let ks = client.create_keyspace("offload").unwrap();
    let acc = ks.write_accelerator();
    for (k, v) in dataset(5_000, 4) {
        acc.put(&k, &v).unwrap();
    }
    acc.flush().unwrap();
    ks.compact().unwrap();

    let before = ledger.snapshot();
    dev.run_pending_jobs(); // the offloaded compaction
    let work = ledger.snapshot().since(&before);
    assert_eq!(work.host_cpu_ns, 0, "compaction must consume zero host CPU");
    assert_eq!(work.pcie_bytes(), 0, "compaction must move zero bus bytes");
    assert!(work.soc_cpu_ns > 0);
    assert!(work.nand_read_pages > 0 && work.nand_program_pages > 0);
}

#[test]
fn bulk_and_single_puts_are_equivalent() {
    let (dev, client, _) = make_device();
    let data = dataset(1_000, 5);

    let ks_bulk = client.create_keyspace("bulk").unwrap();
    let acc = ks_bulk.write_accelerator();
    for (k, v) in &data {
        acc.put(k, v).unwrap();
    }
    acc.flush().unwrap();
    ks_bulk.compact().unwrap();

    let ks_single = client.create_keyspace("single").unwrap();
    for (k, v) in &data {
        ks_single.put(k, v).unwrap();
    }
    ks_single.compact().unwrap();
    dev.run_pending_jobs();

    let a = ks_bulk
        .range(Bound::Unbounded, Bound::Unbounded, None)
        .unwrap();
    let b = ks_single
        .range(Bound::Unbounded, Bound::Unbounded, None)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn single_pass_compact_with_indexes_through_client() {
    let (dev, client, _) = make_device();
    let data = dataset(2_000, 9);
    let ks = client.create_keyspace("onepass").unwrap();
    let acc = ks.write_accelerator();
    for (k, v) in &data {
        acc.put(k, v).unwrap();
    }
    acc.flush().unwrap();
    let job = ks
        .compact_with_indexes(vec![SecondaryIndexSpec {
            name: "score".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        }])
        .unwrap();
    dev.run_pending_jobs();
    assert!(job.is_terminal().unwrap());
    // Primary and secondary immediately queryable.
    assert_eq!(ks.get(&data[7].0).unwrap(), data[7].1);
    let hits = ks
        .sidx_range(
            "score",
            Bound::Included(SidxKey::U32(999).encode()),
            Bound::Unbounded,
            None,
        )
        .unwrap();
    let want = data
        .iter()
        .filter(|(_, v)| u32::from_le_bytes(v[28..32].try_into().unwrap()) >= 999)
        .count();
    assert_eq!(hits.len(), want);
    assert!(!hits.is_empty());
}

#[test]
fn fsync_is_accepted_through_client() {
    let (dev, client, _) = make_device();
    let ks = client.create_keyspace("sync").unwrap();
    ks.put(b"k", b"v").unwrap();
    ks.fsync().unwrap(); // WAL disabled by default: durable no-op
    ks.compact().unwrap();
    dev.run_pending_jobs();
    assert_eq!(ks.get(b"k").unwrap(), b"v");
}

#[test]
fn baseline_recovers_after_reopen_while_device_state_is_fresh() {
    // The baseline persists through its manifest + WAL on the shared fs.
    let (db, fs) = make_baseline();
    for (k, v) in dataset(1_500, 6) {
        db.put(&k, &v).unwrap();
    }
    let expect = db.scan(&[], &[], None).unwrap();
    drop(db);
    let db2 = Db::open(
        Arc::clone(&fs),
        "",
        Options {
            memtable_bytes: 64 << 10,
            ..Options::default()
        },
    )
    .unwrap();
    assert_eq!(db2.scan(&[], &[], None).unwrap(), expect);
}
