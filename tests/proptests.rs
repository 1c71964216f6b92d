//! Randomized model tests over the core data structures and invariants.
//!
//! Property-style testing without an external framework: every case draws
//! its inputs from a seeded [`XorShift64`], so failures reproduce exactly
//! (the seed is in the assertion message) and the suite never fetches a
//! crate. Each property runs across several seeds to cover the input
//! space the way `proptest` cases would.

use std::collections::BTreeMap;
use std::sync::Arc;

use kvcsd::blockfs::{BlockFs, FsConfig};
use kvcsd::device::{DeviceConfig, DeviceStack, KvCsdDevice};
use kvcsd::flash::{
    ConvConfig, ConventionalNamespace, FlashGeometry, NandArray, ZnsConfig, ZonedNamespace,
};
use kvcsd::lsm::{CompactionMode, Db, Options};
use kvcsd::proto::{Bound, BulkBuilder, DeviceHandler, SidxKey};
use kvcsd::sim::config::SimConfig;
use kvcsd::sim::{IoLedger, XorShift64};
use kvcsd_client::KvCsd;

fn geom(blocks_per_channel: u32) -> FlashGeometry {
    FlashGeometry {
        channels: 8,
        blocks_per_channel,
        pages_per_block: 16,
        page_bytes: 4096,
    }
}

fn make_device() -> (Arc<KvCsdDevice>, KvCsd) {
    let stack = DeviceStack::new(
        geom(512),
        ZnsConfig {
            zone_blocks: 1,
            max_open_zones: 1 << 16,
        },
        DeviceConfig {
            cluster_width: 8,
            soc_dram_bytes: 8 << 20,
            seed: 5,
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

fn make_db(memtable_bytes: usize) -> Arc<Db> {
    let cfg = SimConfig::default();
    let g = geom(1024);
    let ledger = Arc::new(IoLedger::new(g.channels, g.page_bytes));
    let nand = Arc::new(NandArray::new(g, &cfg.hw, ledger));
    let conv = Arc::new(ConventionalNamespace::new(nand, ConvConfig::default()));
    let fs = Arc::new(BlockFs::format(conv, cfg.cost.clone(), FsConfig::default()));
    Arc::new(
        Db::open(
            fs,
            "",
            Options {
                memtable_bytes,
                compaction: CompactionMode::Automatic,
                level_base_bytes: (memtable_bytes as u64) * 4,
                target_file_bytes: memtable_bytes,
                ..Options::default()
            },
        )
        .unwrap(),
    )
}

fn rand_bytes(rng: &mut XorShift64, max_len: usize) -> Vec<u8> {
    let len = rng.next_below(max_len as u64 + 1) as usize;
    (0..len).map(|_| rng.next_below(256) as u8).collect()
}

/// The software LSM behaves exactly like an ordered map under arbitrary
/// put/delete sequences, across flushes and compactions.
#[test]
fn lsm_equals_btreemap() {
    for seed in 1..=8u64 {
        let mut rng = XorShift64::new(seed);
        let db = make_db(2 << 10); // tiny memtable: force flush/compaction
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let ops = 1 + rng.next_below(300) as usize;
        for _ in 0..ops {
            // A small key universe guarantees overwrites and delete hits.
            let k = format!("key-{:03}", rng.next_below(40)).into_bytes();
            if rng.next_below(4) < 3 {
                let v = rand_bytes(&mut rng, 80);
                db.put(&k, &v).unwrap();
                model.insert(k, v);
            } else {
                db.delete(&k).unwrap();
                model.remove(&k);
            }
        }
        // Point queries.
        for i in 0..40u8 {
            let k = format!("key-{i:03}").into_bytes();
            assert_eq!(db.get(&k).unwrap(), model.get(&k).cloned(), "seed {seed}");
        }
        // Ordered scan.
        let got = db.scan(&[], &[], None).unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        assert_eq!(got, want, "seed {seed}");
    }
}

/// KV-CSD's compacted keyspace equals the sorted map of its inserts
/// (unique keys), for arbitrary data.
#[test]
fn kvcsd_equals_sorted_input() {
    for seed in 1..=4u64 {
        let mut rng = XorShift64::new(seed * 101);
        let mut entries: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let n = 1 + rng.next_below(200) as usize;
        while entries.len() < n {
            let klen = 1 + rng.next_below(23) as usize;
            let k: Vec<u8> = (0..klen).map(|_| 1 + rng.next_below(255) as u8).collect();
            let v = rand_bytes(&mut rng, 100);
            entries.insert(k, v);
        }
        let (dev, client) = make_device();
        let ks = client.create_keyspace("prop").unwrap();
        let acc = ks.write_accelerator();
        // Insert in reverse so the device really sorts.
        for (k, v) in entries.iter().rev() {
            acc.put(k, v).unwrap();
        }
        acc.flush().unwrap();
        ks.compact().unwrap();
        dev.run_pending_jobs();

        let scan = ks.range(Bound::Unbounded, Bound::Unbounded, None).unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> = entries
            .iter()
            .map(|(a, b)| (a.clone(), b.clone()))
            .collect();
        assert_eq!(scan, want, "seed {seed}");
        for (k, v) in entries.iter().take(20) {
            assert_eq!(&ks.get(k).unwrap(), v, "seed {seed}");
        }
    }
}

/// Bulk payloads round-trip arbitrary pair sets exactly.
#[test]
fn bulk_payload_roundtrip() {
    for seed in 1..=8u64 {
        let mut rng = XorShift64::new(seed * 7);
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..rng.next_below(100))
            .map(|_| (rand_bytes(&mut rng, 63), rand_bytes(&mut rng, 199)))
            .collect();
        let mut b = BulkBuilder::new(1 << 20);
        for (k, v) in &pairs {
            assert!(b.push(k, v), "seed {seed}");
        }
        let payload = b.finish();
        let got: Vec<(Vec<u8>, Vec<u8>)> = payload
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        assert_eq!(got, pairs, "seed {seed}");
    }
}

/// Order-preserving encodings: the defining property, for every type.
#[test]
fn sidx_encoding_preserves_order_i64() {
    let mut rng = XorShift64::new(13);
    for _ in 0..4096 {
        let (a, b) = (rng.next_u64() as i64, rng.next_u64() as i64);
        let (ea, eb) = (SidxKey::I64(a).encode(), SidxKey::I64(b).encode());
        assert_eq!(a.cmp(&b), ea.cmp(&eb), "a={a} b={b}");
    }
}

#[test]
fn sidx_encoding_preserves_order_u64() {
    let mut rng = XorShift64::new(17);
    for _ in 0..4096 {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let (ea, eb) = (SidxKey::U64(a).encode(), SidxKey::U64(b).encode());
        assert_eq!(a.cmp(&b), ea.cmp(&eb), "a={a} b={b}");
    }
}

#[test]
fn sidx_encoding_preserves_order_f64() {
    let mut rng = XorShift64::new(19);
    let draw = |rng: &mut XorShift64| {
        // Mix of magnitudes, signs, and exact zeros.
        match rng.next_below(4) {
            0 => (rng.next_f64() - 0.5) * 1e300,
            1 => (rng.next_f64() - 0.5) * 1e-300,
            2 => 0.0,
            _ => (rng.next_f64() - 0.5) * 1e3,
        }
    };
    for _ in 0..4096 {
        let (a, b) = (draw(&mut rng), draw(&mut rng));
        if !(a.is_finite() && b.is_finite()) {
            continue;
        }
        let (ea, eb) = (SidxKey::F64(a).encode(), SidxKey::F64(b).encode());
        if a < b {
            assert!(ea < eb, "a={a} b={b}");
        } else if a > b {
            assert!(ea > eb, "a={a} b={b}");
        }
        // -0.0 == 0.0 but encodes differently; both orderings of the two
        // encodings are admissible for equal values.
    }
}

/// ZNS invariants under arbitrary append/reset sequences: the write
/// pointer is exactly the sum of appended pages and reads below it return
/// exactly what was appended.
#[test]
fn zns_append_reset_invariants() {
    for seed in 1..=6u64 {
        let mut rng = XorShift64::new(seed * 31);
        let cfg = SimConfig::default();
        let g = geom(64);
        let ledger = Arc::new(IoLedger::new(g.channels, g.page_bytes));
        let nand = Arc::new(NandArray::new(g, &cfg.hw, ledger));
        let zns = ZonedNamespace::new(
            nand,
            ZnsConfig {
                zone_blocks: 2,
                max_open_zones: 1 << 16,
            },
        );
        // Shadow state per zone: the byte payloads appended.
        let mut shadow: Vec<Vec<Vec<u8>>> = vec![Vec::new(); 8];
        let ops = 1 + rng.next_below(60);
        for _ in 0..ops {
            let zone = rng.next_below(8) as u32;
            if rng.next_below(2) == 1 {
                zns.reset(zone).unwrap();
                shadow[zone as usize].clear();
                assert_eq!(
                    zns.zone_info(zone).unwrap().write_pointer_pages,
                    0,
                    "seed {seed}"
                );
                continue;
            }
            let len = 1 + rng.next_below(5999) as usize;
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let pages: u32 = len.div_ceil(4096) as u32;
            let wp = zns.zone_info(zone).unwrap().write_pointer_pages;
            if wp + pages > zns.zone_capacity_pages() {
                assert!(zns.append(zone, &data).is_err(), "seed {seed}");
                continue;
            }
            let start = zns.append(zone, &data).unwrap();
            assert_eq!(start, wp, "seed {seed}");
            shadow[zone as usize].push(data);
            assert_eq!(
                zns.zone_info(zone).unwrap().write_pointer_pages,
                wp + pages,
                "seed {seed}"
            );
        }
        // Every appended payload reads back.
        for (zone, payloads) in shadow.iter().enumerate() {
            let mut page = 0u32;
            for p in payloads {
                let pages = p.len().div_ceil(4096) as u32;
                let back = zns.read_pages(zone as u32, page, pages).unwrap();
                assert_eq!(&back[..p.len()], &p[..], "seed {seed}");
                page += pages;
            }
        }
    }
}

/// The FTL never loses live data under arbitrary overwrite/trim pressure
/// that forces garbage collection.
#[test]
fn ftl_preserves_live_pages() {
    for seed in 1..=6u64 {
        let mut rng = XorShift64::new(seed * 43);
        let cfg = SimConfig::default();
        let g = FlashGeometry {
            channels: 4,
            blocks_per_channel: 8,
            pages_per_block: 4,
            page_bytes: 512,
        };
        let ledger = Arc::new(IoLedger::new(g.channels, g.page_bytes));
        let nand = Arc::new(NandArray::new(g, &cfg.hw, ledger));
        let conv = ConventionalNamespace::new(
            nand,
            ConvConfig {
                op_fraction: 0.6,
                gc_free_blocks: 3,
                ..ConvConfig::default()
            },
        );
        let logical = conv.logical_pages();
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        let ops = 50 + rng.next_below(350);
        for _ in 0..ops {
            let lpa = rng.next_below(60) % logical.min(60);
            if rng.next_below(2) == 1 {
                conv.trim(lpa).unwrap();
                model.remove(&lpa);
            } else {
                let fill = rng.next_below(256) as u8;
                conv.write(lpa, &[fill; 16]).unwrap();
                model.insert(lpa, fill);
            }
        }
        for (lpa, fill) in &model {
            assert_eq!(conv.read(*lpa).unwrap()[0], *fill, "seed {seed}");
        }
    }
}

/// LSM WAL replay over a randomly truncated and bit-flipped log tail
/// recovers exactly the records whose frames precede the damage — and
/// never panics or errors, whatever the corruption looks like.
#[test]
fn lsm_wal_tail_damage_recovers_valid_prefix() {
    use kvcsd::lsm::wal::{Wal, WalRecord};
    for seed in 1..=40u64 {
        let mut rng = XorShift64::new(seed.wrapping_mul(0x9E37_79B9));
        let cfg = SimConfig::default();
        let g = geom(256);
        let ledger = Arc::new(IoLedger::new(g.channels, g.page_bytes));
        let nand = Arc::new(NandArray::new(g, &cfg.hw, ledger));
        let conv = Arc::new(ConventionalNamespace::new(nand, ConvConfig::default()));
        let fs = BlockFs::format(conv, cfg.cost.clone(), FsConfig::default());

        // Build a log of n records, tracking each frame's end offset.
        let wal = Wal::create(&fs, "wal").unwrap();
        let file = fs.open("wal").unwrap();
        let n = 2 + rng.next_below(20) as usize;
        let mut recs = Vec::new();
        let mut ends = Vec::new();
        for i in 0..n {
            let rec = if rng.next_below(4) == 0 {
                WalRecord::Delete {
                    seq: i as u64,
                    key: rand_bytes(&mut rng, 24),
                }
            } else {
                WalRecord::Put {
                    seq: i as u64,
                    key: rand_bytes(&mut rng, 24),
                    value: rand_bytes(&mut rng, 200),
                }
            };
            wal.append(&fs, &rec, false).unwrap();
            recs.push(rec);
            ends.push(fs.len(file).unwrap());
        }
        let total = *ends.last().unwrap();
        let bytes = fs.read_exact_at(file, 0, total as usize).unwrap();

        // Damage the tail: truncate at a random byte, then (half the
        // time) flip one random bit somewhere in the kept region.
        let cut = rng.next_below(total + 1);
        let mut kept = bytes[..cut as usize].to_vec();
        let flip = if !kept.is_empty() && rng.next_below(2) == 0 {
            let at = rng.next_below(kept.len() as u64);
            kept[at as usize] ^= 1 << rng.next_below(8);
            Some(at)
        } else {
            None
        };
        // Every frame wholly before the first damaged byte must come
        // back; nothing at or past it may.
        let cpoint = flip.unwrap_or(cut).min(cut);
        let expect = ends.iter().filter(|&&e| e <= cpoint).count();

        fs.unlink("wal").unwrap();
        let id = fs.create("wal").unwrap();
        fs.append(id, &kept).unwrap();
        let got = Wal::replay(&fs, "wal").unwrap();
        assert_eq!(got.len(), expect, "seed {seed}: cut {cut}, flip {flip:?}");
        assert_eq!(
            &got[..],
            &recs[..expect],
            "seed {seed}: cut {cut}, flip {flip:?}"
        );
    }
}

/// Device WAL replay over a randomly truncated and bit-flipped cluster
/// recovers exactly the valid-CRC prefix, across sync padding gaps.
#[test]
fn device_wal_tail_damage_recovers_valid_prefix() {
    use kvcsd::device::soc::SocCharger;
    use kvcsd::device::wal::DeviceWal;
    use kvcsd::device::ZoneManager;
    use kvcsd::sim::config::CostModel;
    use kvcsd::sim::HardwareSpec;

    const BLOCK: u64 = 4096;
    const HEADER: u64 = 11; // tag + klen:u16 + vlen:u32 + crc:u32
    for seed in 1..=40u64 {
        let mut rng = XorShift64::new(seed.wrapping_mul(0x517C_C1B7));
        let g = geom(256);
        let ledger = Arc::new(IoLedger::new(g.channels, g.page_bytes));
        let nand = Arc::new(NandArray::new(
            g,
            &HardwareSpec::default(),
            Arc::clone(&ledger),
        ));
        let zns = Arc::new(ZonedNamespace::new(
            nand,
            ZnsConfig {
                zone_blocks: 1,
                max_open_zones: 1 << 16,
            },
        ));
        let mgr = ZoneManager::new(zns, 1, seed);
        let soc = SocCharger::new(ledger, CostModel::default());

        // Build a WAL, shadowing the byte layout (frames + sync padding).
        let c1 = mgr.alloc_cluster(4).unwrap();
        let mut wal = DeviceWal::new(c1);
        let mut pos = 0u64;
        let n = 2 + rng.next_below(30) as usize;
        let mut recs = Vec::new();
        let mut spans = Vec::new(); // (start, end) of each frame
        for _ in 0..n {
            let key = rand_bytes(&mut rng, 20);
            let value = rand_bytes(&mut rng, 300);
            wal.append(&mgr, &mut soc.tally(), &key, &value).unwrap();
            spans.push((pos, pos + HEADER + key.len() as u64 + value.len() as u64));
            pos += HEADER + key.len() as u64 + value.len() as u64;
            recs.push((key, value));
            if rng.next_below(5) == 0 {
                wal.sync(&mgr).unwrap();
                pos = pos.next_multiple_of(BLOCK);
            }
        }
        wal.sync(&mgr).unwrap();
        pos = pos.next_multiple_of(BLOCK);
        let blocks = pos / BLOCK;
        let mut stream = Vec::with_capacity(pos as usize);
        for b in 0..blocks {
            stream.extend_from_slice(&mgr.read_block(c1, b).unwrap());
        }

        // Damage: drop whole tail blocks (replay is block-granular), then
        // (half the time) flip one bit inside a surviving frame.
        let keep_blocks = rng.next_below(blocks + 1);
        let kept_bytes = keep_blocks * BLOCK;
        let mut kept = stream[..kept_bytes as usize].to_vec();
        let candidates: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].0 < kept_bytes)
            .collect();
        let flip = if !candidates.is_empty() && rng.next_below(2) == 0 {
            let frame = candidates[rng.next_below(candidates.len() as u64) as usize];
            let (start, end) = spans[frame];
            let at = start + rng.next_below(end.min(kept_bytes) - start);
            kept[at as usize] ^= 1 << rng.next_below(8);
            Some(spans[frame].0)
        } else {
            None
        };
        let cpoint = flip.unwrap_or(kept_bytes).min(kept_bytes);
        let expect = spans.iter().filter(|&&(_, e)| e <= cpoint).count();

        // Materialize the damaged image on a fresh cluster and replay.
        let c2 = mgr.alloc_cluster(4).unwrap();
        for chunk in kept.chunks(BLOCK as usize) {
            mgr.append_block(c2, chunk).unwrap();
        }
        let mut got = Vec::new();
        let count = DeviceWal::replay(&mgr, c2, keep_blocks, |k, v| {
            got.push((k, v));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            count as usize, expect,
            "seed {seed}: keep {keep_blocks}, flip {flip:?}"
        );
        assert_eq!(
            &got[..],
            &recs[..expect],
            "seed {seed}: keep {keep_blocks}, flip {flip:?}"
        );
    }
}
