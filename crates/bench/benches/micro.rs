//! Microbenchmarks of the core data structures: wall-clock performance
//! of the real algorithms that the simulation executes. (Simulated
//! experiment times come from the figure binaries; these benches guard
//! the implementation's own speed.)
//!
//! Self-timed (no external harness): each case runs a fixed iteration
//! count and prints ns/op. Run with `cargo bench --bench micro`.

use std::hint::black_box;
use std::sync::Arc;

use kvcsd_blockfs::{BlockFs, FsConfig};
use kvcsd_cluster::{ClusterConfig, ClusterRouter};
use kvcsd_core::compact::run_compaction;
use kvcsd_core::dram::DramBudget;
use kvcsd_core::extsort::ExtSorter;
use kvcsd_core::ingest::{KlogRecord, KlogRef, WriteLog};
use kvcsd_core::sidx::SidxEntry;
use kvcsd_core::soc::SocCharger;
use kvcsd_core::zone_mgr::ZoneManager;
use kvcsd_core::{
    Deadline, DeviceConfig, DeviceStack, EntryRef, IndexBlock, IndexBlockBuilder, PidxEntry,
};
use kvcsd_flash::{
    ConvConfig, ConventionalNamespace, FlashGeometry, NandArray, ZnsConfig, ZonedNamespace,
};
use kvcsd_lsm::bloom::BloomFilter;
use kvcsd_lsm::memtable::MemTable;
use kvcsd_lsm::sstable::{new_block_cache, TableBuilder};
use kvcsd_proto::{Bound, BulkBuilder, DeviceHandler, JobState, KvCommand, KvResponse, SidxKey};
use kvcsd_sim::config::CostModel;
use kvcsd_sim::{HardwareSpec, IoLedger, XorShift64};

/// Time `iters` runs of `f` and print per-element cost.
fn bench<R>(name: &str, iters: u64, elements: u64, mut f: impl FnMut() -> R) {
    // One warmup run, then the timed loop.
    black_box(f());
    let start = kvcsd_sim::WallTimer::start();
    for _ in 0..iters {
        black_box(f());
    }
    let total = start.elapsed();
    let per_elem = total.as_nanos() as f64 / (iters * elements.max(1)) as f64;
    println!("{name:<28} {iters:>6} iters  {per_elem:>12.1} ns/elem");
}

fn keys(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("key-{:012}", (i as u64).wrapping_mul(0x9E3779B97F4A7C15)).into_bytes())
        .collect()
}

fn bench_bloom() {
    let ks = keys(10_000);
    bench("bloom/build_10k", 20, 10_000, || {
        BloomFilter::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10)
    });
    let f = BloomFilter::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10);
    let mut i = 0usize;
    bench("bloom/probe", 100_000, 1, || {
        i = (i + 1) % ks.len();
        f.may_contain(&ks[i])
    });
}

fn bench_memtable() {
    let ks = keys(10_000);
    bench("memtable/insert_10k", 20, 10_000, || {
        let mut m = MemTable::new();
        for (i, k) in ks.iter().enumerate() {
            m.insert(k.clone(), i as u64, Some(vec![0u8; 32]));
        }
        m
    });
}

fn bench_bulk_pack() {
    let ks = keys(2_000);
    bench("proto/bulk_pack_2k_pairs", 50, 2_000, || {
        let mut bb = BulkBuilder::new(1 << 20);
        for k in &ks {
            bb.push(k, &[7u8; 32]);
        }
        bb.finish()
    });
}

fn fresh_fs() -> BlockFs {
    let geom = FlashGeometry {
        channels: 8,
        blocks_per_channel: 1024,
        pages_per_block: 32,
        page_bytes: 4096,
    };
    let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
    let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
    let conv = Arc::new(ConventionalNamespace::new(nand, ConvConfig::default()));
    BlockFs::format(conv, CostModel::default(), FsConfig::default())
}

fn bench_sstable() {
    let ks = keys(5_000);
    let mut sorted = ks.clone();
    sorted.sort();
    let mut id = 0u64;
    bench("sstable/build_5k", 10, 5_000, || {
        let fs = fresh_fs();
        id += 1;
        let mut tb = TableBuilder::create(&fs, &format!("{id}.sst"), id, 4096, 16, 10).unwrap();
        for (i, k) in sorted.iter().enumerate() {
            tb.add(k, i as u64, Some(&[1u8; 32])).unwrap();
        }
        tb.finish().unwrap()
    });
    // Random point gets through the block cache.
    let fs = fresh_fs();
    let mut tb = TableBuilder::create(&fs, "t.sst", 1, 4096, 16, 10).unwrap();
    for (i, k) in sorted.iter().enumerate() {
        tb.add(k, i as u64, Some(&[1u8; 32])).unwrap();
    }
    let table = tb.finish().unwrap();
    let cache = new_block_cache(4096);
    let cost = CostModel::default();
    let mut i = 0usize;
    bench("sstable/get_warm", 10_000, 1, || {
        i = (i + 7919) % sorted.len();
        table.get(&fs, &cost, &cache, &sorted[i]).unwrap().unwrap()
    });
}

fn zone_mgr() -> (ZoneManager, SocCharger) {
    let geom = FlashGeometry {
        channels: 16,
        blocks_per_channel: 1024,
        pages_per_block: 16,
        page_bytes: 4096,
    };
    let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
    let nand = Arc::new(NandArray::new(
        geom,
        &HardwareSpec::default(),
        Arc::clone(&ledger),
    ));
    let zns = Arc::new(ZonedNamespace::new(
        nand,
        ZnsConfig {
            zone_blocks: 4,
            max_open_zones: 1 << 16,
        },
    ));
    (
        ZoneManager::new(zns, 1, 7),
        SocCharger::new(ledger, CostModel::default()),
    )
}

fn bench_device_paths() {
    let ks = keys(5_000);
    bench("device/ingest_5k_pairs", 10, 5_000, || {
        let (mgr, soc) = zone_mgr();
        let kc = mgr.alloc_cluster(8).unwrap();
        let vc = mgr.alloc_cluster(8).unwrap();
        let mut log = WriteLog::new(kc, vc);
        let mut tally = soc.tally();
        for k in &ks {
            log.put(&mgr, &mut tally, k, &[9u8; 32]).unwrap();
        }
        drop(tally);
        log.seal(&mgr).unwrap()
    });
    bench("device/extsort_5k", 10, 5_000, || {
        let (mgr, soc) = zone_mgr();
        let dram = DramBudget::new(128 << 10); // tight: forces spills
        let mut s: ExtSorter<'_, KlogRecord> = ExtSorter::new(&mgr, &soc, &dram, 4).unwrap();
        for (i, k) in ks.iter().enumerate() {
            s.push(&KlogRef {
                key: k,
                voff: i as u64 * 32,
                vlen: 32,
            })
            .unwrap();
        }
        s.finish_into(|_| Ok(())).unwrap()
    });

    // Index entries on an F32 key drawn from 500 values, so secondary
    // keys tie and the primary keys order them; half a MiB of sort
    // DRAM spills them as a handful of runs.
    let n = 50_000;
    let pkeys = keys(n);
    let skeys: Vec<Vec<u8>> = (0..n as u64)
        .map(|i| SidxKey::F32((i.wrapping_mul(0x9E37_79B9) % 500) as f32 * 0.25).encode())
        .collect();
    bench("device/sidx_sort_spill", 10, n as u64, || {
        let (mgr, soc) = zone_mgr();
        let dram = DramBudget::new(1 << 20);
        let mut s: ExtSorter<'_, SidxEntry> = ExtSorter::new(&mgr, &soc, &dram, 4).unwrap();
        for (i, (skey, pkey)) in skeys.iter().zip(&pkeys).enumerate() {
            s.push(&EntryRef {
                key: skey,
                pkey,
                voff: i as u64 * 48,
                vlen: 48,
            })
            .unwrap();
        }
        s.finish_into(|_| Ok(())).unwrap()
    });

    // Twenty key-sorted bulks, as the write accelerator ships them: the
    // compaction census finds twenty natural runs and merges them
    // straight into PIDX and SORTED_VALUES.
    let n = 20_000;
    let (mgr, soc) = zone_mgr();
    let (kc, vc) = (mgr.alloc_cluster(8).unwrap(), mgr.alloc_cluster(8).unwrap());
    let mut log = WriteLog::new(kc, vc);
    let mut tally = soc.tally();
    for bulk in keys(n).chunks_mut(n / 20) {
        bulk.sort();
        for k in bulk.iter() {
            log.put(&mgr, &mut tally, k, &[5u8; 32]).unwrap();
        }
    }
    drop(tally);
    let (klen, vlen) = log.seal(&mgr).unwrap();
    let dram = DramBudget::new(64 << 20);
    bench("device/run_merge_20_runs", 10, n as u64, || {
        let (klog, vlog) = ((kc, klen), (vc, vlen));
        let none = Deadline::none();
        let (out, _) =
            run_compaction(&mgr, &soc, &dram, klog, vlog, n as u64, 8, &[], &none).unwrap();
        assert!(out.run_merge);
        mgr.release_cluster(out.pidx.cluster).unwrap();
        mgr.release_cluster(out.svalues.0).unwrap();
        out.pairs
    });
}

fn bench_pidx_block() {
    let mut builder = IndexBlockBuilder::<PidxEntry>::default();
    let mut keys = Vec::new();
    loop {
        let n = keys.len() as u64;
        let key = format!("key-{n:012}").into_bytes();
        let e = EntryRef::primary(&key, n * 32, 32);
        if !builder.fits(&e) {
            break;
        }
        builder.add(&e);
        keys.push(key);
    }
    let (block, _) = builder.finish();
    // One point lookup per iteration, cycling through every key: parse
    // (validate) the block, then search it in place.
    let mut i = 0;
    bench("pidx/search_block", 100_000, 1, || {
        i = (i + 1) % keys.len();
        IndexBlock::<PidxEntry>::parse(&block)
            .unwrap()
            .find(&keys[i])
    });
}

/// A keyspace's id and the keys loaded into it.
type Loaded = (u32, Vec<Vec<u8>>);

/// Four keyspaces' worth of 48k random 16-byte keys.
fn query_keys() -> Vec<Vec<Vec<u8>>> {
    let mut rng = XorShift64::new(28);
    (0..4)
        .map(|_| {
            (0..48_000)
                .map(|_| format!("{:016x}", rng.next_u64()).into_bytes())
                .collect()
        })
        .collect()
}

/// A random keyspace and one of its keys.
fn pick(spaces: &[Loaded], rng: &mut XorShift64) -> (u32, Vec<u8>) {
    let (ks, keys) = &spaces[rng.next_below(spaces.len() as u64) as usize];
    (
        *ks,
        keys[rng.next_below(keys.len() as u64) as usize].clone(),
    )
}

/// A compacted device holding the [`query_keys`] keyspaces with 32-byte
/// values, loaded through the write accelerator.
fn query_device() -> (DeviceStack, Vec<Loaded>) {
    let geom = FlashGeometry {
        channels: 16,
        blocks_per_channel: 256,
        pages_per_block: 16,
        page_bytes: 4096,
    };
    let stack = DeviceStack::new(geom, ZnsConfig::default(), DeviceConfig::default());
    let client = kvcsd_client::KvCsd::connect(
        Arc::clone(stack.device()) as Arc<dyn DeviceHandler>,
        Arc::clone(stack.ledger()),
    );
    let mut spaces = Vec::new();
    for (k, keys) in query_keys().into_iter().enumerate() {
        let ks = client.create_keyspace(&format!("ks{k}")).unwrap();
        let acc = ks.write_accelerator();
        for key in &keys {
            acc.put(key, &[7u8; 32]).unwrap();
        }
        acc.flush().unwrap();
        ks.compact().unwrap();
        spaces.push((ks.id(), keys));
    }
    stack.device().run_pending_jobs();
    (stack, spaces)
}

/// Queries straight into the device's command handler, each from a
/// random keyspace at a random key, so every index and value page it
/// reads is cold. `pidx/search_block` times one warm block; these see the
/// sketch search, the block parse and the value reads too.
fn bench_device_queries() {
    let (stack, spaces) = query_device();
    let device = stack.device();
    let mut rng = XorShift64::new(7);
    bench("device/get_random", 20_000, 1, || {
        let (ks, key) = pick(&spaces, &mut rng);
        device.handle(KvCommand::Get { ks, key })
    });
    bench("device/range_100", 2_000, 1, || {
        let (ks, key) = pick(&spaces, &mut rng);
        device.handle(KvCommand::Range {
            ks,
            lo: Bound::Included(key),
            hi: Bound::Unbounded,
            limit: Some(100),
        })
    });
}

/// A two-shard, hash-sharded, replicated router holding the
/// [`query_keys`] keyspaces with 32-byte values, each loaded in bulks
/// and compacted (its artifacts shipped to the replica logs).
fn query_cluster() -> (ClusterRouter, Vec<Loaded>) {
    let r = ClusterRouter::new(ClusterConfig {
        shards: 2,
        ..ClusterConfig::default()
    });
    let ok = |resp: KvResponse| match resp {
        KvResponse::Err(e) => panic!("cluster load: {e}"),
        resp => resp,
    };
    let mut spaces = Vec::new();
    for (k, keys) in query_keys().into_iter().enumerate() {
        let ks = match ok(r.handle(KvCommand::CreateKeyspace {
            name: format!("ks{k}"),
        })) {
            KvResponse::Created { ks } => ks,
            other => panic!("create: {other:?}"),
        };
        let mut b = BulkBuilder::default_size();
        for key in &keys {
            if !b.push(key, &[7u8; 32]) {
                let full = std::mem::replace(&mut b, BulkBuilder::default_size());
                ok(r.handle(KvCommand::BulkPut {
                    ks,
                    payload: full.finish(),
                }));
                assert!(b.push(key, &[7u8; 32]));
            }
        }
        ok(r.handle(KvCommand::BulkPut {
            ks,
            payload: b.finish(),
        }));
        let job = match ok(r.handle(KvCommand::Compact { ks })) {
            KvResponse::JobStarted { job } => job,
            other => panic!("compact: {other:?}"),
        };
        while !matches!(
            ok(r.handle(KvCommand::PollJob { job })),
            KvResponse::Job {
                state: JobState::Done
            }
        ) {}
        spaces.push((ks, keys));
    }
    (r, spaces)
}

/// RANGEs through the router: both shards answer, and the router merges
/// the two sorted answers down to the limit.
fn bench_cluster_queries() {
    let (router, spaces) = query_cluster();
    let mut rng = XorShift64::new(7);
    bench("cluster/range_100", 2_000, 1, || {
        let (ks, key) = pick(&spaces, &mut rng);
        router.handle(KvCommand::Range {
            ks,
            lo: Bound::Included(key),
            hi: Bound::Unbounded,
            limit: Some(100),
        })
    });
}

fn bench_end_to_end() {
    use kvcsd_bench::Testbed;
    use kvcsd_workloads::PutWorkload;
    let wl = PutWorkload::paper_micro(5_000, 99);
    bench("end_to_end/kvcsd_load_5k", 5, 5_000, || {
        let mut tb = Testbed::new();
        kvcsd_bench::kvcsd::load(&mut tb, 4, 1, &wl, true).insert_s
    });
    bench("end_to_end/lsm_load_5k", 5, 5_000, || {
        let mut tb = Testbed::new();
        kvcsd_bench::baseline::load(&mut tb, 4, 1, &wl, kvcsd_lsm::CompactionMode::Automatic)
            .insert_s
    });
}

fn main() {
    bench_bloom();
    bench_memtable();
    bench_bulk_pack();
    bench_sstable();
    bench_device_paths();
    bench_pidx_block();
    bench_device_queries();
    bench_cluster_queries();
    bench_end_to_end();
}
