//! Multi-threaded ingest + compact + query stress test.
//!
//! The torture harness (`tests/torture.rs`) is single-threaded by design:
//! it needs a deterministic fault schedule. This test is its concurrent
//! complement. It runs writers, readers and a background job runner
//! against one shared device *at the same time*, so every internal lock
//! in the stack (keyspace map, zone manager, zone metadata, NAND array,
//! block cache, job queue, ledger) is taken from several threads in
//! every interleaving the scheduler produces.
//!
//! In debug builds this runs under the `kvcsd_sim::sync` lock-order
//! detector (DESIGN.md §9): any pair of locks ever acquired in opposite
//! orders — a potential deadlock, even if this particular run did not
//! hang — panics with both acquisition stacks. It also runs under the
//! happens-before race detector (DESIGN.md §11): every `Shared` gauge in
//! the stack (DRAM budget, zone counts, job depth, ledger counters) is
//! epoch-checked on every access, so an unordered access pair panics
//! with both sites even if this run's timing happened to be benign.
//!
//! Set `KVCSD_PERTURB=<seed>` to additionally inject deterministic,
//! virtual-clock-charged yield points at every shim-lock acquisition —
//! the same seed reproduces the same per-thread perturbation schedule
//! (see `kvcsd_sim::perturb`). The assertions on data content are almost
//! incidental; the real product of this test is the lock-order graph and
//! access history it feeds the detectors.

use std::sync::Arc;
use std::thread;

use kvcsd::device::{DeviceConfig, DeviceStack, KvCsdDevice};
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::{
    Bound, DeviceHandler, JobState, KeyspaceState, SecondaryIndexSpec, SecondaryKeyType,
};
use kvcsd::sim::sync::{spawn, Mutex, Shared};
use kvcsd_client::KvCsd;

const WRITERS: usize = 3;
const READERS: usize = 2;
const KEYSPACES_PER_WRITER: usize = 2;
const PAIRS: u32 = 160;
const SYNC_EVERY: u32 = 40;

fn key_for(writer: usize, ks: usize, i: u32) -> Vec<u8> {
    format!("w{writer}s{ks}k{i:05}").into_bytes()
}

/// Value is a pure function of the key (32 bytes, trailing f32 for the
/// secondary index), so readers can verify any pair they observe without
/// coordinating with the writer that produced it.
fn value_for(key: &[u8]) -> Vec<u8> {
    let mut x = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        x ^= b as u64;
        x = x.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut v = vec![0u8; 32];
    for (i, slot) in v.iter_mut().take(28).enumerate() {
        *slot = ((x >> ((i % 8) * 8)) as u8).wrapping_add(i as u8);
    }
    v[28..].copy_from_slice(&((((x >> 17) & 0xFFFF) as f32).to_le_bytes()));
    v
}

fn sidx_spec() -> SecondaryIndexSpec {
    SecondaryIndexSpec {
        name: "tail".into(),
        value_offset: 28,
        value_len: 4,
        key_type: SecondaryKeyType::F32,
    }
}

fn build_stack() -> (Arc<KvCsdDevice>, KvCsd) {
    let stack = DeviceStack::new(
        FlashGeometry {
            channels: 8,
            blocks_per_channel: 256,
            pages_per_block: 16,
            page_bytes: 4096,
        },
        ZnsConfig {
            zone_blocks: 1,
            max_open_zones: 1 << 16,
        },
        DeviceConfig {
            cluster_width: 8,
            soc_dram_bytes: 8 << 20,
            seed: 23,
            wal: true,
            ..DeviceConfig::default()
        },
    );
    let client = KvCsd::connect(
        Arc::clone(stack.device()) as Arc<dyn DeviceHandler>,
        Arc::clone(stack.ledger()),
    );
    (Arc::clone(stack.device()), client)
}

/// One writer's life: for each of its keyspaces, ingest with periodic
/// fsync, compact with a secondary index, wait for the job runner to
/// finish it, then read back every pair through all three query paths.
fn writer(writer_ix: usize, client: KvCsd, published: Arc<Mutex<Vec<String>>>) {
    for ks_ix in 0..KEYSPACES_PER_WRITER {
        let name = format!("stress-w{writer_ix}-{ks_ix}");
        let ks = client.create_keyspace(&name).expect("create");
        for i in 0..PAIRS {
            let k = key_for(writer_ix, ks_ix, i);
            ks.put(&k, &value_for(&k)).expect("put");
            if i % SYNC_EVERY == SYNC_EVERY - 1 {
                ks.fsync().expect("fsync");
            }
        }
        ks.fsync().expect("final fsync");

        let job = ks.compact_with_indexes(vec![sidx_spec()]).expect("compact");
        loop {
            match job.poll().expect("poll") {
                JobState::Done => break,
                JobState::Failed(e) => panic!("{name}: compaction failed: {e}"),
                _ => thread::yield_now(),
            }
        }

        for i in 0..PAIRS {
            let k = key_for(writer_ix, ks_ix, i);
            assert_eq!(ks.get(&k).expect("get"), value_for(&k), "{name}: {k:?}");
        }
        let scan = ks
            .range(Bound::Unbounded, Bound::Unbounded, None)
            .expect("range");
        assert_eq!(scan.len() as u32, PAIRS, "{name}: scan size");
        let via_sidx = ks
            .sidx_range("tail", Bound::Unbounded, Bound::Unbounded, None)
            .expect("sidx_range");
        assert_eq!(via_sidx.len() as u32, PAIRS, "{name}: sidx size");

        published.lock().push(name);
    }
}

/// Readers chase the writers: open whatever has been published, and
/// verify every pair they can see is byte-exact and never torn.
fn reader(client: KvCsd, published: Arc<Mutex<Vec<String>>>, stop: Arc<Shared<bool>>) {
    let mut sweeps = 0u32;
    while !stop.get() || sweeps == 0 {
        let names = published.lock().clone();
        for name in names {
            let (ks, state) = client.open_keyspace(&name).expect("open");
            assert_eq!(state, KeyspaceState::Compacted, "{name}: published early");
            let sample = ks
                .range(Bound::Unbounded, Bound::Unbounded, Some(32))
                .expect("range");
            assert!(!sample.is_empty(), "{name}: empty after compaction");
            for (k, v) in &sample {
                assert_eq!(v, &value_for(k), "{name}: torn pair {k:?}");
            }
            let (k, v) = &sample[sweeps as usize % sample.len()];
            assert_eq!(&ks.get(k).expect("get"), v, "{name}: point/range disagree");
        }
        sweeps += 1;
        thread::yield_now();
    }
}

#[test]
fn concurrent_ingest_compact_query() {
    let (dev, client) = build_stack();
    // Charge perturbation yields (KVCSD_PERTURB runs) to the device clock
    // so injected delays show up in the simulated timeline.
    kvcsd::sim::perturb::install_clock(dev.clock());
    let stop = Arc::new(Shared::new(false));
    let published = Arc::new(Mutex::new(Vec::new()));

    // Background job runner: compactions and index builds only make
    // progress when someone drains the device's job queue.
    let runner = {
        let dev = Arc::clone(&dev);
        let stop = Arc::clone(&stop);
        spawn(move || {
            while !stop.get() {
                dev.run_pending_jobs();
                thread::yield_now();
            }
            dev.run_pending_jobs();
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|ix| {
            let client = client.clone();
            let published = Arc::clone(&published);
            spawn(move || writer(ix, client, published))
        })
        .collect();
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let client = client.clone();
            let published = Arc::clone(&published);
            let stop = Arc::clone(&stop);
            spawn(move || reader(client, published, stop))
        })
        .collect();

    for w in writers {
        w.join().expect("writer panicked");
    }
    stop.set(true);
    for r in readers {
        r.join().expect("reader panicked");
    }
    runner.join().expect("job runner panicked");

    // Final audit from the main thread: everything every writer
    // published is still COMPACTED and complete.
    let names = published.lock().clone();
    assert_eq!(names.len(), WRITERS * KEYSPACES_PER_WRITER);
    for name in names {
        let (ks, state) = client.open_keyspace(&name).expect("open");
        assert_eq!(state, KeyspaceState::Compacted);
        let scan = ks
            .range(Bound::Unbounded, Bound::Unbounded, None)
            .expect("range");
        assert_eq!(scan.len() as u32, PAIRS, "{name}: lost pairs");
        for (k, v) in &scan {
            assert_eq!(v, &value_for(k), "{name}: torn pair {k:?}");
        }
    }
}
