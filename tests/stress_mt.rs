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

mod contract;

use std::sync::Arc;
use std::thread;

use contract::{connect, found, tail_index, value_for, Contract};
use kvcsd::device::{DeviceConfig, DeviceStack, KvCsdDevice};
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::{Bound, JobState, KvStatus};
use kvcsd::sim::sync::{spawn, Mutex, Shared};
use kvcsd_client::{ClientError, KvCsd};

const WRITERS: usize = 3;
const READERS: usize = 2;
const KEYSPACES_PER_WRITER: usize = 2;
const PAIRS: u32 = 160;
const SYNC_EVERY: u32 = 40;
/// Values carry the secondary index's trailing f32, so readers can check
/// any pair they observe without coordinating with its writer.
const VALUE_LEN: usize = 32;

fn key_for(writer: usize, ks: usize, i: u32) -> Vec<u8> {
    format!("w{writer}s{ks}k{i:05}").into_bytes()
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
    (Arc::clone(stack.device()), connect(&stack))
}

/// One writer's life: for each of its keyspaces, ingest with periodic
/// fsync, compact with a secondary index, wait for the job runner to
/// finish it, read back every pair through all three query paths, then
/// publish its model for the readers.
fn writer(writer_ix: usize, client: KvCsd, published: Arc<Mutex<Contract>>) {
    for ks_ix in 0..KEYSPACES_PER_WRITER {
        let name = format!("stress-w{writer_ix}-{ks_ix}");
        let mut model = Contract::default();
        let ks = client.create_keyspace(&name).expect("create");
        for i in 0..PAIRS {
            let k = key_for(writer_ix, ks_ix, i);
            let v = value_for(&k, VALUE_LEN);
            ks.put(&k, &v).expect("put");
            model.put(&name, &k, &v);
            if i % SYNC_EVERY == SYNC_EVERY - 1 {
                ks.fsync().expect("fsync");
                model.sync(&name);
            }
        }
        ks.fsync().expect("final fsync");
        model.sync(&name);

        let job = ks
            .compact_with_indexes(vec![tail_index(VALUE_LEN)])
            .expect("compact");
        loop {
            match job.poll().expect("poll") {
                JobState::Done => break,
                JobState::Failed(e) => panic!("{name}: compaction failed: {e}"),
                _ => thread::yield_now(),
            }
        }
        model.seal(&name);

        model.check_all(&name, &ks);
        let mut via_sidx = ks
            .sidx_range("tail", Bound::Unbounded, Bound::Unbounded, None)
            .expect("sidx_range");
        via_sidx.sort();
        model.check_scan(&name, &via_sidx);

        published.lock().adopt(model);
    }
}

/// Readers chase the writers: open whatever has been published, and
/// check every pair they can see against its model.
fn reader(client: KvCsd, published: Arc<Mutex<Contract>>, stop: Arc<Shared<bool>>) {
    let mut sweeps = 0u32;
    while !stop.get() || sweeps == 0 {
        let mut model = published.lock().clone();
        for name in model.keyspaces() {
            let (ks, state) = client.open_keyspace(&name).expect("open");
            model.check_state(&name, Some(state));
            let limit = Some(32);
            let sample = ks
                .range(Bound::Unbounded, Bound::Unbounded, limit)
                .expect("range");
            model.check_range(&name, &Bound::Unbounded, &Bound::Unbounded, limit, &sample);
            let (k, _) = &sample[sweeps as usize % sample.len()];
            let got = found(ks.get(k)).unwrap();
            model.check_get(&name, k, got.as_deref());
            let none = ks
                .range(Bound::Unbounded, Bound::Unbounded, Some(0))
                .expect("range");
            model.check_range(&name, &Bound::Unbounded, &Bound::Unbounded, Some(0), &none);
            assert!(none.is_empty(), "{name}: limit 0 answered {none:?}");
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
    let published = Arc::new(Mutex::new(Contract::default()));

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
    let mut model = published.lock().clone();
    let names = model.keyspaces();
    assert_eq!(names.len(), WRITERS * KEYSPACES_PER_WRITER);
    for name in names {
        let (ks, state) = client.open_keyspace(&name).expect("open");
        model.check_state(&name, Some(state));
        model.check_all(&name, &ks);
    }
}

/// Accelerator bulks racing a COMPACT of their keyspace. Each flush ships
/// one bulk, and the device writes a bulk under one hold of the keyspace
/// lock, so a bulk either lands whole before the seal or is turned away
/// whole with `BadKeyspaceState`: never an internal error, never a sealed
/// prefix.
#[test]
fn bulks_racing_compact_land_whole_or_not_at_all() {
    const BULK_WRITERS: usize = 3;
    const BULKS: u32 = 60;
    const BULK_PAIRS: u32 = 12;
    let (dev, client) = build_stack();
    let name = "race";
    let ks = client.create_keyspace(name).expect("create");
    let acked = Arc::new(Shared::new(0u32));

    let writers: Vec<_> = (0..BULK_WRITERS)
        .map(|w| {
            let ks = ks.clone();
            let acked = Arc::clone(&acked);
            spawn(move || {
                let acc = ks.write_accelerator();
                let mut landed = Vec::new();
                for b in 0..BULKS {
                    let bulk: Vec<Vec<u8>> = (0..BULK_PAIRS)
                        .map(|i| format!("w{w}b{b:03}k{i:02}").into_bytes())
                        .collect();
                    for k in &bulk {
                        acc.put(k, &value_for(k, VALUE_LEN)).expect("stage");
                    }
                    match acc.flush() {
                        Ok(_) => {
                            landed.extend(bulk);
                            acked.update(|n| *n += 1);
                        }
                        Err(ClientError::Device(KvStatus::BadKeyspaceState { .. })) => break,
                        Err(e) => panic!("writer {w}, bulk {b}: {e}"),
                    }
                }
                landed
            })
        })
        .collect();

    // Compact once a few bulks have landed, while the writers keep going.
    for _ in 0..1_000_000 {
        if acked.get() >= 4 {
            break;
        }
        thread::yield_now();
    }
    ks.compact().expect("compact");
    let mut model = Contract::default();
    model.create(name);
    for w in writers {
        for k in w.join().expect("writer panicked") {
            model.put(name, &k, &value_for(&k, VALUE_LEN));
        }
    }
    model.seal(name);
    dev.run_pending_jobs();

    let (ks, state) = client.open_keyspace(name).expect("open");
    model.check_state(name, Some(state));
    // Every landed bulk is there whole, and no pair of a refused bulk is.
    model.check_all(name, &ks);
}
