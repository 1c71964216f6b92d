//! RocksDB-analog (software LSM) experiment runners.

use std::sync::Arc;

use kvcsd_blockfs::BlockFs;
use kvcsd_lsm::{CompactionMode, Db, Options};
use kvcsd_sim::LedgerSnapshot;
use kvcsd_workloads::{GetWorkload, PutWorkload};

use crate::testbed::Testbed;

/// A loaded software-LSM baseline, ready for queries.
pub struct LoadedBaseline {
    pub fs: Arc<BlockFs>,
    pub dbs: Vec<Arc<Db>>,
    /// Host-visible insertion time, *including* compaction work/waits, as
    /// the paper reports for RocksDB.
    pub insert_s: f64,
    /// Ledger work during the insert phase.
    pub insert_work: LedgerSnapshot,
}

/// LSM options scaled to the experiment's per-DB data volume so flushes
/// and compactions occur at paper-like relative frequency (32M keys vs a
/// 64 MB memtable is ~24 flushes; we preserve that ratio).
pub fn scaled_options(per_db_bytes: u64, mode: CompactionMode) -> Options {
    let memtable = (per_db_bytes / 24).clamp(48 << 10, 64 << 20) as usize;
    Options {
        memtable_bytes: memtable,
        level_base_bytes: (memtable as u64) * 4,
        target_file_bytes: memtable,
        compaction: mode,
        ..Options::default()
    }
}

/// Insert the workload into `n_dbs` database instances with `threads`
/// pinned host threads (sharing a freshly formatted filesystem), in the
/// given compaction mode. Deferred mode runs its single-pass
/// `compact_all` at the end of the insert phase — the host pays for it,
/// exactly as Figure 9 measures.
pub fn load(
    tb: &mut Testbed,
    threads: u32,
    n_dbs: u32,
    workload: &PutWorkload,
    mode: CompactionMode,
) -> LoadedBaseline {
    let per_db_bytes = workload.keys * (workload.key_bytes + workload.value_bytes) as u64;
    let fs = tb.blockfs(per_db_bytes * n_dbs as u64);
    let opts = scaled_options(per_db_bytes, mode);
    let dbs: Vec<Arc<Db>> = (0..n_dbs)
        .map(|i| {
            Arc::new(
                Db::open(Arc::clone(&fs), &format!("db{i:04}/"), opts.clone()).expect("open db"),
            )
        })
        .collect();

    let before = tb.ledger.snapshot();
    tb.runner.foreground("lsm-insert", threads, || {
        if n_dbs == 1 {
            for t in 0..threads {
                for (k, v) in workload.shard(t as u64, threads as u64) {
                    dbs[0].put(&k, &v).expect("put");
                }
            }
        } else {
            for (t, db) in dbs.iter().enumerate() {
                let wl = PutWorkload::new(
                    workload.keys,
                    workload.key_bytes,
                    workload.value_bytes,
                    (0x1000_0000u64 * (t as u64 + 1)) ^ workload.key(0)[0] as u64,
                );
                for (k, v) in wl.shard(0, 1) {
                    db.put(&k, &v).expect("put");
                }
            }
        }
        match mode {
            CompactionMode::Automatic => {
                // Flush the tail and let any outstanding triggers drain:
                // "our test program will wait until all compaction work
                // concludes before exiting".
                for db in &dbs {
                    db.flush().expect("flush");
                    db.compact().expect("final compaction wait");
                }
            }
            CompactionMode::Deferred => {
                // "compaction is done in a single pass at the end".
                for db in &dbs {
                    db.compact_all().expect("deferred compaction");
                }
            }
            CompactionMode::Disabled => {
                for db in &dbs {
                    db.flush().expect("flush");
                }
            }
        }
    });
    let insert_work = tb.ledger.snapshot().since(&before);
    let insert_s = tb.runner.last_elapsed_s();

    LoadedBaseline {
        fs,
        dbs,
        insert_s,
        insert_work,
    }
}

/// Random GET phase against the loaded baseline. Each phase models a
/// fresh query run as the paper does: the OS page cache is dropped ("we
/// clean OS page cache at the beginning of each run") and the in-process
/// block cache starts cold (a new reader process). Warm-up *within* the
/// run is the paper's "aggressive client-side caching" effect — it grows
/// with the query count because more queries share data blocks.
pub fn get_phase(
    tb: &mut Testbed,
    loaded: &LoadedBaseline,
    threads: u32,
    queries_per_thread: u64,
    workload: &PutWorkload,
    seed: u64,
) -> (f64, LedgerSnapshot) {
    loaded.fs.drop_caches();
    for db in &loaded.dbs {
        db.block_cache().lock().clear();
    }
    let before = tb.ledger.snapshot();
    tb.runner.foreground("lsm-get", threads, || {
        for t in 0..threads {
            let db = &loaded.dbs[t as usize % loaded.dbs.len()];
            let wl = if loaded.dbs.len() == 1 {
                workload.clone()
            } else {
                PutWorkload::new(
                    workload.keys,
                    workload.key_bytes,
                    workload.value_bytes,
                    (0x1000_0000u64 * (t as u64 % loaded.dbs.len() as u64 + 1))
                        ^ workload.key(0)[0] as u64,
                )
            };
            let mut gets = GetWorkload::new(workload.keys, seed ^ (t as u64) << 32);
            for _ in 0..queries_per_thread {
                let i = gets.next_index();
                let v = db.get(&wl.key(i)).expect("get");
                debug_assert!(v.is_some(), "inserted key must be found");
            }
        }
    });
    (
        tb.runner.last_elapsed_s(),
        tb.ledger.snapshot().since(&before),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn automatic_mode_loads_and_queries() {
        let mut tb = Testbed::new();
        let wl = PutWorkload::paper_micro(2_000, 21);
        let loaded = load(&mut tb, 2, 1, &wl, CompactionMode::Automatic);
        assert!(loaded.insert_s > 0.0);
        assert!(loaded.dbs[0].stats().flushes > 0);
        let (get_s, work) = get_phase(&mut tb, &loaded, 2, 50, &wl, 3);
        assert!(get_s > 0.0);
        assert!(work.nand_read_pages > 0, "cold cache reads hit the device");
    }

    #[test]
    fn deferred_mode_compacts_once_at_end() {
        let mut tb = Testbed::new();
        let wl = PutWorkload::paper_micro(2_000, 23);
        let loaded = load(&mut tb, 1, 1, &wl, CompactionMode::Deferred);
        let s = loaded.dbs[0].stats();
        assert_eq!(s.compactions, 1, "deferred = exactly one full pass");
    }

    #[test]
    fn mode_ordering_matches_paper() {
        // Insert time: automatic > deferred > disabled (Fig 9).
        let wl = PutWorkload::paper_micro(4_000, 25);
        let t_auto = {
            let mut tb = Testbed::new();
            load(&mut tb, 2, 2, &wl, CompactionMode::Automatic).insert_s
        };
        let t_defer = {
            let mut tb = Testbed::new();
            load(&mut tb, 2, 2, &wl, CompactionMode::Deferred).insert_s
        };
        let t_none = {
            let mut tb = Testbed::new();
            load(&mut tb, 2, 2, &wl, CompactionMode::Disabled).insert_s
        };
        assert!(t_auto > t_defer, "auto {t_auto} vs deferred {t_defer}");
        assert!(t_defer > t_none, "deferred {t_defer} vs disabled {t_none}");
    }

    #[test]
    fn per_thread_db_instances() {
        let mut tb = Testbed::new();
        let wl = PutWorkload::paper_micro(500, 27);
        let loaded = load(&mut tb, 4, 4, &wl, CompactionMode::Automatic);
        assert_eq!(loaded.dbs.len(), 4);
        for db in &loaded.dbs {
            assert!(db.stats().puts == 500);
        }
    }
}
