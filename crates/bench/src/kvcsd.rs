//! KV-CSD experiment runners.

use std::sync::Arc;

use kvcsd_client::{Keyspace, KvCsd};
use kvcsd_core::KvCsdDevice;
use kvcsd_sim::LedgerSnapshot;
use kvcsd_workloads::{GetWorkload, PutWorkload};

use crate::testbed::Testbed;

/// A loaded (inserted + compacted) KV-CSD, ready for queries.
pub struct LoadedKvcsd {
    pub dev: Arc<KvCsdDevice>,
    pub client: KvCsd,
    pub keyspaces: Vec<Keyspace>,
    /// Host-visible insertion time (bulk puts + compaction *invocation*).
    pub insert_s: f64,
    /// Device-background compaction time (hidden from the host).
    pub compact_s: f64,
    /// Ledger work during the insert phase only.
    pub insert_work: LedgerSnapshot,
}

/// Insert `workload`-shaped data into `n_keyspaces` keyspaces using
/// `threads` pinned host threads, then invoke deferred compaction.
///
/// * `n_keyspaces == 1`: all threads share one keyspace, each loading an
///   interleaved shard (Figure 7/8 shape).
/// * `n_keyspaces == threads`: thread `t` loads its own keyspace with the
///   full workload re-seeded per keyspace (Figure 9/10 shape).
pub fn load(
    tb: &mut Testbed,
    threads: u32,
    n_keyspaces: u32,
    workload: &PutWorkload,
    bulk: bool,
) -> LoadedKvcsd {
    let per_ks_bytes = workload.keys * (workload.key_bytes + workload.value_bytes) as u64;
    let capacity = per_ks_bytes * n_keyspaces as u64;
    // SoC DRAM scales with the dataset as the paper's 8 GB does with its
    // 1.5 GB-per-keyspace dumps (sort memory is the scarce resource).
    let soc_dram = (capacity / 2).clamp(8 << 20, 2 << 30);
    let (dev, client) = tb.kvcsd(capacity, soc_dram, n_keyspaces);

    let keyspaces: Vec<Keyspace> = (0..n_keyspaces)
        .map(|i| {
            client
                .create_keyspace(&format!("ks{i:04}"))
                .expect("create keyspace")
        })
        .collect();

    let before = tb.ledger.snapshot();
    tb.runner.foreground("kvcsd-insert", threads, || {
        if n_keyspaces == 1 {
            let ks = &keyspaces[0];
            for t in 0..threads {
                if bulk {
                    let acc = ks.write_accelerator();
                    for (k, v) in workload.shard(t as u64, threads as u64) {
                        acc.put(&k, &v).expect("bulk put");
                    }
                    acc.flush().expect("bulk flush");
                } else {
                    for (k, v) in workload.shard(t as u64, threads as u64) {
                        ks.put(&k, &v).expect("put");
                    }
                }
            }
        } else {
            for (t, ks) in keyspaces.iter().enumerate() {
                let wl = PutWorkload::new(
                    workload.keys,
                    workload.key_bytes,
                    workload.value_bytes,
                    // Distinct data per keyspace.
                    (0x1000_0000u64 * (t as u64 + 1)) ^ workload.key(0)[0] as u64,
                );
                if bulk {
                    let acc = ks.write_accelerator();
                    for (k, v) in wl.shard(0, 1) {
                        acc.put(&k, &v).expect("bulk put");
                    }
                    acc.flush().expect("bulk flush");
                } else {
                    for (k, v) in wl.shard(0, 1) {
                        ks.put(&k, &v).expect("put");
                    }
                }
            }
        }
        // "Once all keys are inserted, we invoke KV-CSD's background
        // compaction process and exit" — the invocation is cheap and
        // counted in the host-visible time.
        for ks in &keyspaces {
            ks.compact().expect("compact invocation");
        }
    });
    let insert_work = tb.ledger.snapshot().since(&before);
    let insert_s = tb.runner.last_elapsed_s();

    tb.runner.background("kvcsd-compaction", || {
        dev.run_pending_jobs();
    });
    let compact_s = tb.runner.last_elapsed_s();

    LoadedKvcsd {
        dev,
        client,
        keyspaces,
        insert_s,
        compact_s,
        insert_work,
    }
}

/// Run `queries_per_thread` random GETs per thread, thread `t` targeting
/// keyspace `t % keyspaces` (Figure 10 shape). Returns `(elapsed seconds,
/// phase work)`.
pub fn get_phase(
    tb: &mut Testbed,
    loaded: &LoadedKvcsd,
    threads: u32,
    queries_per_thread: u64,
    workload: &PutWorkload,
    seed: u64,
) -> (f64, LedgerSnapshot) {
    let before = tb.ledger.snapshot();
    tb.runner.foreground("kvcsd-get", threads, || {
        for t in 0..threads {
            let ks = &loaded.keyspaces[t as usize % loaded.keyspaces.len()];
            // Regenerate the per-keyspace workload to know its keys.
            let wl = if loaded.keyspaces.len() == 1 {
                workload.clone()
            } else {
                PutWorkload::new(
                    workload.keys,
                    workload.key_bytes,
                    workload.value_bytes,
                    (0x1000_0000u64 * (t as u64 % loaded.keyspaces.len() as u64 + 1))
                        ^ workload.key(0)[0] as u64,
                )
            };
            let mut gets = GetWorkload::new(workload.keys, seed ^ (t as u64) << 32);
            for _ in 0..queries_per_thread {
                let i = gets.next_index();
                let v = ks.get(&wl.key(i)).expect("get");
                debug_assert!(!v.is_empty());
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
    fn load_shared_keyspace_and_query() {
        let mut tb = Testbed::new();
        let wl = PutWorkload::paper_micro(2_000, 11);
        let loaded = load(&mut tb, 4, 1, &wl, true);
        assert!(loaded.insert_s > 0.0);
        assert!(
            loaded.compact_s > 0.0,
            "deferred compaction happens in background"
        );
        let stat = loaded.keyspaces[0].stat().unwrap();
        assert_eq!(stat.num_pairs, 2_000);
        let (get_s, work) = get_phase(&mut tb, &loaded, 4, 50, &wl, 99);
        assert!(get_s > 0.0);
        assert!(work.nand_read_pages > 0);
    }

    #[test]
    fn load_multi_keyspace() {
        let mut tb = Testbed::new();
        let wl = PutWorkload::paper_micro(500, 13);
        let loaded = load(&mut tb, 4, 4, &wl, true);
        assert_eq!(loaded.keyspaces.len(), 4);
        for ks in &loaded.keyspaces {
            assert_eq!(ks.stat().unwrap().num_pairs, 500);
        }
        // Keyspaces hold distinct data.
        let (g, _) = get_phase(&mut tb, &loaded, 4, 20, &wl, 5);
        assert!(g > 0.0);
    }

    #[test]
    fn compaction_is_hidden_from_host_clock() {
        let mut tb = Testbed::new();
        let wl = PutWorkload::paper_micro(3_000, 17);
        let loaded = load(&mut tb, 2, 1, &wl, true);
        // Foreground clock advanced only by the insert phase.
        assert!((tb.runner.now_secs() - loaded.insert_s).abs() < 1e-9);
        assert!(tb.runner.background_secs() >= loaded.compact_s * 0.99);
    }

    #[test]
    fn bulk_beats_single_puts() {
        let wl = PutWorkload::paper_micro(2_000, 19);
        let mut tb_bulk = Testbed::new();
        let bulk = load(&mut tb_bulk, 1, 1, &wl, true);
        let mut tb_single = Testbed::new();
        let single = load(&mut tb_single, 1, 1, &wl, false);
        assert!(
            single.insert_s > 2.0 * bulk.insert_s,
            "single puts {:.6}s vs bulk {:.6}s",
            single.insert_s,
            bulk.insert_s
        );
    }
}
