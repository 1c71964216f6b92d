//! The VPIC macro benchmark (Figures 11 and 12).
//!
//! Write phase: 16 loader threads read the (synthetic) particle dump's 16
//! file shards and insert one key-value pair per particle — particle IDs
//! as keys, the 32 B payload as values — into a per-thread keyspace or DB
//! instance. KV-CSD offloads compaction and energy-index construction;
//! the RocksDB analog inserts auxiliary `energy -> id` pairs inline and
//! compacts as it goes.
//!
//! Query phase: energy-threshold range queries at selectivities from
//! 0.1 % to 20 %. KV-CSD answers in one device-side secondary-index
//! query that streams back full particles; the baseline runs the paper's
//! two-step process — scan the auxiliary namespace for IDs, then point-GET
//! every matching particle.

use std::sync::Arc;

use kvcsd_client::{Keyspace, KvCsd};
use kvcsd_core::KvCsdDevice;
use kvcsd_lsm::{aux_key, primary_key, CompactionMode, Db};
use kvcsd_proto::{Bound, SecondaryIndexSpec, SecondaryKeyType, SidxKey};
use kvcsd_sim::LedgerSnapshot;
use kvcsd_workloads::vpic::{VpicDump, ENERGY_OFFSET};

use crate::baseline::scaled_options;
use crate::testbed::Testbed;

/// Name of the energy secondary index.
pub const ENERGY_INDEX: &str = "energy";

fn energy_spec() -> SecondaryIndexSpec {
    SecondaryIndexSpec {
        name: ENERGY_INDEX.into(),
        value_offset: ENERGY_OFFSET,
        value_len: 4,
        key_type: SecondaryKeyType::F32,
    }
}

// ---------------------------------------------------------------------------
// KV-CSD side
// ---------------------------------------------------------------------------

/// A loaded KV-CSD VPIC dataset.
pub struct VpicKvcsd {
    pub dev: Arc<KvCsdDevice>,
    pub client: KvCsd,
    pub keyspaces: Vec<Keyspace>,
    /// Host-visible write time.
    pub write_s: f64,
    /// Device-background compaction time.
    pub compact_s: f64,
    /// Device-background secondary-index build time.
    pub index_s: f64,
    pub write_work: LedgerSnapshot,
}

/// Write phase on KV-CSD: load, invoke compaction, build the energy index.
pub fn load_kvcsd(tb: &mut Testbed, dump: &VpicDump) -> VpicKvcsd {
    let data_bytes = dump.particles * 48;
    let soc_dram = (data_bytes / 2).clamp(8 << 20, 2 << 30);
    let (dev, client) = tb.kvcsd(data_bytes, soc_dram, dump.files);
    let keyspaces: Vec<Keyspace> = (0..dump.files)
        .map(|f| {
            client
                .create_keyspace(&format!("vpic{f:02}"))
                .expect("create")
        })
        .collect();

    let before = tb.ledger.snapshot();
    tb.runner.foreground("vpic-write", dump.files, || {
        for (f, ks) in (0..dump.files).zip(&keyspaces) {
            let acc = ks.write_accelerator();
            for p in dump.shard(f) {
                acc.put(&p.id, &p.payload()).expect("bulk put");
            }
            acc.flush().expect("flush");
        }
        for ks in &keyspaces {
            ks.compact().expect("compact invocation");
        }
    });
    let write_work = tb.ledger.snapshot().since(&before);
    let write_s = tb.runner.last_elapsed_s();

    tb.runner.background("vpic-compaction", || {
        dev.run_pending_jobs();
    });
    let compact_s = tb.runner.last_elapsed_s();

    // Index construction is requested after compaction completes and also
    // runs in the device background.
    for ks in &keyspaces {
        ks.build_secondary_index(energy_spec())
            .expect("sidx request");
    }
    tb.runner.background("vpic-indexing", || {
        dev.run_pending_jobs();
    });
    let index_s = tb.runner.last_elapsed_s();

    VpicKvcsd {
        dev,
        client,
        keyspaces,
        write_s,
        compact_s,
        index_s,
        write_work,
    }
}

/// Query phase on KV-CSD: `energy > threshold` across all keyspaces, 16
/// query threads, device-side secondary-index ranges.
pub fn query_kvcsd(
    tb: &mut Testbed,
    loaded: &VpicKvcsd,
    threshold: f32,
) -> (f64, u64, LedgerSnapshot) {
    let before = tb.ledger.snapshot();
    let mut total_hits = 0u64;
    tb.runner
        .foreground("vpic-kvcsd-query", loaded.keyspaces.len() as u32, || {
            for ks in &loaded.keyspaces {
                let es = ks
                    .sidx_range(
                        ENERGY_INDEX,
                        Bound::Excluded(SidxKey::F32(threshold).encode()),
                        Bound::Unbounded,
                        None,
                    )
                    .expect("sidx range");
                total_hits += es.len() as u64;
            }
        });
    (
        tb.runner.last_elapsed_s(),
        total_hits,
        tb.ledger.snapshot().since(&before),
    )
}

// ---------------------------------------------------------------------------
// Baseline side
// ---------------------------------------------------------------------------

/// A loaded baseline VPIC dataset.
pub struct VpicBaseline {
    pub dbs: Vec<Arc<Db>>,
    pub fs: Arc<kvcsd_blockfs::BlockFs>,
    /// Host-visible write time including compaction of both indexes.
    pub write_s: f64,
    pub write_work: LedgerSnapshot,
}

/// Write phase on the software baseline: primary + auxiliary pairs with
/// inline automatic compaction, per-thread DB instances.
pub fn load_baseline(tb: &mut Testbed, dump: &VpicDump) -> VpicBaseline {
    // Each particle becomes ~2 pairs (primary + aux).
    let per_db_bytes = (dump.particles / dump.files as u64) * 48 * 2;
    let fs = tb.blockfs(per_db_bytes * dump.files as u64);
    let opts = scaled_options(per_db_bytes, CompactionMode::Automatic);
    let dbs: Vec<Arc<Db>> = (0..dump.files)
        .map(|f| {
            Arc::new(Db::open(Arc::clone(&fs), &format!("vpic{f:02}/"), opts.clone()).unwrap())
        })
        .collect();

    let before = tb.ledger.snapshot();
    tb.runner.foreground("vpic-lsm-write", dump.files, || {
        for (f, db) in (0..dump.files).zip(&dbs) {
            for p in dump.shard(f) {
                let payload = p.payload();
                db.put(&primary_key(&p.id), &payload).expect("primary put");
                // "These auxiliary key-value pairs use particle energies
                // as keys and particle IDs as values."
                let enc = SidxKey::F32(p.energy()).encode();
                db.put(&aux_key(&enc, &p.id), &p.id).expect("aux put");
            }
        }
        // "We report data insertion time as well as additional wait time
        // due to RocksDB compaction, which covers both indexes."
        for db in &dbs {
            db.flush().expect("flush");
            db.compact().expect("compaction wait");
        }
    });
    let write_work = tb.ledger.snapshot().since(&before);
    let write_s = tb.runner.last_elapsed_s();

    VpicBaseline {
        dbs,
        fs,
        write_s,
        write_work,
    }
}

/// Query phase on the baseline: the paper's two-step read. Each call
/// models a fresh reader run: OS page cache dropped, block cache cold;
/// caching *within* the run is what favours less selective queries.
/// Returns `(elapsed, hits, work)`.
pub fn query_baseline(
    tb: &mut Testbed,
    loaded: &VpicBaseline,
    threshold: f32,
) -> (f64, u64, LedgerSnapshot) {
    loaded.fs.drop_caches();
    for db in &loaded.dbs {
        db.block_cache().lock().clear();
    }
    let before = tb.ledger.snapshot();
    let mut total_hits = 0u64;
    tb.runner
        .foreground("vpic-lsm-query", loaded.dbs.len() as u32, || {
            for db in &loaded.dbs {
                // Step 1: scan the auxiliary namespace for matching IDs.
                let lo = aux_key(&SidxKey::F32(threshold).encode(), &[]);
                let ids: Vec<Vec<u8>> = db
                    .scan(&lo, &[], None)
                    .expect("aux scan")
                    .into_iter()
                    .map(|(_, id)| id)
                    .collect();
                // Step 2: point-GET each full particle by primary key.
                for id in ids {
                    let rec = db.get(&primary_key(&id)).expect("primary get");
                    debug_assert!(rec.is_some());
                    total_hits += 1;
                }
            }
        });
    (
        tb.runner.last_elapsed_s(),
        total_hits,
        tb.ledger.snapshot().since(&before),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_systems_agree_on_query_results() {
        let dump = VpicDump::new(4_000, 4, 99);
        let mut tb_k = Testbed::new();
        let k = load_kvcsd(&mut tb_k, &dump);
        let mut tb_b = Testbed::new();
        let b = load_baseline(&mut tb_b, &dump);

        for sel in [0.01, 0.2] {
            let t = dump.energy_threshold(sel);
            let (_, hits_k, _) = query_kvcsd(&mut tb_k, &k, t);
            let (_, hits_b, _) = query_baseline(&mut tb_b, &b, t);
            assert_eq!(hits_k, hits_b, "selectivity {sel}");
            assert!(hits_k > 0);
            // Sanity: approximately sel * particles.
            let got_sel = hits_k as f64 / dump.particles as f64;
            assert!((got_sel - sel).abs() / sel < 0.5, "sel {sel} got {got_sel}");
        }
    }

    #[test]
    fn kvcsd_write_phase_defers_heavy_work() {
        let dump = VpicDump::new(3_000, 4, 101);
        let mut tb = Testbed::new();
        let k = load_kvcsd(&mut tb, &dump);
        assert!(
            k.compact_s + k.index_s > k.write_s,
            "offloaded work dominates"
        );
        // All keyspaces ended COMPACTED with the index present.
        for ks in &k.keyspaces {
            let stat = ks.stat().unwrap();
            assert_eq!(stat.secondary_indexes, vec![ENERGY_INDEX.to_string()]);
        }
    }

    #[test]
    fn baseline_pays_for_everything_in_line() {
        let dump = VpicDump::new(2_000, 2, 103);
        let mut tb_k = Testbed::new();
        let k = load_kvcsd(&mut tb_k, &dump);
        let mut tb_b = Testbed::new();
        let b = load_baseline(&mut tb_b, &dump);
        assert!(
            b.write_s > 2.0 * k.write_s,
            "baseline effective write {:.4}s must dwarf KV-CSD {:.4}s",
            b.write_s,
            k.write_s
        );
    }
}
