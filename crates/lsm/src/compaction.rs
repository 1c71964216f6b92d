//! Leveled compaction: picking and running.
//!
//! Picking follows RocksDB's defaults: L0 compacts into L1 when it
//! accumulates `l0_compaction_trigger` files (all L0 files participate,
//! because they overlap); Ln compacts into Ln+1 when its byte size
//! exceeds the level target, taking one source table plus the next-level
//! tables it overlaps. Running a compaction is a K-way merge that writes
//! fresh tables split at `target_file_bytes`, dropping older duplicate
//! versions always and tombstones when the output is the bottom of the
//! tree.

use std::sync::Arc;

use kvcsd_blockfs::BlockFs;
use kvcsd_sim::config::CostModel;

use crate::error::LsmError;
use crate::iterator::{MergeIter, Source};
use crate::options::Options;
use crate::sstable::{BlockCache, Entry, Table, TableBuilder};
use crate::version::Version;
use crate::Result;

/// A unit of compaction work.
#[derive(Debug)]
pub struct CompactionTask {
    /// Source level (0 means L0 -> L1).
    pub src_level: usize,
    /// Level the output lands in.
    pub target_level: usize,
    /// Input tables from the source level, newest first.
    pub inputs_upper: Vec<Arc<Table>>,
    /// Overlapping input tables from the target level, key order.
    pub inputs_lower: Vec<Arc<Table>>,
}

impl CompactionTask {
    /// Total input bytes (the work size).
    pub fn input_bytes(&self) -> u64 {
        self.inputs_upper
            .iter()
            .chain(&self.inputs_lower)
            .map(|t| t.file_bytes)
            .sum()
    }
}

/// Choose the next compaction, if the tree needs one.
pub fn pick(version: &Version, opts: &Options) -> Option<CompactionTask> {
    // L0 first: file-count trigger.
    if version.l0.len() >= opts.l0_compaction_trigger {
        let inputs_upper = version.l0.clone();
        let first = inputs_upper
            .iter()
            .map(|t| t.first_key.clone())
            .min()
            .unwrap_or_default();
        let last = inputs_upper
            .iter()
            .map(|t| t.last_key.clone())
            .max()
            .unwrap_or_default();
        let inputs_lower = version.overlapping(1, &first, &last);
        return Some(CompactionTask {
            src_level: 0,
            target_level: 1,
            inputs_upper,
            inputs_lower,
        });
    }
    // Size triggers for L1..L(max-1).
    for level in 1..version.levels.len() {
        if version.level_bytes(level) > opts.level_target_bytes(level) {
            // Take the first table (simple cursor-less policy).
            let table = version.levels[level - 1].first()?.clone();
            let inputs_lower = version.overlapping(level + 1, &table.first_key, &table.last_key);
            return Some(CompactionTask {
                src_level: level,
                target_level: level + 1,
                inputs_upper: vec![table],
                inputs_lower,
            });
        }
    }
    None
}

/// Execute a compaction merge, returning the freshly written tables.
///
/// `next_id` supplies table file ids; `is_bottom` enables tombstone
/// elision (safe only when no older data exists below the target level).
#[allow(clippy::too_many_arguments)]
pub fn run(
    fs: &BlockFs,
    cost: &CostModel,
    cache: &BlockCache,
    opts: &Options,
    prefix: &str,
    task: &CompactionTask,
    next_id: impl FnMut() -> u64,
    is_bottom: bool,
) -> Result<Vec<Table>> {
    let sources = table_sources(
        fs,
        cost,
        cache,
        &task.inputs_upper,
        std::slice::from_ref(&task.inputs_lower),
    );
    merge_to_tables(fs, cost, opts, prefix, sources, next_id, is_bottom)
}

/// Whole-table merge sources for [`run`] and [`crate::Db::compact_all`]:
/// each table of `overlapping` (newest first) is its own source, and
/// each non-empty sorted run in `runs` is one chained source. A table's
/// entries are read — with every I/O charge — into memory when the
/// merge first needs them: the overlapping tables up front, a run's
/// tables one at a time. At simulation scale that keeps lifetimes
/// simple while preserving every ledger charge and block-cache hit.
pub(crate) fn table_sources<'a>(
    fs: &'a BlockFs,
    cost: &'a CostModel,
    cache: &'a BlockCache,
    overlapping: &[Arc<Table>],
    runs: &[Vec<Arc<Table>>],
) -> Vec<Source<'a>> {
    let owned = move |t: &Table| {
        t.iter(fs, cost, cache)
            .collect::<Vec<Result<Entry>>>()
            .into_iter()
    };
    let mut sources: Vec<Source<'a>> = Vec::new();
    for t in overlapping {
        sources.push(Box::new(owned(t)));
    }
    for run in runs.iter().filter(|r| !r.is_empty()) {
        let run = run.clone();
        sources.push(Box::new(run.into_iter().flat_map(move |t| owned(&t))));
    }
    sources
}

/// Merge arbitrary sorted sources (newest first) into fresh tables split
/// at `target_file_bytes`. Shared by level compaction ([`run`]) and full
/// compaction ([`crate::Db::compact_all`]).
pub fn merge_to_tables(
    fs: &BlockFs,
    cost: &CostModel,
    opts: &Options,
    prefix: &str,
    sources: Vec<Source<'_>>,
    mut next_id: impl FnMut() -> u64,
    is_bottom: bool,
) -> Result<Vec<Table>> {
    let n_sources = sources.len().max(2);
    let merge = MergeIter::new(sources);

    let ledger = fs.device().nand().ledger();
    let mut out: Vec<Table> = Vec::new();
    let mut builder: Option<TableBuilder<'_>> = None;
    let mut builder_bytes = 0usize;
    for item in merge {
        let e = item?;
        ledger.charge_host_cpu(cost.key_cmp_ns * (n_sources as f64).log2());
        if is_bottom && e.value.is_none() {
            continue; // tombstone has nothing left to shadow
        }
        if builder.is_none() {
            let id = next_id();
            let path = format!("{prefix}{id:06}.sst");
            builder = Some(TableBuilder::create(
                fs,
                &path,
                id,
                opts.block_bytes,
                opts.restart_interval,
                opts.bloom_bits_per_key,
            )?);
            builder_bytes = 0;
        }
        let sz = e.key.len() + e.value.as_ref().map_or(0, Vec::len);
        let b = builder
            .as_mut()
            .ok_or_else(|| LsmError::Corruption("merge writer lost its builder".into()))?;
        b.add(&e.key, e.seq, e.value.as_deref())?;
        builder_bytes += sz;
        if builder_bytes >= opts.target_file_bytes {
            if let Some(full) = builder.take() {
                out.push(full.finish()?);
            }
        }
    }
    if let Some(b) = builder {
        out.push(b.finish()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::new_block_cache;
    use kvcsd_blockfs::FsConfig;
    use kvcsd_flash::{ConvConfig, ConventionalNamespace, FlashGeometry, NandArray};
    use kvcsd_sim::{HardwareSpec, IoLedger};

    fn fs() -> BlockFs {
        let geom = FlashGeometry {
            channels: 8,
            blocks_per_channel: 256,
            pages_per_block: 32,
            page_bytes: 4096,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        let dev = Arc::new(ConventionalNamespace::new(nand, ConvConfig::default()));
        BlockFs::format(dev, CostModel::default(), FsConfig::default())
    }

    fn build_table(
        fs: &BlockFs,
        id: u64,
        entries: Vec<(Vec<u8>, u64, Option<Vec<u8>>)>,
    ) -> Arc<Table> {
        let path = format!("{id:06}.sst");
        let mut b = TableBuilder::create(fs, &path, id, 4096, 16, 10).unwrap();
        for (k, s, v) in entries {
            b.add(&k, s, v.as_deref()).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn k(i: u32) -> Vec<u8> {
        format!("{i:06}").into_bytes()
    }

    #[test]
    fn pick_triggers_on_l0_files() {
        let fs = fs();
        let opts = Options::default();
        let mut v = Version::new(4);
        for id in 0..4 {
            v.l0.push(build_table(&fs, id, vec![(k(1), id, Some(vec![id as u8]))]));
        }
        let task = pick(&v, &opts).expect("4 L0 files must trigger");
        assert_eq!(task.src_level, 0);
        assert_eq!(task.target_level, 1);
        assert_eq!(task.inputs_upper.len(), 4);
        assert!(task.inputs_lower.is_empty());
        assert!(task.input_bytes() > 0);
    }

    #[test]
    fn pick_is_none_when_healthy() {
        let fs = fs();
        let opts = Options::default();
        let mut v = Version::new(4);
        v.l0.push(build_table(&fs, 1, vec![(k(1), 1, Some(vec![1]))]));
        assert!(pick(&v, &opts).is_none());
    }

    #[test]
    fn pick_includes_overlapping_lower_tables() {
        let fs = fs();
        let opts = Options::default();
        let mut v = Version::new(4);
        for id in 0..4 {
            v.l0.push(build_table(
                &fs,
                id,
                vec![
                    (k(10), 100 + id, Some(vec![1])),
                    (k(20), 200 + id, Some(vec![2])),
                ],
            ));
        }
        v.insert_sorted(1, build_table(&fs, 50, vec![(k(15), 1, Some(vec![9]))]));
        v.insert_sorted(1, build_table(&fs, 51, vec![(k(99), 1, Some(vec![9]))]));
        let task = pick(&v, &opts).unwrap();
        assert_eq!(
            task.inputs_lower.len(),
            1,
            "only the overlapping L1 table joins"
        );
        assert_eq!(task.inputs_lower[0].id, 50);
    }

    #[test]
    fn run_merges_newest_wins_and_sorted() {
        let fs = fs();
        let opts = Options::default();
        let cache = new_block_cache(1024);
        let cost = CostModel::default();
        let newer = build_table(&fs, 1, vec![(k(1), 10, Some(b"new".to_vec()))]);
        let older = build_table(
            &fs,
            2,
            vec![
                (k(0), 1, Some(b"a".to_vec())),
                (k(1), 2, Some(b"old".to_vec())),
            ],
        );
        let task = CompactionTask {
            src_level: 0,
            target_level: 1,
            inputs_upper: vec![newer, older],
            inputs_lower: vec![],
        };
        let mut id = 100u64;
        let out = run(
            &fs,
            &cost,
            &cache,
            &opts,
            "",
            &task,
            || {
                id += 1;
                id
            },
            false,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let t = &out[0];
        let got: Vec<Entry> = t.iter(&fs, &cost, &cache).map(|e| e.unwrap()).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].key, k(0));
        assert_eq!(got[1].value, Some(b"new".to_vec()));
    }

    #[test]
    fn bottom_level_drops_tombstones() {
        let fs = fs();
        let opts = Options::default();
        let cache = new_block_cache(1024);
        let cost = CostModel::default();
        let t = build_table(
            &fs,
            1,
            vec![(k(0), 5, None), (k(1), 6, Some(b"live".to_vec()))],
        );
        let task = CompactionTask {
            src_level: 1,
            target_level: 2,
            inputs_upper: vec![t],
            inputs_lower: vec![],
        };
        let mut id = 10u64;
        let out = run(
            &fs,
            &cost,
            &cache,
            &opts,
            "",
            &task,
            || {
                id += 1;
                id
            },
            true,
        )
        .unwrap();
        let got: Vec<Entry> = out[0]
            .iter(&fs, &cost, &cache)
            .map(|e| e.unwrap())
            .collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key, k(1));
    }

    #[test]
    fn non_bottom_keeps_tombstones() {
        let fs = fs();
        let opts = Options::default();
        let cache = new_block_cache(1024);
        let cost = CostModel::default();
        let t = build_table(&fs, 1, vec![(k(0), 5, None)]);
        let task = CompactionTask {
            src_level: 0,
            target_level: 1,
            inputs_upper: vec![t],
            inputs_lower: vec![],
        };
        let mut id = 10u64;
        let out = run(
            &fs,
            &cost,
            &cache,
            &opts,
            "",
            &task,
            || {
                id += 1;
                id
            },
            false,
        )
        .unwrap();
        let got: Vec<Entry> = out[0]
            .iter(&fs, &cost, &cache)
            .map(|e| e.unwrap())
            .collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value, None, "tombstone must survive above bottom");
    }

    #[test]
    fn output_splits_at_target_file_size() {
        let fs = fs();
        let opts = Options {
            target_file_bytes: 8 << 10,
            ..Options::default()
        };
        let cache = new_block_cache(1024);
        let cost = CostModel::default();
        let entries: Vec<(Vec<u8>, u64, Option<Vec<u8>>)> = (0..2000u32)
            .map(|i| (k(i), i as u64, Some(vec![7u8; 32])))
            .collect();
        let t = build_table(&fs, 1, entries);
        let task = CompactionTask {
            src_level: 0,
            target_level: 1,
            inputs_upper: vec![t],
            inputs_lower: vec![],
        };
        let mut id = 10u64;
        let out = run(
            &fs,
            &cost,
            &cache,
            &opts,
            "",
            &task,
            || {
                id += 1;
                id
            },
            false,
        )
        .unwrap();
        assert!(
            out.len() > 3,
            "2000*~38B entries should split into several 8KiB tables"
        );
        // Outputs are disjoint and ordered.
        for w in out.windows(2) {
            assert!(w[0].last_key < w[1].first_key);
        }
        let total: u64 = out.iter().map(|t| t.entry_count).sum();
        assert_eq!(total, 2000);
    }

    #[test]
    fn compaction_io_is_charged() {
        let fs = fs();
        let opts = Options::default();
        let cache = new_block_cache(1024);
        let cost = CostModel::default();
        let entries: Vec<(Vec<u8>, u64, Option<Vec<u8>>)> = (0..500u32)
            .map(|i| (k(i), i as u64, Some(vec![1u8; 32])))
            .collect();
        let t = build_table(&fs, 1, entries);
        fs.drop_caches();
        cache.lock().clear();
        let before = fs.device().nand().ledger().snapshot();
        let task = CompactionTask {
            src_level: 0,
            target_level: 1,
            inputs_upper: vec![t],
            inputs_lower: vec![],
        };
        let mut id = 10u64;
        run(
            &fs,
            &cost,
            &cache,
            &opts,
            "",
            &task,
            || {
                id += 1;
                id
            },
            false,
        )
        .unwrap();
        let d = fs.device().nand().ledger().snapshot().since(&before);
        assert!(d.nand_read_pages > 0, "compaction must read inputs");
        assert!(d.nand_program_pages > 0, "compaction must write outputs");
        assert!(d.host_cpu_ns > 0, "merge work must be charged");
    }
}
