//! The embedding database API — the RocksDB analog.
//!
//! Multiple [`Db`] instances can share one [`BlockFs`] (Figure 9 runs one
//! instance per thread atop a shared ext4); each instance namespaces its
//! files with a path prefix. The write path is WAL -> memtable -> L0 flush
//! -> leveled compaction; the read path is memtable -> L0 (newest first)
//! -> L1.. with bloom filters, a block cache and the OS page cache
//! underneath.

use std::sync::Arc;

use kvcsd_blockfs::BlockFs;
use kvcsd_sim::config::CostModel;
use kvcsd_sim::sync::Mutex;

use crate::compaction::{self, CompactionTask};
use crate::error::LsmError;
use crate::iterator::{MergeIter, Source};
use crate::memtable::MemTable;
use crate::options::{CompactionMode, Options};
use crate::sstable::{new_block_cache, BlockCache, Entry, Table};
use crate::version::Version;
use crate::wal::{Wal, WalRecord};
use crate::Result;

/// Cumulative database statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DbStats {
    pub puts: u64,
    pub deletes: u64,
    pub gets: u64,
    pub scans: u64,
    pub flushes: u64,
    pub compactions: u64,
    /// Times the write path hit the L0 stall trigger and had to wait for
    /// compaction — the paper's "write stalls".
    pub stall_events: u64,
    /// Raw bytes flushed from memtables into L0.
    pub flush_bytes: u64,
    /// Input bytes consumed by compactions (read amplification source).
    pub compaction_bytes_in: u64,
    /// Output bytes produced by compactions (write amplification source).
    pub compaction_bytes_out: u64,
}

#[derive(Debug)]
struct Inner {
    mem: MemTable,
    wal: Option<Wal>,
    version: Version,
    seq: u64,
    next_file: u64,
    stats: DbStats,
}

/// An open database.
pub struct Db {
    fs: Arc<BlockFs>,
    prefix: String,
    opts: Options,
    cache: Arc<BlockCache>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("prefix", &self.prefix)
            .finish_non_exhaustive()
    }
}

impl Db {
    /// Open (or create) a database under `prefix` on the shared
    /// filesystem, recovering from the manifest and WAL if present.
    pub fn open(fs: Arc<BlockFs>, prefix: &str, opts: Options) -> Result<Db> {
        let cache = new_block_cache(opts.block_cache_blocks);
        Self::open_with_cache(fs, prefix, opts, cache)
    }

    /// Open with an externally shared block cache (several instances can
    /// share one budget, as RocksDB column families do).
    pub fn open_with_cache(
        fs: Arc<BlockFs>,
        prefix: &str,
        opts: Options,
        cache: Arc<BlockCache>,
    ) -> Result<Db> {
        let mut inner = Inner {
            mem: MemTable::new(),
            wal: None,
            version: Version::new(opts.max_levels),
            seq: 0,
            next_file: 1,
            stats: DbStats::default(),
        };

        // Manifest recovery.
        let manifest = format!("{prefix}MANIFEST");
        if fs.exists(&manifest) {
            let f = fs.open(&manifest)?;
            let size = fs.len(f)?;
            let raw = fs.read_at(f, 0, size as usize)?;
            let text = String::from_utf8_lossy(&raw);
            for line in text.lines() {
                let mut parts = line.split_whitespace();
                let (Some(level), Some(id), Some(path)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    return Err(LsmError::Corruption(format!("manifest line: {line}")));
                };
                let level: usize = level
                    .parse()
                    .map_err(|_| LsmError::Corruption(format!("manifest level: {line}")))?;
                let id: u64 = id
                    .parse()
                    .map_err(|_| LsmError::Corruption(format!("manifest id: {line}")))?;
                let table = Arc::new(Table::open(&fs, path, id)?);
                inner.next_file = inner.next_file.max(id + 1);
                if level == 0 {
                    inner.version.l0.push(table); // manifest stores newest first
                } else {
                    inner.version.insert_sorted(level, table);
                }
            }
        }

        // WAL recovery.
        let wal_path = format!("{prefix}wal.log");
        let mut replayed = Vec::new();
        if opts.wal && fs.exists(&wal_path) {
            replayed = Wal::replay(&fs, &wal_path)?;
        }
        if opts.wal {
            let wal = Wal::create(&fs, &wal_path)?;
            for rec in &replayed {
                wal.append(&fs, rec, false)?;
                match rec.clone() {
                    WalRecord::Put { seq, key, value } => {
                        inner.seq = inner.seq.max(seq);
                        inner.mem.insert(key, seq, Some(value));
                    }
                    WalRecord::Delete { seq, key } => {
                        inner.seq = inner.seq.max(seq);
                        inner.mem.insert(key, seq, None);
                    }
                }
            }
            inner.wal = Some(wal);
        }

        Ok(Db {
            fs,
            prefix: prefix.to_string(),
            opts,
            cache,
            inner: Mutex::new(inner),
        })
    }

    /// The filesystem this database lives on.
    pub fn fs(&self) -> &Arc<BlockFs> {
        &self.fs
    }

    /// The database's options.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// The shared decoded-block cache.
    pub fn block_cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    fn cost(&self) -> &CostModel {
        self.fs.cost()
    }

    // ---- write path -------------------------------------------------------

    /// Insert or overwrite a key.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(key, Some(value))
    }

    /// Delete a key (writes a tombstone).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.write(key, None)
    }

    fn write(&self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        let cost = self.cost().clone();
        let ledger = self.fs.device().nand().ledger();
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let seq = inner.seq;

        if let Some(wal) = &inner.wal {
            let rec = match value {
                Some(v) => WalRecord::Put {
                    seq,
                    key: key.to_vec(),
                    value: v.to_vec(),
                },
                None => WalRecord::Delete {
                    seq,
                    key: key.to_vec(),
                },
            };
            ledger.charge_host_cpu(
                (key.len() + value.map_or(0, <[u8]>::len) + 21) as f64 * cost.codec_ns_per_byte,
            );
            wal.append(&self.fs, &rec, self.opts.sync_wal)?;
        }

        ledger.charge_host_cpu(
            cost.memtable_insert_ns + cost.key_cmp_ns * ((inner.mem.len().max(2)) as f64).log2(),
        );
        inner
            .mem
            .insert(key.to_vec(), seq, value.map(<[u8]>::to_vec));
        match value {
            Some(_) => inner.stats.puts += 1,
            None => inner.stats.deletes += 1,
        }

        if inner.mem.approximate_bytes() >= self.opts.memtable_bytes {
            self.flush_locked(&mut inner)?;
            if self.opts.compaction == CompactionMode::Automatic {
                if inner.version.l0.len() >= self.opts.l0_stall_trigger {
                    inner.stats.stall_events += 1;
                }
                self.compact_until_healthy(&mut inner)?;
            }
        }
        Ok(())
    }

    /// Force the memtable out to an L0 table.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)
    }

    fn flush_locked(&self, inner: &mut Inner) -> Result<()> {
        if inner.mem.is_empty() {
            return Ok(());
        }
        let mem = std::mem::take(&mut inner.mem);
        let raw_bytes = mem.approximate_bytes() as u64;
        let id = inner.next_file;
        inner.next_file += 1;
        let path = format!("{}{id:06}.sst", self.prefix);
        let mut builder = crate::sstable::TableBuilder::create(
            &self.fs,
            &path,
            id,
            self.opts.block_bytes,
            self.opts.restart_interval,
            self.opts.bloom_bits_per_key,
        )?;
        for (key, seq, value) in mem.into_sorted_entries() {
            builder.add(&key, seq, value.as_deref())?;
        }
        let table = builder.finish()?;
        inner.version.l0.insert(0, Arc::new(table)); // newest first
        inner.stats.flushes += 1;
        inner.stats.flush_bytes += raw_bytes;
        if let Some(wal) = inner.wal.take() {
            wal.remove(&self.fs)?;
            inner.wal = Some(Wal::create(&self.fs, &format!("{}wal.log", self.prefix))?);
        }
        self.write_manifest(inner)?;
        Ok(())
    }

    // ---- compaction ---------------------------------------------------------

    fn is_bottom_target(&self, inner: &Inner, target_level: usize) -> bool {
        (target_level..=inner.version.levels.len())
            .skip(1)
            .all(|l| inner.version.tables_at(l).is_empty())
            || target_level == inner.version.levels.len()
    }

    fn compact_until_healthy(&self, inner: &mut Inner) -> Result<()> {
        while let Some(task) = compaction::pick(&inner.version, &self.opts) {
            self.run_task(inner, &task)?;
        }
        Ok(())
    }

    fn run_task(&self, inner: &mut Inner, task: &CompactionTask) -> Result<()> {
        let is_bottom = self.is_bottom_target(inner, task.target_level);
        let mut next = inner.next_file;
        let new_tables = compaction::run(
            &self.fs,
            self.cost(),
            &self.cache,
            &self.opts,
            &self.prefix,
            task,
            || {
                let id = next;
                next += 1;
                id
            },
            is_bottom,
        )?;
        inner.next_file = next;

        inner.stats.compactions += 1;
        inner.stats.compaction_bytes_in += task.input_bytes();
        inner.stats.compaction_bytes_out += new_tables.iter().map(|t| t.file_bytes).sum::<u64>();

        let upper_ids: Vec<u64> = task.inputs_upper.iter().map(|t| t.id).collect();
        let lower_ids: Vec<u64> = task.inputs_lower.iter().map(|t| t.id).collect();
        inner.version.remove_tables(task.src_level, &upper_ids);
        inner.version.remove_tables(task.target_level, &lower_ids);
        for t in new_tables {
            inner.version.insert_sorted(task.target_level, Arc::new(t));
        }
        for t in task.inputs_upper.iter().chain(&task.inputs_lower) {
            t.remove(&self.fs)?;
            self.cache.lock().retain(|&(tid, _)| tid != t.id);
        }
        self.write_manifest(inner)?;
        Ok(())
    }

    /// Run compactions until the tree satisfies all triggers (used by the
    /// deferred mode after load, and by automatic mode inline).
    pub fn compact(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.compact_until_healthy(&mut inner)
    }

    /// Full compaction: flush, then merge *everything* into the bottom
    /// level. This is what "deferred compaction ... in a single pass at
    /// the end of an insertion job" does in Figure 9.
    pub fn compact_all(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)?;
        if inner.version.table_count() == 0 {
            return Ok(());
        }
        let l0 = inner.version.l0.clone();
        let levels = inner.version.levels.clone();
        let sources = compaction::table_sources(&self.fs, self.cost(), &self.cache, &l0, &levels);
        let mut next = inner.next_file;
        let new_tables = compaction::merge_to_tables(
            &self.fs,
            self.cost(),
            &self.opts,
            &self.prefix,
            sources,
            || {
                let id = next;
                next += 1;
                id
            },
            true,
        )?;
        inner.next_file = next;
        inner.stats.compactions += 1;
        inner.stats.compaction_bytes_in += l0
            .iter()
            .chain(levels.iter().flatten())
            .map(|t| t.file_bytes)
            .sum::<u64>();
        inner.stats.compaction_bytes_out += new_tables.iter().map(|t| t.file_bytes).sum::<u64>();

        let bottom = inner.version.levels.len();
        let mut fresh = Version::new(self.opts.max_levels);
        for t in new_tables {
            fresh.insert_sorted(bottom, Arc::new(t));
        }
        let old = std::mem::replace(&mut inner.version, fresh);
        for t in old.l0.iter().chain(old.levels.iter().flatten()) {
            t.remove(&self.fs)?;
            self.cache.lock().retain(|&(tid, _)| tid != t.id);
        }
        self.write_manifest(&mut inner)?;
        Ok(())
    }

    fn write_manifest(&self, inner: &mut Inner) -> Result<()> {
        let path = format!("{}MANIFEST", self.prefix);
        let mut text = String::new();
        for t in &inner.version.l0 {
            text.push_str(&format!("0 {} {}\n", t.id, t.path));
        }
        for (i, level) in inner.version.levels.iter().enumerate() {
            for t in level {
                text.push_str(&format!("{} {} {}\n", i + 1, t.id, t.path));
            }
        }
        if self.fs.exists(&path) {
            self.fs.unlink(&path)?;
        }
        let f = self.fs.create(&path)?;
        self.fs.append(f, text.as_bytes())?;
        self.fs.fsync(f)?;
        Ok(())
    }

    // ---- read path ----------------------------------------------------------

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let cost = self.cost().clone();
        let ledger = self.fs.device().nand().ledger();
        let mut inner = self.inner.lock();
        inner.stats.gets += 1;
        let inner = &*inner;

        ledger.charge_host_cpu(cost.key_cmp_ns * ((inner.mem.len().max(2)) as f64).log2());
        if let Some((_, slot)) = inner.mem.get(key) {
            return Ok(slot.map(<[u8]>::to_vec));
        }
        for t in &inner.version.l0 {
            if key < t.first_key.as_slice() || key > t.last_key.as_slice() {
                continue;
            }
            if let Some(e) = t.get(&self.fs, &cost, &self.cache, key)? {
                return Ok(e.value);
            }
        }
        for level in 1..=inner.version.levels.len() {
            if let Some(t) = inner.version.table_for_key(level, key) {
                if let Some(e) = t.get(&self.fs, &cost, &self.cache, key)? {
                    return Ok(e.value);
                }
            }
        }
        Ok(None)
    }

    /// Range scan over `[lo, hi)`, returning at most `limit` live entries.
    pub fn scan(
        &self,
        lo: &[u8],
        hi: &[u8],
        limit: Option<usize>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let cost = self.cost().clone();
        let mut inner = self.inner.lock();
        inner.stats.scans += 1;
        let inner = &*inner;

        let mut sources: Vec<Source<'_>> = Vec::new();
        // Memtable.
        sources.push(Box::new(
            inner
                .mem
                .range(
                    std::ops::Bound::Included(lo),
                    if hi.is_empty() {
                        std::ops::Bound::Unbounded
                    } else {
                        std::ops::Bound::Excluded(hi)
                    },
                )
                .map(|(k, s, v)| {
                    Ok(Entry {
                        key: k.to_vec(),
                        seq: s,
                        value: v.map(<[u8]>::to_vec),
                    })
                }),
        ));
        // L0, newest first.
        for t in &inner.version.l0 {
            sources.push(Box::new(self.table_range(t, lo, hi, &cost)));
        }
        // Sorted levels: chain overlapping tables per level.
        for level in 1..=inner.version.levels.len() {
            let overlapping: Vec<Arc<Table>> = inner
                .version
                .tables_at(level)
                .iter()
                .filter(|t| {
                    (hi.is_empty() || t.first_key.as_slice() < hi) && t.last_key.as_slice() >= lo
                })
                .cloned()
                .collect();
            if overlapping.is_empty() {
                continue;
            }
            let me = self;
            let lo_v = lo.to_vec();
            let hi_v = hi.to_vec();
            let cost2 = cost.clone();
            sources.push(Box::new(overlapping.into_iter().flat_map(move |t| {
                me.table_range(&t, &lo_v, &hi_v, &cost2).collect::<Vec<_>>()
            })));
        }

        let mut out = Vec::new();
        for item in MergeIter::new(sources) {
            let e = item?;
            if !hi.is_empty() && e.key.as_slice() >= hi {
                break;
            }
            if let Some(v) = e.value {
                out.push((e.key, v));
                if limit.is_some_and(|l| out.len() >= l) {
                    break;
                }
            }
        }
        Ok(out)
    }

    /// Materialized bounded range read of one table.
    fn table_range(
        &self,
        t: &Arc<Table>,
        lo: &[u8],
        hi: &[u8],
        cost: &CostModel,
    ) -> std::vec::IntoIter<Result<Entry>> {
        let mut out = Vec::new();
        for item in t.iter_from(&self.fs, cost, &self.cache, lo) {
            match item {
                Ok(e) => {
                    if !hi.is_empty() && e.key.as_slice() >= hi {
                        break;
                    }
                    out.push(Ok(e));
                }
                Err(err) => {
                    out.push(Err(err));
                    break;
                }
            }
        }
        out.into_iter()
    }

    // ---- introspection --------------------------------------------------------

    /// Cumulative statistics.
    pub fn stats(&self) -> DbStats {
        self.inner.lock().stats
    }

    /// Live entries per level: `(L0 count, [L1.., ..])` table counts.
    pub fn level_table_counts(&self) -> Vec<usize> {
        let inner = self.inner.lock();
        let mut v = vec![inner.version.l0.len()];
        v.extend(inner.version.levels.iter().map(Vec::len));
        v
    }

    /// Total live table entries (including shadowed versions/tombstones).
    pub fn table_entries(&self) -> u64 {
        self.inner.lock().version.entry_count()
    }

    /// Entries currently buffered in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.inner.lock().mem.len()
    }

    /// Highest sequence number issued.
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_blockfs::FsConfig;
    use kvcsd_flash::{ConvConfig, ConventionalNamespace, FlashGeometry, NandArray};
    use kvcsd_sim::{HardwareSpec, IoLedger};

    fn make_fs() -> Arc<BlockFs> {
        let geom = FlashGeometry {
            channels: 8,
            blocks_per_channel: 512,
            pages_per_block: 32,
            page_bytes: 4096,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        let dev = Arc::new(ConventionalNamespace::new(nand, ConvConfig::default()));
        Arc::new(BlockFs::format(
            dev,
            CostModel::default(),
            FsConfig::default(),
        ))
    }

    fn small_opts(mode: CompactionMode) -> Options {
        Options {
            memtable_bytes: 4 << 10,
            level_base_bytes: 16 << 10,
            target_file_bytes: 8 << 10,
            compaction: mode,
            ..Options::default()
        }
    }

    fn k(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }
    fn v(i: u32) -> Vec<u8> {
        format!("val-{i:08}").into_bytes()
    }

    #[test]
    fn put_get_through_memtable() {
        let db = Db::open(make_fs(), "", Options::default()).unwrap();
        db.put(b"a", b"1").unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"b").unwrap(), None);
        db.delete(b"a").unwrap();
        assert_eq!(db.get(b"a").unwrap(), None);
    }

    #[test]
    fn flush_and_read_from_tables() {
        let db = Db::open(make_fs(), "", small_opts(CompactionMode::Disabled)).unwrap();
        for i in 0..200 {
            db.put(&k(i), &v(i)).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.memtable_len(), 0);
        assert!(db.level_table_counts()[0] >= 1);
        for i in (0..200).step_by(17) {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i)), "key {i}");
        }
    }

    #[test]
    fn automatic_compaction_keeps_l0_small_and_data_correct() {
        let db = Db::open(make_fs(), "", small_opts(CompactionMode::Automatic)).unwrap();
        for i in 0..3000 {
            db.put(&k(i % 1000), &v(i)).unwrap(); // 3x overwrites
        }
        let stats = db.stats();
        assert!(stats.flushes > 3, "small memtable must flush repeatedly");
        assert!(stats.compactions > 0, "automatic mode must compact");
        assert!(
            db.level_table_counts()[0] < db.options().l0_compaction_trigger,
            "L0 must stay under trigger after compactions: {:?}",
            db.level_table_counts()
        );
        for i in 0..1000u32 {
            let newest = (0..3).map(|r| r * 1000 + i).max().unwrap();
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(newest)), "key {i}");
        }
    }

    #[test]
    fn disabled_mode_never_compacts() {
        let db = Db::open(make_fs(), "", small_opts(CompactionMode::Disabled)).unwrap();
        for i in 0..2000 {
            db.put(&k(i), &v(i)).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.stats().compactions, 0);
        assert!(
            db.level_table_counts()[0] > 4,
            "L0 accumulates without compaction"
        );
        // Reads still correct (merging across many runs).
        for i in (0..2000).step_by(191) {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i)));
        }
    }

    #[test]
    fn deferred_compact_all_collapses_to_bottom() {
        let db = Db::open(make_fs(), "", small_opts(CompactionMode::Deferred)).unwrap();
        for i in 0..2000 {
            db.put(&k(i), &v(i)).unwrap();
        }
        db.compact_all().unwrap();
        let counts = db.level_table_counts();
        assert_eq!(counts[0], 0, "L0 empty after full compaction");
        assert!(counts[1..counts.len() - 1].iter().all(|&c| c == 0));
        assert!(counts[counts.len() - 1] > 0, "all data in the bottom level");
        for i in (0..2000).step_by(97) {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i)));
        }
    }

    #[test]
    fn compact_all_drops_tombstones() {
        let db = Db::open(make_fs(), "", small_opts(CompactionMode::Deferred)).unwrap();
        for i in 0..500 {
            db.put(&k(i), &v(i)).unwrap();
        }
        for i in 0..250 {
            db.delete(&k(i)).unwrap();
        }
        db.compact_all().unwrap();
        assert_eq!(
            db.table_entries(),
            250,
            "tombstones and shadowed keys purged"
        );
        assert_eq!(db.get(&k(100)).unwrap(), None);
        assert_eq!(db.get(&k(400)).unwrap(), Some(v(400)));
    }

    #[test]
    fn scan_merges_levels_and_memtable() {
        let db = Db::open(make_fs(), "", small_opts(CompactionMode::Disabled)).unwrap();
        for i in 0..300 {
            db.put(&k(i), &v(i)).unwrap();
        }
        db.flush().unwrap();
        // Overwrite a few in the memtable, delete one.
        db.put(&k(10), b"fresh").unwrap();
        db.delete(&k(11)).unwrap();
        let got = db.scan(&k(9), &k(14), None).unwrap();
        let keys: Vec<Vec<u8>> = got.iter().map(|(kk, _)| kk.clone()).collect();
        assert_eq!(keys, vec![k(9), k(10), k(12), k(13)]);
        let v10 = &got[1].1;
        assert_eq!(v10, b"fresh");
    }

    #[test]
    fn scan_respects_limit_and_empty_hi() {
        let db = Db::open(make_fs(), "", small_opts(CompactionMode::Disabled)).unwrap();
        for i in 0..100 {
            db.put(&k(i), &v(i)).unwrap();
        }
        let got = db.scan(&k(50), &[], Some(5)).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].0, k(50));
        let all = db.scan(&[], &[], None).unwrap();
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn model_equivalence_under_mixed_ops() {
        use std::collections::BTreeMap;
        let db = Db::open(make_fs(), "", small_opts(CompactionMode::Automatic)).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut x = 777u32;
        for _ in 0..4000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let key = k(x % 500);
            if x.is_multiple_of(5) {
                db.delete(&key).unwrap();
                model.remove(&key);
            } else {
                let val = v(x);
                db.put(&key, &val).unwrap();
                model.insert(key, val);
            }
        }
        for i in 0..500 {
            assert_eq!(db.get(&k(i)).unwrap(), model.get(&k(i)).cloned(), "key {i}");
        }
        let scan = db.scan(&[], &[], None).unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        assert_eq!(scan, expect);
    }

    #[test]
    fn recovery_from_manifest_and_wal() {
        let fs = make_fs();
        {
            let db = Db::open(
                Arc::clone(&fs),
                "db/",
                small_opts(CompactionMode::Automatic),
            )
            .unwrap();
            for i in 0..500 {
                db.put(&k(i), &v(i)).unwrap();
            }
            // A few unflushed writes stay only in WAL + memtable.
            db.put(b"only-in-wal", b"survives").unwrap();
        }
        let db = Db::open(fs, "db/", small_opts(CompactionMode::Automatic)).unwrap();
        assert_eq!(db.get(b"only-in-wal").unwrap(), Some(b"survives".to_vec()));
        for i in (0..500).step_by(41) {
            assert_eq!(db.get(&k(i)).unwrap(), Some(v(i)), "key {i}");
        }
        assert!(db.last_seq() >= 501);
    }

    #[test]
    fn two_instances_share_a_filesystem() {
        let fs = make_fs();
        let a = Db::open(Arc::clone(&fs), "a/", small_opts(CompactionMode::Automatic)).unwrap();
        let b = Db::open(Arc::clone(&fs), "b/", small_opts(CompactionMode::Automatic)).unwrap();
        for i in 0..300 {
            a.put(&k(i), b"from-a").unwrap();
            b.put(&k(i), b"from-b").unwrap();
        }
        assert_eq!(a.get(&k(7)).unwrap(), Some(b"from-a".to_vec()));
        assert_eq!(b.get(&k(7)).unwrap(), Some(b"from-b".to_vec()));
    }

    #[test]
    fn write_amplification_is_measured() {
        let fs = make_fs();
        let db = Db::open(Arc::clone(&fs), "", small_opts(CompactionMode::Automatic)).unwrap();
        let n = 3000u32;
        for i in 0..n {
            db.put(&k(i), &v(i)).unwrap();
        }
        db.flush().unwrap();
        let logical: u64 = (n as u64) * (12 + 12);
        let s = fs.device().nand().ledger().snapshot();
        let amp = s.storage_write_bytes() as f64 / logical as f64;
        assert!(
            amp > 2.0,
            "LSM with WAL + compaction must amplify writes well beyond 2x, got {amp:.2}"
        );
    }

    #[test]
    fn stall_events_fire_when_l0_backs_up() {
        let mut opts = small_opts(CompactionMode::Automatic);
        opts.l0_stall_trigger = 2; // absurdly low to force the path
        opts.l0_compaction_trigger = 2;
        let db = Db::open(make_fs(), "", opts).unwrap();
        for i in 0..4000 {
            db.put(&k(i), &v(i)).unwrap();
        }
        // With trigger 2, every flush beyond the first risks a stall; the
        // counter must have moved.
        assert!(db.stats().compactions > 0);
    }

    #[test]
    fn no_wal_mode_skips_log_writes() {
        let fs = make_fs();
        let mut opts = small_opts(CompactionMode::Disabled);
        opts.wal = false;
        let db = Db::open(Arc::clone(&fs), "", opts).unwrap();
        db.put(b"x", b"y").unwrap();
        assert!(!fs.exists("wal.log"));
        assert_eq!(db.get(b"x").unwrap(), Some(b"y".to_vec()));
    }
}
