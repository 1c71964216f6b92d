//! The filesystem proper: append-only files over page-granularity extents,
//! with a metadata journal and an OS page cache.
//!
//! The API surface is exactly what an LSM-tree engine needs from POSIX —
//! create/open/append/read_at/fsync/unlink/list — because that is how the
//! baseline uses it (WAL and SSTables are append-only; reads are random).

use std::collections::HashMap;
use std::sync::Arc;

use kvcsd_flash::ConventionalNamespace;
use kvcsd_sim::config::CostModel;
use kvcsd_sim::sync::Mutex;
use kvcsd_sim::IoLedger;

use crate::cache::LruCache;
use crate::error::FsError;
use crate::Result;

/// Filesystem tuning knobs.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// OS page cache capacity, in pages.
    pub page_cache_pages: usize,
}

impl Default for FsConfig {
    fn default() -> Self {
        Self {
            page_cache_pages: 16 * 1024,
        }
    }
}

/// Open-file handle. Remains valid until the file is unlinked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(u64);

/// Aggregate filesystem statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsStats {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub journal_page_writes: u64,
    pub inode_page_writes: u64,
    pub data_page_writes: u64,
    pub data_page_reads: u64,
}

#[derive(Debug)]
struct Inode {
    size: u64,
    /// LPA of each fully-written page, in file order.
    pages: Vec<u64>,
    /// Buffered partial tail (dirty page-cache analog).
    tail: Vec<u8>,
    /// LPA the tail was last fsynced to, for in-place (FTL-remapped)
    /// rewrite when it grows or fills.
    tail_lpa: Option<u64>,
}

#[derive(Debug)]
struct FsInner {
    files: HashMap<String, u64>,
    inodes: HashMap<u64, Inode>,
    next_ino: u64,
    free_lpas: Vec<u64>,
    next_lpa: u64,
    journal_cursor: u64,
    cache: LruCache<(u64, u64), Arc<Vec<u8>>>,
    stats: FsStats,
}

/// Number of LPAs reserved at the front of the device for metadata:
/// a cyclic journal area and an inode table area.
const JOURNAL_LPAS: u64 = 32;
const INODE_LPAS: u64 = 32;
const META_LPAS: u64 = JOURNAL_LPAS + INODE_LPAS;

/// The filesystem.
pub struct BlockFs {
    dev: Arc<ConventionalNamespace>,
    cost: CostModel,
    cfg: FsConfig,
    page_bytes: usize,
    inner: Mutex<FsInner>,
}

impl std::fmt::Debug for BlockFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockFs")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl BlockFs {
    /// Format a fresh filesystem on `dev`.
    pub fn format(dev: Arc<ConventionalNamespace>, cost: CostModel, cfg: FsConfig) -> Self {
        let page_bytes = dev.nand().geometry().page_bytes as usize;
        let cache = LruCache::new(cfg.page_cache_pages);
        Self {
            dev,
            cost,
            cfg,
            page_bytes,
            inner: Mutex::new(FsInner {
                files: HashMap::new(),
                inodes: HashMap::new(),
                next_ino: 1,
                free_lpas: Vec::new(),
                next_lpa: META_LPAS,
                journal_cursor: 0,
                cache,
                stats: FsStats::default(),
            }),
        }
    }

    fn ledger(&self) -> &Arc<IoLedger> {
        self.dev.nand().ledger()
    }

    /// The device this filesystem sits on.
    pub fn device(&self) -> &Arc<ConventionalNamespace> {
        &self.dev
    }

    /// The host cost model this filesystem charges against.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Page size of the underlying device.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    // ---- metadata I/O ----------------------------------------------------

    fn journal_write(&self, inner: &mut FsInner) -> Result<()> {
        let lpa = inner.journal_cursor % JOURNAL_LPAS;
        inner.journal_cursor += 1;
        self.ledger().host_block_io();
        self.dev.write(lpa, &inner.journal_cursor.to_le_bytes())?;
        inner.stats.journal_page_writes += 1;
        Ok(())
    }

    fn inode_write(&self, inner: &mut FsInner, ino: u64) -> Result<()> {
        let lpa = JOURNAL_LPAS + ino % INODE_LPAS;
        self.ledger().host_block_io();
        self.dev.write(lpa, &ino.to_le_bytes())?;
        inner.stats.inode_page_writes += 1;
        Ok(())
    }

    fn alloc_lpa(&self, inner: &mut FsInner) -> Result<u64> {
        if let Some(lpa) = inner.free_lpas.pop() {
            return Ok(lpa);
        }
        if inner.next_lpa >= self.dev.logical_pages() {
            return Err(FsError::NoSpace);
        }
        let lpa = inner.next_lpa;
        inner.next_lpa += 1;
        Ok(lpa)
    }

    // ---- namespace ops ----------------------------------------------------

    /// Create an empty file. Fails if the path exists.
    pub fn create(&self, path: &str) -> Result<FileId> {
        self.ledger().fs_call();
        let mut inner = self.inner.lock();
        if inner.files.contains_key(path) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let ino = inner.next_ino;
        inner.next_ino += 1;
        inner.files.insert(path.to_string(), ino);
        inner.inodes.insert(
            ino,
            Inode {
                size: 0,
                pages: Vec::new(),
                tail: Vec::new(),
                tail_lpa: None,
            },
        );
        self.journal_write(&mut inner)?;
        self.inode_write(&mut inner, ino)?;
        Ok(FileId(ino))
    }

    /// Open an existing file.
    pub fn open(&self, path: &str) -> Result<FileId> {
        self.ledger().fs_call();
        let inner = self.inner.lock();
        inner
            .files
            .get(path)
            .map(|&ino| FileId(ino))
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    /// True if the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.lock().files.contains_key(path)
    }

    /// All file paths, unsorted.
    pub fn list(&self) -> Vec<String> {
        self.ledger().fs_call();
        self.inner.lock().files.keys().cloned().collect()
    }

    /// Delete a file, trimming its pages on the device.
    pub fn unlink(&self, path: &str) -> Result<()> {
        self.ledger().fs_call();
        let mut inner = self.inner.lock();
        let ino = inner
            .files
            .remove(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let inode = inner.inodes.remove(&ino).ok_or_else(|| {
            FsError::Corrupt(format!("no inode {ino} for directory entry {path}"))
        })?;
        for lpa in inode.pages.iter().chain(inode.tail_lpa.iter()) {
            self.dev.trim(*lpa)?;
            inner.free_lpas.push(*lpa);
        }
        inner.cache.retain(|&(cino, _)| cino != ino);
        self.journal_write(&mut inner)?;
        self.inode_write(&mut inner, ino)?;
        Ok(())
    }

    // ---- data ops ----------------------------------------------------------

    /// Append bytes to the end of the file.
    pub fn append(&self, id: FileId, data: &[u8]) -> Result<()> {
        self.ledger().fs_call();
        self.ledger()
            .charge_host_cpu(data.len() as f64 * self.cost.memcpy_ns_per_byte);
        let mut inner = self.inner.lock();
        let page_bytes = self.page_bytes;
        // Two-phase to appease the borrow checker: mutate the inode,
        // collecting full pages to flush, then do device I/O.
        let mut to_flush: Vec<(u64, Vec<u8>, u64)> = Vec::new(); // (page_idx, data, lpa)
        {
            let inode = inner.inodes.get_mut(&id.0).ok_or(FsError::StaleHandle)?;
            inode.size += data.len() as u64;
            let mut rest = data;
            while !rest.is_empty() {
                let room = page_bytes - inode.tail.len();
                let take = room.min(rest.len());
                inode.tail.extend_from_slice(&rest[..take]);
                rest = &rest[take..];
                if inode.tail.len() == page_bytes {
                    let page_idx = inode.pages.len() as u64 + to_flush.len() as u64;
                    // Reuse the fsync-assigned LPA if the tail was already
                    // persisted once (FTL absorbs the rewrite).
                    let lpa = inode.tail_lpa.take();
                    let full = std::mem::take(&mut inode.tail);
                    to_flush.push((page_idx, full, lpa.unwrap_or(u64::MAX)));
                }
            }
        }
        for (page_idx, page, lpa_hint) in to_flush {
            let lpa = if lpa_hint == u64::MAX {
                self.alloc_lpa(&mut inner)?
            } else {
                lpa_hint
            };
            self.ledger().host_block_io();
            self.dev.write(lpa, &page)?;
            inner.stats.data_page_writes += 1;
            let inode = inner.inodes.get_mut(&id.0).ok_or(FsError::StaleHandle)?;
            debug_assert_eq!(inode.pages.len() as u64, page_idx);
            inode.pages.push(lpa);
            inner.cache.insert((id.0, page_idx), Arc::new(page));
        }
        Ok(())
    }

    /// Current file size in bytes.
    pub fn len(&self, id: FileId) -> Result<u64> {
        let inner = self.inner.lock();
        inner
            .inodes
            .get(&id.0)
            .map(|i| i.size)
            .ok_or(FsError::StaleHandle)
    }

    /// Read up to `len` bytes at `offset`. Returns fewer bytes at EOF.
    pub fn read_at(&self, id: FileId, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.ledger().fs_call();
        let mut inner = self.inner.lock();
        let page_bytes = self.page_bytes as u64;
        let (size, n_full_pages) = {
            let inode = inner.inodes.get(&id.0).ok_or(FsError::StaleHandle)?;
            (inode.size, inode.pages.len() as u64)
        };
        if offset >= size {
            return Ok(Vec::new());
        }
        let end = (offset + len as u64).min(size);
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut pos = offset;
        while pos < end {
            let page_idx = pos / page_bytes;
            let in_page = (pos % page_bytes) as usize;
            let take = ((end - pos) as usize).min(page_bytes as usize - in_page);
            if page_idx >= n_full_pages {
                // Served from the in-memory dirty tail.
                let inode = inner.inodes.get(&id.0).ok_or(FsError::StaleHandle)?;
                out.extend_from_slice(&inode.tail[in_page..in_page + take]);
            } else if let Some(page) = inner.cache.get(&(id.0, page_idx)).map(Arc::clone) {
                inner.stats.cache_hits += 1;
                out.extend_from_slice(&page[in_page..in_page + take]);
            } else {
                inner.stats.cache_misses += 1;
                let lpa = inner.inodes[&id.0].pages[page_idx as usize];
                self.ledger().host_block_io();
                let page = Arc::new(self.dev.read(lpa)?);
                inner.stats.data_page_reads += 1;
                out.extend_from_slice(&page[in_page..in_page + take]);
                inner.cache.insert((id.0, page_idx), page);
            }
            pos += take as u64;
        }
        self.ledger()
            .charge_host_cpu(out.len() as f64 * self.cost.memcpy_ns_per_byte);
        Ok(out)
    }

    /// Read exactly `len` bytes or fail.
    pub fn read_exact_at(&self, id: FileId, offset: u64, len: usize) -> Result<Vec<u8>> {
        let out = self.read_at(id, offset, len)?;
        if out.len() != len {
            return Err(FsError::ShortRead {
                requested: len,
                available: out.len(),
            });
        }
        Ok(out)
    }

    /// Persist the dirty tail and metadata (fsync).
    pub fn fsync(&self, id: FileId) -> Result<()> {
        self.ledger().fs_call();
        let mut inner = self.inner.lock();
        let tail: Option<(Vec<u8>, Option<u64>)> = {
            let inode = inner.inodes.get(&id.0).ok_or(FsError::StaleHandle)?;
            if inode.tail.is_empty() {
                None
            } else {
                Some((inode.tail.clone(), inode.tail_lpa))
            }
        };
        if let Some((tail, lpa)) = tail {
            let lpa = match lpa {
                Some(l) => l,
                None => self.alloc_lpa(&mut inner)?,
            };
            self.ledger().host_block_io();
            self.dev.write(lpa, &tail)?;
            inner.stats.data_page_writes += 1;
            let inode = inner.inodes.get_mut(&id.0).ok_or(FsError::StaleHandle)?;
            inode.tail_lpa = Some(lpa);
        }
        self.journal_write(&mut inner)?;
        self.inode_write(&mut inner, id.0)?;
        Ok(())
    }

    /// Drop the clean page cache (the paper cleans the OS cache before
    /// every RocksDB query run). Dirty tails are not lost: they live in
    /// the inode until fsync or page fill.
    pub fn drop_caches(&self) {
        self.inner.lock().cache.clear();
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> FsStats {
        let mut inner = self.inner.lock();
        let mut s = inner.stats;
        s.cache_hits = inner.cache.hits();
        s.cache_misses = inner.cache.misses();
        // Keep the struct's own counters (they track data pages precisely).
        let _ = &mut inner;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_flash::{ConvConfig, FlashGeometry, NandArray};
    use kvcsd_sim::HardwareSpec;

    fn fs_with(pages_cache: usize) -> BlockFs {
        let geom = FlashGeometry {
            channels: 4,
            blocks_per_channel: 64,
            pages_per_block: 16,
            page_bytes: 512,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        let dev = Arc::new(ConventionalNamespace::new(nand, ConvConfig::default()));
        BlockFs::format(
            dev,
            CostModel::default(),
            FsConfig {
                page_cache_pages: pages_cache,
            },
        )
    }

    fn fs() -> BlockFs {
        fs_with(1024)
    }

    #[test]
    fn create_open_exists_list() {
        let fs = fs();
        let f = fs.create("wal.log").unwrap();
        assert!(fs.exists("wal.log"));
        assert_eq!(fs.open("wal.log").unwrap(), f);
        assert!(matches!(fs.open("nope"), Err(FsError::NotFound(_))));
        assert!(matches!(
            fs.create("wal.log"),
            Err(FsError::AlreadyExists(_))
        ));
        assert_eq!(fs.list(), vec!["wal.log".to_string()]);
    }

    #[test]
    fn append_read_roundtrip_across_pages() {
        let fs = fs();
        let f = fs.create("data").unwrap();
        let payload: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        fs.append(f, &payload).unwrap();
        assert_eq!(fs.len(f).unwrap(), 3000);
        assert_eq!(fs.read_at(f, 0, 3000).unwrap(), payload);
        assert_eq!(fs.read_at(f, 700, 900).unwrap(), &payload[700..1600]);
    }

    #[test]
    fn many_small_appends_accumulate() {
        let fs = fs();
        let f = fs.create("wal").unwrap();
        for i in 0..100u32 {
            fs.append(f, &i.to_le_bytes()).unwrap();
        }
        assert_eq!(fs.len(f).unwrap(), 400);
        let back = fs.read_at(f, 0, 400).unwrap();
        for i in 0..100u32 {
            assert_eq!(&back[i as usize * 4..][..4], &i.to_le_bytes());
        }
    }

    #[test]
    fn reads_at_eof_are_short_not_errors() {
        let fs = fs();
        let f = fs.create("x").unwrap();
        fs.append(f, b"hello").unwrap();
        assert_eq!(fs.read_at(f, 3, 100).unwrap(), b"lo");
        assert_eq!(fs.read_at(f, 5, 10).unwrap(), Vec::<u8>::new());
        assert!(matches!(
            fs.read_exact_at(f, 0, 6),
            Err(FsError::ShortRead {
                requested: 6,
                available: 5
            })
        ));
    }

    #[test]
    fn tail_is_readable_before_fsync() {
        let fs = fs();
        let f = fs.create("x").unwrap();
        fs.append(f, b"partial page bytes").unwrap();
        // Nothing flushed yet (18 bytes < 512) -> no data page writes.
        assert_eq!(fs.stats().data_page_writes, 0);
        assert_eq!(fs.read_at(f, 0, 18).unwrap(), b"partial page bytes");
    }

    #[test]
    fn fsync_persists_tail_and_reuses_lpa() {
        let fs = fs();
        let f = fs.create("x").unwrap();
        fs.append(f, &[1u8; 100]).unwrap();
        fs.fsync(f).unwrap();
        let w1 = fs.stats().data_page_writes;
        assert_eq!(w1, 1);
        fs.append(f, &[2u8; 100]).unwrap();
        fs.fsync(f).unwrap();
        assert_eq!(fs.stats().data_page_writes, 2);
        // Data still correct after repeated tail rewrites.
        let back = fs.read_at(f, 0, 200).unwrap();
        assert_eq!(&back[..100], &[1u8; 100]);
        assert_eq!(&back[100..], &[2u8; 100]);
    }

    #[test]
    fn fsync_writes_journal_and_inode_pages() {
        let fs = fs();
        let f = fs.create("x").unwrap();
        let before = fs.stats();
        fs.append(f, &[1u8; 10]).unwrap();
        fs.fsync(f).unwrap();
        let after = fs.stats();
        assert_eq!(after.journal_page_writes - before.journal_page_writes, 1);
        assert_eq!(after.inode_page_writes - before.inode_page_writes, 1);
    }

    #[test]
    fn unlink_frees_space_for_reuse() {
        let fs = fs();
        let f = fs.create("big").unwrap();
        fs.append(f, &vec![9u8; 512 * 8]).unwrap();
        fs.unlink("big").unwrap();
        assert!(!fs.exists("big"));
        // Handle went stale.
        assert!(matches!(fs.len(f), Err(FsError::StaleHandle)));
        assert!(matches!(fs.append(f, &[0]), Err(FsError::StaleHandle)));
        // Space is reusable.
        let g = fs.create("big2").unwrap();
        fs.append(g, &vec![7u8; 512 * 8]).unwrap();
        assert_eq!(fs.read_at(g, 0, 1).unwrap()[0], 7);
    }

    #[test]
    fn page_cache_serves_repeated_reads() {
        let fs = fs();
        let f = fs.create("hot").unwrap();
        fs.append(f, &vec![3u8; 512 * 4]).unwrap();
        let r0 = fs.stats().data_page_reads;
        // Pages were cached at write time; reads hit the cache.
        fs.read_at(f, 0, 512 * 4).unwrap();
        assert_eq!(fs.stats().data_page_reads, r0);
        // After dropping caches, reads go to the device.
        fs.drop_caches();
        fs.read_at(f, 0, 512 * 4).unwrap();
        assert_eq!(fs.stats().data_page_reads, r0 + 4);
        // And are cached again.
        fs.read_at(f, 0, 512 * 4).unwrap();
        assert_eq!(fs.stats().data_page_reads, r0 + 4);
    }

    #[test]
    fn tiny_cache_thrashes() {
        let fs = fs_with(2);
        let f = fs.create("cold").unwrap();
        fs.append(f, &vec![1u8; 512 * 16]).unwrap();
        fs.drop_caches();
        fs.read_at(f, 0, 512 * 16).unwrap();
        fs.read_at(f, 0, 512 * 16).unwrap();
        // With a 2-page cache and 16-page scans, second scan misses too.
        assert_eq!(fs.stats().data_page_reads, 32);
    }

    #[test]
    fn read_amplification_is_visible_in_ledger() {
        let fs = fs();
        let f = fs.create("r").unwrap();
        fs.append(f, &vec![5u8; 512 * 2]).unwrap();
        fs.drop_caches();
        let before = fs.device().nand().ledger().snapshot();
        // 16-byte logical read costs one full 512 B page read.
        fs.read_at(f, 100, 16).unwrap();
        let d = fs.device().nand().ledger().snapshot().since(&before);
        assert_eq!(d.storage_read_bytes(), 512);
    }

    #[test]
    fn ledger_counts_fs_calls_and_block_ios() {
        let fs = fs();
        let before = fs.device().nand().ledger().snapshot();
        let f = fs.create("c").unwrap();
        fs.append(f, &vec![0u8; 512]).unwrap();
        let d = fs.device().nand().ledger().snapshot().since(&before);
        assert!(d.fs_calls >= 2); // create + append
        assert!(d.host_block_ios >= 3); // journal + inode + data page
    }

    #[test]
    fn large_file_survives_gc_pressure() {
        // Fill a large fraction of the device, delete, refill — the FTL
        // underneath must keep remapping without data corruption.
        let fs = fs();
        for round in 0..3 {
            let name = format!("gen{round}");
            let f = fs.create(&name).unwrap();
            let pattern = vec![round as u8 + 1; 512 * 200];
            fs.append(f, &pattern).unwrap();
            let back = fs.read_at(f, 0, 512 * 200).unwrap();
            assert_eq!(back, pattern);
            fs.unlink(&name).unwrap();
        }
    }
}
