//! The sketched block index: the one format of the PIDX and every SIDX.
//!
//! The PIDX is stored "as a series of 4 KB data blocks" plus "a small
//! sketch ... consisting of a pivot primary index key and a block pointer
//! for every constituent PIDX data block" (Section V), and the SIDX is
//! built "in a manner similar". A block is a `u16` entry count and that
//! many entries in key order, never spanning blocks, so the sketch (each
//! block's first key) addresses blocks independently. The two kinds
//! differ only in one entry's layout, an [`IndexEntry`]. [`IndexWriter`]
//! writes every index, [`IndexBlock`] reads a block in place,
//! [`BlockIndex::scan`] walks blocks for every range query, and
//! [`BlockIndex`] is how the keyspace table, the snapshot and the
//! replication artifacts refer to a built index.
//!
//! Searches are binary searches at both levels. The [`Sketch`] compares
//! each pivot's 8-byte key prefix first and reads a pivot's bytes only
//! on a tie. [`IndexBlock::parse`] validates every entry and records
//! where each starts, so [`IndexBlock::find`] and the scan's first entry
//! within its lower bound are found without walking the block. The
//! charges do not change with the search: the scan still charges one
//! comparison for every entry it passes, as the linear walk did.

use std::cmp::Ordering;
use std::marker::PhantomData;
use std::sync::Arc;

use kvcsd_proto::Bound;
use kvcsd_sim::bytes::{le_u16, le_u32, le_u64, try_le_u16};

use crate::error::DeviceError;
use crate::extsort::key_prefix;
use crate::sidx::SidxEntry;
use crate::soc::SocTally;
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;
use crate::BLOCK_BYTES;

/// Block-level index sketch: the first (pivot) key of every 4 KiB block.
///
/// Beside the pivots it keeps each pivot's 8-byte key prefix (the
/// external sorter's big-endian, zero-padded `key_prefix`) in one
/// contiguous array, so a search compares integers and reads a pivot's
/// bytes only among the pivots whose prefix ties the key's. The prefixes
/// are derived from the pivots and never persisted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sketch {
    pivots: Vec<Vec<u8>>,
    prefixes: Vec<u64>,
}

impl Sketch {
    /// Record block `i`'s pivot; blocks must be pushed in order.
    pub fn push(&mut self, pivot: Vec<u8>) {
        debug_assert!(self.pivots.last().is_none_or(|p| p <= &pivot));
        self.prefixes.push(key_prefix(&pivot));
        self.pivots.push(pivot);
    }

    /// Rebuild a sketch from persisted pivots (snapshot restore).
    pub fn from_pivots(pivots: Vec<Vec<u8>>) -> Self {
        debug_assert!(pivots.windows(2).all(|w| w[0] <= w[1]));
        let prefixes = pivots.iter().map(|p| key_prefix(p)).collect();
        Self { pivots, prefixes }
    }

    /// The pivot keys, one per block (snapshot serialization).
    pub fn pivots(&self) -> &[Vec<u8>] {
        &self.pivots
    }

    pub fn is_empty(&self) -> bool {
        self.pivots.is_empty()
    }

    /// Block where a search for `key` must start: the last block whose
    /// pivot is <= `key` (or block 0 when `key` precedes every pivot —
    /// the caller's scan will simply start at the beginning).
    pub fn locate(&self, key: &[u8]) -> Option<u32> {
        self.block_before(key, Ordering::Equal)
    }

    /// Block where a scan for entries `>= key` must start when keys may
    /// repeat across blocks (secondary indexes): the last block whose
    /// pivot is < `key`, since entries equal to `key` can end that block
    /// (or block 0 when no pivot precedes `key`).
    pub fn locate_first(&self, key: &[u8]) -> Option<u32> {
        self.block_before(key, Ordering::Greater)
    }

    /// The last block whose pivot `p` has `key.cmp(p) >= min` (block 0
    /// when no pivot has), or `None` for an empty sketch.
    fn block_before(&self, key: &[u8], min: Ordering) -> Option<u32> {
        if self.pivots.is_empty() {
            return None;
        }
        // A smaller prefix is a smaller pivot and a larger one a larger
        // pivot; only the pivots whose prefix ties the key's are read.
        let kp = key_prefix(key);
        let lo = self.prefixes.partition_point(|&p| p < kp);
        let ties = self.prefixes[lo..].partition_point(|&p| p == kp);
        let ix = lo + self.pivots[lo..lo + ties].partition_point(|p| key.cmp(p.as_slice()) >= min);
        Some(ix.saturating_sub(1) as u32)
    }

    /// Number of pivot comparisons a binary search performs (for cost
    /// charging).
    pub fn search_cost(&self) -> f64 {
        (self.pivots.len().max(2) as f64).log2()
    }
}

/// One index entry, borrowed from a block or from the record it indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// The key entries are ordered by and the sketch pivots on: the
    /// primary key in the PIDX, the encoded secondary key in a SIDX.
    pub key: &'a [u8],
    /// The primary key the entry resolves to; `key` itself in the PIDX.
    pub pkey: &'a [u8],
    /// The value's offset in SORTED_VALUES.
    pub voff: u64,
    /// The value's length.
    pub vlen: u32,
}

impl<'a> EntryRef<'a> {
    /// A PIDX entry: `key`'s value locator.
    pub fn primary(key: &'a [u8], voff: u64, vlen: u32) -> Self {
        Self {
            key,
            pkey: key,
            voff,
            vlen,
        }
    }
}

/// How one entry of an index kind is laid out in a block: a `u16`
/// length per stored key, the value locator (`voff: u64`, `vlen: u32`),
/// then the keys.
pub trait IndexEntry {
    /// The index kind, as a malformed-block error names it.
    const KIND: &'static str;
    /// Keys an entry stores: 1, the primary key (PIDX), or 2, the
    /// secondary key and then the primary key (SIDX).
    const KEYS: usize;
    /// Bytes of an entry's fixed header.
    const HEADER: usize = 2 * Self::KEYS + 8 + 4;

    /// Bytes `e` takes in a block.
    fn extent(e: &EntryRef<'_>) -> usize {
        Self::HEADER + stored::<Self>(e).map(<[u8]>::len).sum::<usize>()
    }

    /// Append `e`'s bytes to `out`.
    fn encode(e: &EntryRef<'_>, out: &mut Vec<u8>) {
        debug_assert!(
            Self::KEYS == 2 || e.key == e.pkey,
            "a PIDX key is its primary key"
        );
        for k in stored::<Self>(e) {
            out.extend_from_slice(&(k.len() as u16).to_le_bytes());
        }
        out.extend_from_slice(&e.voff.to_le_bytes());
        out.extend_from_slice(&e.vlen.to_le_bytes());
        stored::<Self>(e).for_each(|k| out.extend_from_slice(k));
    }

    /// The entry `bytes` starts with and its extent, or `None` when
    /// `bytes` ends inside it.
    fn decode(bytes: &[u8]) -> Option<(EntryRef<'_>, usize)> {
        let (hdr, rest) = bytes.split_at_checked(Self::HEADER)?;
        let (key, rest) = rest.split_at_checked(le_u16(hdr, 0) as usize)?;
        let pkey = match Self::KEYS {
            1 => key,
            _ => rest.get(..le_u16(hdr, 2) as usize)?,
        };
        let at = 2 * Self::KEYS;
        let (voff, vlen) = (le_u64(hdr, at), le_u32(hdr, at + 8));
        let e = EntryRef {
            key,
            pkey,
            voff,
            vlen,
        };
        Some((e, Self::extent(&e)))
    }
}

/// The keys `E` stores of `e`, in block order.
fn stored<'a, E: IndexEntry + ?Sized>(e: &EntryRef<'a>) -> impl Iterator<Item = &'a [u8]> {
    [e.key, e.pkey].into_iter().take(E::KEYS)
}

/// The PIDX entry layout (one key). It is a layout only: PIDX entries
/// are written and read as [`EntryRef`]s.
#[derive(Debug)]
pub enum PidxEntry {}

impl IndexEntry for PidxEntry {
    const KIND: &'static str = "PIDX";
    const KEYS: usize = 1;
}

/// The SIDX entry layout (secondary key, then primary key). The locator
/// lets a secondary query stream matching records straight out of
/// SORTED_VALUES without a primary-index lookup.
impl IndexEntry for SidxEntry {
    const KIND: &'static str = "SIDX";
    const KEYS: usize = 2;
}

/// Packs self-contained index blocks, encoding each entry straight into
/// the block.
#[derive(Debug)]
pub struct IndexBlockBuilder<E> {
    /// The block so far: room for the entry count, then the entries.
    block: Vec<u8>,
    count: u16,
    layout: PhantomData<E>,
}

impl<E: IndexEntry> Default for IndexBlockBuilder<E> {
    fn default() -> Self {
        Self {
            block: Self::empty_block(),
            count: 0,
            layout: PhantomData,
        }
    }
}

impl<E: IndexEntry> IndexBlockBuilder<E> {
    fn empty_block() -> Vec<u8> {
        let mut block = Vec::with_capacity(BLOCK_BYTES);
        block.extend_from_slice(&[0, 0]);
        block
    }

    /// True if `e` fits in the current block.
    pub fn fits(&self, e: &EntryRef<'_>) -> bool {
        self.block.len() + E::extent(e) <= BLOCK_BYTES
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append an entry; the caller checks [`IndexBlockBuilder::fits`]
    /// first.
    pub fn add(&mut self, e: &EntryRef<'_>) {
        debug_assert!(self.fits(e));
        E::encode(e, &mut self.block);
        self.count += 1;
    }

    /// Seal the block: returns `(block bytes, pivot)`, the pivot being
    /// its first entry's key, and starts the next.
    pub fn finish(&mut self) -> (Vec<u8>, Vec<u8>) {
        let mut block = std::mem::replace(&mut self.block, Self::empty_block());
        block[..2].copy_from_slice(&self.count.to_le_bytes());
        self.count = 0;
        let pivot = E::decode(&block[2..]).map_or_else(Vec::new, |(e, _)| e.key.to_vec());
        (block, pivot)
    }
}

/// A validated, borrowed view of one index block produced by
/// [`IndexBlockBuilder`]. Queries search the block in place: only the
/// keys they return are copied out.
#[derive(Debug)]
pub struct IndexBlock<'a, E> {
    /// The entries, with the block's padding cut off.
    entries: &'a [u8],
    /// Where each of the first `count` entries starts in `entries`, as
    /// `parse` found them.
    offsets: [u16; MAX_ENTRIES],
    count: usize,
    layout: PhantomData<E>,
}

/// The most entries a block holds, since each takes at least a PIDX
/// header: a larger count is malformed.
const MAX_ENTRIES: usize = BLOCK_BYTES / <PidxEntry as IndexEntry>::HEADER;

impl<'a, E: IndexEntry> IndexBlock<'a, E> {
    /// Check that `block` holds the whole of every entry its count
    /// announces; anything else is a malformed block.
    pub fn parse(block: &'a [u8]) -> Result<Self> {
        let bad = || DeviceError::Internal(format!("malformed {} block", E::KIND));
        let count = try_le_u16(block, 0).ok_or_else(bad)? as usize;
        let mut offsets = [0u16; MAX_ENTRIES];
        let mut end = 2;
        for at in offsets.get_mut(..count).ok_or_else(bad)? {
            let (_, extent) = E::decode(&block[end..]).ok_or_else(bad)?;
            *at = u16::try_from(end - 2).map_err(|_| bad())?;
            end += extent;
        }
        Ok(Self {
            entries: &block[2..end],
            offsets,
            count,
            layout: PhantomData,
        })
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The entries, in key order.
    pub fn iter(&self) -> impl Iterator<Item = EntryRef<'a>> + '_ {
        self.iter_from(0)
    }

    /// Where each entry starts in `entries`.
    fn offsets(&self) -> &[u16] {
        &self.offsets[..self.count]
    }

    /// The entries from the `i`th on, in key order.
    fn iter_from(&self, i: usize) -> impl Iterator<Item = EntryRef<'a>> + '_ {
        // `parse` checked every entry's extent.
        let entries = self.entries;
        self.offsets()
            .iter()
            .skip(i)
            .filter_map(move |&at| Some(E::decode(entries.get(at as usize..)?)?.0))
    }

    /// The number of leading entries whose key satisfies `pred`, found by
    /// binary search: `pred` must hold for a prefix of the entries in key
    /// order.
    fn partition_point(&self, pred: impl Fn(&[u8]) -> bool) -> usize {
        self.offsets().partition_point(|&at| {
            self.entries
                .get(at as usize..)
                .and_then(E::decode)
                .is_some_and(|(e, _)| pred(e.key))
        })
    }
}

impl IndexBlock<'_, PidxEntry> {
    /// The value locator `(voff, vlen)` stored under `key`, if any. A
    /// key written twice has two entries, kept in write order by the
    /// stable compaction sort; the last one is the live value.
    pub fn find(&self, key: &[u8]) -> Option<(u64, u32)> {
        let past = self.partition_point(|k| k <= key);
        let e = self.iter_from(past.checked_sub(1)?).next()?;
        (e.key == key).then_some((e.voff, e.vlen))
    }
}

/// A query's match in an index: the primary key and its value locator
/// `(voff, vlen)` in SORTED_VALUES.
pub(crate) type Hit = (Vec<u8>, (u64, u32));

/// A built index on flash: its cluster, its block count and its sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockIndex {
    pub cluster: ClusterId,
    pub blocks: u32,
    pub sketch: Sketch,
}

impl BlockIndex {
    /// Read block `b`, charging the SoC for taking it in.
    pub(crate) fn read_block(
        &self,
        mgr: &ZoneManager,
        soc: &mut SocTally<'_>,
        b: u32,
    ) -> Result<Arc<[u8]>> {
        let block = mgr.read_block(self.cluster, b as u64)?;
        soc.bytes(block.len());
        Ok(block)
    }

    /// The query block walk, charging the sketch search that picked
    /// `start`: from block `start` on, the entries whose key lies within
    /// `lo..hi`, at most `limit` of them, as `(primary key, value
    /// locator)` in index order. Each block's first entry within `lo` is
    /// found by binary search, and every entry the walk passes or takes
    /// is charged as one comparison. A limit of 0 answers nothing and
    /// charges nothing.
    pub(crate) fn scan<E: IndexEntry>(
        &self,
        mgr: &ZoneManager,
        soc: &mut SocTally<'_>,
        start: u32,
        lo: &Bound,
        hi: &Bound,
        limit: Option<u64>,
    ) -> Result<Vec<Hit>> {
        if limit == Some(0) {
            return Ok(Vec::new());
        }
        soc.cmp(self.sketch.search_cost());
        let mut hits = Vec::new();
        'blocks: for b in start..self.blocks {
            let block = self.read_block(mgr, soc, b)?;
            let view = IndexBlock::<E>::parse(&block)?;
            let first = view.partition_point(|k| !lo.admits_from_below(k));
            soc.cmp_each(first);
            for e in view.iter_from(first) {
                soc.cmp(1.0);
                if !hi.admits_from_above(e.key) {
                    break 'blocks;
                }
                hits.push((e.pkey.to_vec(), (e.voff, e.vlen)));
                if limit.is_some_and(|l| hits.len() as u64 >= l) {
                    break 'blocks;
                }
            }
        }
        Ok(hits)
    }
}

/// Writes one index in key order: allocates its cluster, appends each
/// block as it fills and records the block's pivot in the sketch.
pub(crate) struct IndexWriter<E> {
    index: BlockIndex,
    builder: IndexBlockBuilder<E>,
}

impl<E: IndexEntry> IndexWriter<E> {
    pub(crate) fn new(mgr: &ZoneManager, cluster_width: u32) -> Result<Self> {
        Ok(Self {
            index: BlockIndex {
                cluster: mgr.alloc_cluster(cluster_width)?,
                blocks: 0,
                sketch: Sketch::default(),
            },
            builder: IndexBlockBuilder::default(),
        })
    }

    /// Index the next entry in key order.
    pub(crate) fn push(&mut self, mgr: &ZoneManager, e: &EntryRef<'_>) -> Result<()> {
        if !self.builder.fits(e) {
            self.seal_block(mgr)?;
        }
        self.builder.add(e);
        Ok(())
    }

    fn seal_block(&mut self, mgr: &ZoneManager) -> Result<()> {
        let (block, pivot) = self.builder.finish();
        mgr.append_block(self.index.cluster, &block)?;
        self.index.sketch.push(pivot);
        self.index.blocks += 1;
        Ok(())
    }

    /// Seal the partial block, if any, and hand over the index.
    pub(crate) fn finish(mut self, mgr: &ZoneManager) -> Result<BlockIndex> {
        if !self.builder.is_empty() {
            self.seal_block(mgr)?;
        }
        Ok(self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::SocCharger;
    use kvcsd_proto::SidxKey;
    use kvcsd_sim::XorShift64;

    /// A PIDX entry owned by a test: `(key, voff, vlen)`.
    type Owned = (Vec<u8>, u64, u32);

    /// A SIDX entry owned by a test: `(skey, pkey, voff, vlen)`.
    type OwnedSidx = (Vec<u8>, Vec<u8>, u64, u32);

    /// Every entry of a PIDX block, copied out through the view.
    fn pidx_entries(block: &[u8]) -> Result<Vec<Owned>> {
        Ok(IndexBlock::<PidxEntry>::parse(block)?
            .iter()
            .map(|e| (e.key.to_vec(), e.voff, e.vlen))
            .collect())
    }

    /// Every entry of a SIDX block, copied out through the view.
    fn sidx_entries(block: &[u8]) -> Result<Vec<OwnedSidx>> {
        Ok(IndexBlock::<SidxEntry>::parse(block)?
            .iter()
            .map(|e| (e.key.to_vec(), e.pkey.to_vec(), e.voff, e.vlen))
            .collect())
    }

    fn primary((key, voff, vlen): &Owned) -> EntryRef<'_> {
        EntryRef::primary(key, *voff, *vlen)
    }

    fn secondary((skey, pkey, voff, vlen): &OwnedSidx) -> EntryRef<'_> {
        EntryRef {
            key: skey,
            pkey,
            voff: *voff,
            vlen: *vlen,
        }
    }

    fn random_bytes(rng: &mut XorShift64, max_len: u64) -> Vec<u8> {
        let len = rng.next_below(max_len + 1);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// `E`'s malformed-block error, and only that.
    fn malformed<E: IndexEntry>(block: &[u8]) -> bool {
        let want = format!("malformed {} block", E::KIND);
        matches!(IndexBlock::<E>::parse(block), Err(DeviceError::Internal(m)) if m == want)
    }

    /// Damage a block packed from `want` every way that must be caught —
    /// each truncation, a count past its entries, each key length field
    /// pushed past the end — and at random, which may decode or not but
    /// never panics, even when a view of it is searched with `probe`.
    fn check_rejects_damage<E: IndexEntry>(
        block: &[u8],
        want: &[EntryRef<'_>],
        probe: fn(&IndexBlock<'_, E>),
        rng: &mut XorShift64,
    ) {
        for cut in 0..block.len() {
            assert!(malformed::<E>(&block[..cut]), "truncated to {cut}");
        }
        let count = want.len() as u64 + 1;
        let count = count + rng.next_below(u16::MAX as u64 + 1 - count);
        let mut bad = block.to_vec();
        bad[..2].copy_from_slice(&(count as u16).to_le_bytes());
        assert!(malformed::<E>(&bad), "count {count} of {}", want.len());
        let mut at = 2;
        for e in want {
            let room = (block.len() - at - E::HEADER) as u64;
            for field in (0..E::KEYS).map(|k| at + 2 * k) {
                let len = room + 1 + rng.next_below(u16::MAX as u64 - room);
                let mut bad = block.to_vec();
                bad[field..field + 2].copy_from_slice(&(len as u16).to_le_bytes());
                assert!(malformed::<E>(&bad), "length {len} at {field}");
            }
            at += E::extent(e);
        }
        for _ in 0..8 {
            let mut bad = block.to_vec();
            let ix = rng.next_below(bad.len() as u64) as usize;
            bad[ix] = rng.next_u64() as u8;
            if let Ok(view) = IndexBlock::<E>::parse(&bad) {
                assert_eq!(view.iter().count(), view.len());
                probe(&view);
            }
        }
    }

    /// A key drawn to collide: short keys over a four-letter alphabet
    /// that holds `\0` (so `ab` meets `ab\0`), keys sharing one 8-byte
    /// prefix, that prefix cut short, and plain random keys.
    fn colliding_key(rng: &mut XorShift64) -> Vec<u8> {
        const ABC: [u8; 4] = [0, 1, b'a', b'b'];
        let tail = |rng: &mut XorShift64, max: u64| -> Vec<u8> {
            (0..rng.next_below(max + 1))
                .map(|_| ABC[rng.next_below(4) as usize])
                .collect()
        };
        match rng.next_below(4) {
            0 => tail(rng, 3),
            1 => [&b"sharedpf"[..], &tail(rng, 4)].concat(),
            2 => b"sharedpf"[..rng.next_below(9) as usize].to_vec(),
            _ => random_bytes(rng, 12),
        }
    }

    /// Probe keys for searches over `keys`: each key, each key with `\0`
    /// appended or its last byte dropped, the empty key, `ab`, `ab\0`
    /// and fresh colliding keys.
    fn probes(keys: &[Vec<u8>], rng: &mut XorShift64) -> Vec<Vec<u8>> {
        let mut out = vec![Vec::new(), b"ab".to_vec(), b"ab\0".to_vec()];
        for k in keys {
            out.push(k.clone());
            out.push([&k[..], &[0]].concat());
            out.push(k[..k.len().saturating_sub(1)].to_vec());
        }
        out.extend((0..16).map(|_| colliding_key(rng)));
        out
    }

    /// Every bound a scan may start from, for each probe key.
    fn bounds(probes: &[Vec<u8>]) -> Vec<Bound> {
        let mut out = vec![Bound::Unbounded];
        for k in probes {
            out.push(Bound::Included(k.clone()));
            out.push(Bound::Excluded(k.clone()));
        }
        out
    }

    #[test]
    fn prefix_keyed_sketch_matches_a_full_key_search() {
        let mut rng = XorShift64::new(0x5EEC);
        for round in 0..200 {
            let mut pivots: Vec<Vec<u8>> = (0..rng.next_below(40))
                .map(|_| colliding_key(&mut rng))
                .collect();
            pivots.sort();
            let mut pushed = Sketch::default();
            pivots.iter().for_each(|p| pushed.push(p.clone()));
            let restored = Sketch::from_pivots(pivots.clone());
            assert_eq!(pushed, restored);
            for key in probes(&pivots, &mut rng) {
                let block = |ix: usize| (!pivots.is_empty()).then(|| ix.saturating_sub(1) as u32);
                let at_most = block(pivots.partition_point(|p| p.as_slice() <= key.as_slice()));
                let below = block(pivots.partition_point(|p| p.as_slice() < key.as_slice()));
                assert_eq!(
                    restored.locate(&key),
                    at_most,
                    "round {round}: locate {key:?}"
                );
                assert_eq!(
                    restored.locate_first(&key),
                    below,
                    "round {round}: locate_first {key:?}"
                );
            }
        }
    }

    /// The linear walk a binary search in a block must agree with: the
    /// index of the first entry `lo` admits, or the entry count.
    fn linear_start<E: IndexEntry>(view: &IndexBlock<'_, E>, lo: &Bound) -> usize {
        view.iter()
            .position(|e| lo.admits_from_below(e.key))
            .unwrap_or(view.len())
    }

    #[test]
    fn block_searches_match_a_linear_walk() {
        let mut rng = XorShift64::new(0xB15E);
        for round in 0..60 {
            // PIDX: keys may repeat (a key written twice).
            let mut keys: Vec<Vec<u8>> = (0..rng.next_below(200))
                .map(|_| colliding_key(&mut rng))
                .collect();
            keys.sort();
            let mut b = IndexBlockBuilder::<PidxEntry>::default();
            let mut stored = Vec::new();
            for (i, key) in keys.iter().enumerate() {
                let e = EntryRef::primary(key, i as u64, 1);
                if !b.fits(&e) {
                    break;
                }
                b.add(&e);
                stored.push(key.clone());
            }
            let (block, _) = b.finish();
            let view = IndexBlock::<PidxEntry>::parse(&block).unwrap();
            let keys = probes(&stored, &mut rng);
            for key in &keys {
                let linear = view
                    .iter()
                    .take_while(|e| e.key <= key.as_slice())
                    .filter(|e| e.key == key.as_slice())
                    .last()
                    .map(|e| (e.voff, e.vlen));
                assert_eq!(view.find(key), linear, "round {round}: find {key:?}");
            }
            for lo in bounds(&keys) {
                let start = view.partition_point(|k| !lo.admits_from_below(k));
                assert_eq!(
                    start,
                    linear_start(&view, &lo),
                    "round {round}: PIDX {lo:?}"
                );
            }

            // SIDX: secondary keys repeat, ordered by primary key.
            let mut entries: Vec<OwnedSidx> = (0..rng.next_below(200))
                .map(|_| {
                    let skey = colliding_key(&mut rng);
                    (skey, random_bytes(&mut rng, 8), rng.next_u64(), 1)
                })
                .collect();
            entries.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            let mut b = IndexBlockBuilder::<SidxEntry>::default();
            let mut skeys = Vec::new();
            for e in &entries {
                if !b.fits(&secondary(e)) {
                    break;
                }
                b.add(&secondary(e));
                skeys.push(e.0.clone());
            }
            let (block, _) = b.finish();
            let view = IndexBlock::<SidxEntry>::parse(&block).unwrap();
            for lo in bounds(&probes(&skeys, &mut rng)) {
                let start = view.partition_point(|k| !lo.admits_from_below(k));
                assert_eq!(
                    start,
                    linear_start(&view, &lo),
                    "round {round}: SIDX {lo:?}"
                );
            }
        }
    }

    /// The block walk a binary-searched [`BlockIndex::scan`] replaces:
    /// every entry from block `start` on is compared against `lo`.
    fn linear_scan<E: IndexEntry>(
        ix: &BlockIndex,
        mgr: &ZoneManager,
        soc: &mut SocTally<'_>,
        (start, lo, hi, limit): (u32, &Bound, &Bound, Option<u64>),
    ) -> Vec<Hit> {
        soc.cmp(ix.sketch.search_cost());
        let mut hits = Vec::new();
        'blocks: for b in start..ix.blocks {
            let block = ix.read_block(mgr, soc, b).unwrap();
            for e in IndexBlock::<E>::parse(&block).unwrap().iter() {
                soc.cmp(1.0);
                if !lo.admits_from_below(e.key) {
                    continue;
                }
                if !hi.admits_from_above(e.key) {
                    break 'blocks;
                }
                hits.push((e.pkey.to_vec(), (e.voff, e.vlen)));
                if limit.is_some_and(|l| hits.len() as u64 >= l) {
                    break 'blocks;
                }
            }
        }
        hits
    }

    /// Scan `ix` from every bound over `probes`, binary-searched and
    /// linearly: both must return the same hits and charge the same work.
    fn check_scan<E: IndexEntry>(
        mgr: &ZoneManager,
        soc: &SocCharger,
        ix: &BlockIndex,
        probes: &[Vec<u8>],
        rng: &mut XorShift64,
    ) {
        let his = bounds(probes);
        for lo in bounds(probes) {
            let hi = &his[rng.next_below(his.len() as u64) as usize];
            let limit = (rng.next_below(3) > 0).then(|| 1 + rng.next_below(300));
            let start = match &lo {
                Bound::Unbounded => 0,
                Bound::Included(k) => ix.sketch.locate_first(k).unwrap(),
                Bound::Excluded(k) => ix.sketch.locate(k).unwrap(),
            };
            let charged = |scan: &dyn Fn(&mut SocTally<'_>) -> Vec<Hit>| {
                let before = soc.ledger().snapshot();
                let hits = scan(&mut soc.tally());
                let d = soc.ledger().snapshot().since(&before);
                (hits, d.soc_cpu_ns, d.nand_read_pages)
            };
            let args = (start, &lo, hi, limit);
            let fast = charged(&|t| ix.scan::<E>(mgr, t, start, &lo, hi, limit).unwrap());
            let slow = charged(&|t| linear_scan::<E>(ix, mgr, t, args));
            assert_eq!(fast, slow, "{} scan from {lo:?} to {hi:?}", E::KIND);
        }
    }

    #[test]
    fn binary_searched_scan_matches_a_linear_walk() {
        let (mgr, soc, _) = crate::testing::test_stack(256, 3);
        let mut rng = XorShift64::new(0x5CA7);
        for _ in 0..4 {
            let mut keys: Vec<Vec<u8>> = (0..1500).map(|_| colliding_key(&mut rng)).collect();
            keys.sort();
            let mut w = IndexWriter::<PidxEntry>::new(&mgr, 4).unwrap();
            for (i, k) in keys.iter().enumerate() {
                w.push(&mgr, &EntryRef::primary(k, i as u64 * 7, 7))
                    .unwrap();
            }
            let pidx = w.finish(&mgr).unwrap();
            assert!(pidx.blocks > 4, "{} blocks", pidx.blocks);
            let sample: Vec<Vec<u8>> = (0..24)
                .map(|_| keys[rng.next_below(keys.len() as u64) as usize].clone())
                .chain(pidx.sketch.pivots().iter().cloned())
                .collect();
            check_scan::<PidxEntry>(&mgr, &soc, &pidx, &probes(&sample, &mut rng), &mut rng);

            let mut w = IndexWriter::<SidxEntry>::new(&mgr, 4).unwrap();
            for (i, k) in keys.iter().enumerate() {
                let skey = &k[..k.len().min(2)];
                let e = EntryRef {
                    key: skey,
                    pkey: k,
                    voff: i as u64 * 7,
                    vlen: 7,
                };
                w.push(&mgr, &e).unwrap();
            }
            let sidx = w.finish(&mgr).unwrap();
            let sample: Vec<Vec<u8>> = sidx.sketch.pivots().to_vec();
            check_scan::<SidxEntry>(&mgr, &soc, &sidx, &probes(&sample, &mut rng), &mut rng);
            mgr.release_cluster(pidx.cluster).unwrap();
            mgr.release_cluster(sidx.cluster).unwrap();
        }
    }

    #[test]
    fn sketch_locate() {
        let mut s = Sketch::default();
        assert!(s.locate(b"anything").is_none());
        s.push(b"b".to_vec());
        s.push(b"f".to_vec());
        s.push(b"m".to_vec());
        assert_eq!(s.pivots().len(), 3);
        assert_eq!(s.locate(b"a"), Some(0), "before first pivot clamps to 0");
        assert_eq!(s.locate(b"b"), Some(0));
        assert_eq!(s.locate(b"e"), Some(0));
        assert_eq!(s.locate(b"f"), Some(1));
        assert_eq!(s.locate(b"g"), Some(1));
        assert_eq!(s.locate(b"z"), Some(2));
        assert!(s.search_cost() > 1.0);
    }

    #[test]
    fn pidx_block_roundtrip() {
        let mut b = IndexBlockBuilder::<PidxEntry>::default();
        let entries: Vec<Owned> = (0..50)
            .map(|i| (format!("key{i:04}").into_bytes(), i * 100, 100))
            .collect();
        for e in &entries {
            assert!(b.fits(&primary(e)));
            b.add(&primary(e));
        }
        let (block, first) = b.finish();
        assert!(block.len() <= BLOCK_BYTES);
        assert_eq!(first, b"key0000");
        assert_eq!(pidx_entries(&block).unwrap(), entries);
        let view = IndexBlock::<PidxEntry>::parse(&block).unwrap();
        assert_eq!(view.len(), entries.len());
        for (key, voff, vlen) in &entries {
            assert_eq!(view.find(key), Some((*voff, *vlen)));
        }
        assert_eq!(view.find(b"key"), None);
        assert_eq!(view.find(b"key0010x"), None);
        assert_eq!(view.find(b"zzz"), None);
    }

    #[test]
    fn pidx_view_matches_builder_and_rejects_corruption() {
        let mut rng = XorShift64::new(0x9D1C);
        for _ in 0..100 {
            let mut keys: Vec<Vec<u8>> = (0..rng.next_below(300))
                .map(|_| random_bytes(&mut rng, 40))
                .collect();
            keys.sort();
            keys.dedup();
            let mut b = IndexBlockBuilder::<PidxEntry>::default();
            let mut want: Vec<Owned> = Vec::new();
            for key in keys {
                let e = (key, rng.next_u64(), rng.next_u64() as u32);
                if !b.fits(&primary(&e)) {
                    break;
                }
                b.add(&primary(&e));
                want.push(e);
            }
            let (block, _) = b.finish();

            let view = IndexBlock::<PidxEntry>::parse(&block).unwrap();
            assert_eq!(view.len(), want.len());
            assert_eq!(pidx_entries(&block).unwrap(), want);
            for (key, voff, vlen) in &want {
                assert_eq!(view.find(key), Some((*voff, *vlen)));
            }
            let refs: Vec<EntryRef<'_>> = want.iter().map(primary).collect();
            let probe = |view: &IndexBlock<'_, PidxEntry>| {
                view.find(b"key");
            };
            check_rejects_damage(&block, &refs, probe, &mut rng);
        }
    }

    #[test]
    fn pidx_block_capacity_bounded() {
        let mut b = IndexBlockBuilder::<PidxEntry>::default();
        let key = vec![b'k'; 16];
        let mut added = 0;
        while b.fits(&EntryRef::primary(&key, 0, 1)) {
            b.add(&EntryRef::primary(&key, 0, 1));
            added += 1;
        }
        // 4096/30 ~ 136 entries.
        assert!(added > 100 && added < 200, "{added}");
        let (block, _) = b.finish();
        assert!(block.len() <= BLOCK_BYTES);
    }

    #[test]
    fn find_returns_the_last_duplicate() {
        let mut b = IndexBlockBuilder::<PidxEntry>::default();
        for (key, voff) in [
            (&b"a"[..], 0),
            (b"dup", 1),
            (b"dup", 2),
            (b"dup", 3),
            (b"z", 4),
        ] {
            b.add(&EntryRef::primary(key, voff, 1));
        }
        let (block, _) = b.finish();
        let view = IndexBlock::<PidxEntry>::parse(&block).unwrap();
        assert_eq!(view.find(b"dup"), Some((3, 1)));
        assert_eq!(view.find(b"a"), Some((0, 1)));
        assert_eq!(view.find(b"b"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(IndexBlock::<PidxEntry>::parse(&[]).is_err());
        assert!(IndexBlock::<PidxEntry>::parse(&[200, 0, 1]).is_err());
        assert!(IndexBlock::<SidxEntry>::parse(&[]).is_err());
        assert!(IndexBlock::<SidxEntry>::parse(&[200, 0, 1]).is_err());
    }

    #[test]
    fn sidx_block_roundtrip() {
        let mut b = IndexBlockBuilder::<SidxEntry>::default();
        let entries: Vec<OwnedSidx> = (0..40u32)
            .map(|i| {
                (
                    SidxKey::F32(i as f32).encode(),
                    format!("p{i:06}").into_bytes(),
                    i as u64 * 32,
                    32,
                )
            })
            .collect();
        for e in &entries {
            assert!(b.fits(&secondary(e)));
            b.add(&secondary(e));
        }
        let (block, first) = b.finish();
        assert_eq!(first, SidxKey::F32(0.0).encode());
        assert_eq!(sidx_entries(&block).unwrap(), entries);
    }

    #[test]
    fn sidx_view_matches_builder_and_rejects_corruption() {
        let mut rng = XorShift64::new(0x51DE);
        for _ in 0..100 {
            let mut entries: Vec<OwnedSidx> = (0..rng.next_below(250))
                .map(|_| {
                    (
                        random_bytes(&mut rng, 12),
                        random_bytes(&mut rng, 40),
                        rng.next_u64(),
                        rng.next_u64() as u32,
                    )
                })
                .collect();
            entries.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            let mut b = IndexBlockBuilder::<SidxEntry>::default();
            let mut want = Vec::new();
            for e in entries {
                if !b.fits(&secondary(&e)) {
                    break;
                }
                b.add(&secondary(&e));
                want.push(e);
            }
            let (block, _) = b.finish();

            assert_eq!(sidx_entries(&block).unwrap(), want);
            let refs: Vec<EntryRef<'_>> = want.iter().map(secondary).collect();
            let probe = |_: &IndexBlock<'_, SidxEntry>| {};
            check_rejects_damage(&block, &refs, probe, &mut rng);
        }
    }
}
