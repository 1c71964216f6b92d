//! Offloaded, deferred compaction: unordered logs -> PIDX + SORTED_VALUES.
//!
//! "Sorting a keyspace is done in two steps. First, KV-CSD sorts the
//! keys. Then, KV-CSD uses the sorted keys to sort the values. ... Once a
//! keyspace is sorted, its original unsorted data, stored in VLOG and
//! KLOG zone clusters, is deleted and replaced with the newly formed
//! SORTED_VALUES and PIDX zone clusters. ... Both store data as a series
//! of 4 KB data blocks. A small sketch of the PIDX data, consisting of a
//! pivot primary index key and a block pointer for every constituent PIDX
//! data block, is additionally built and stored as keyspace metadata."
//!
//! The value step avoids random VLOG reads by the classic tag-and-resort
//! trick: while emitting sorted keys we learn each value's *rank* and its
//! final byte offset (a running sum of value lengths); we then sort
//! `(voff, rank)` tags back into VLOG order, stream VLOG *sequentially*
//! attaching ranks, and finally resort `(rank, value)` records to produce
//! SORTED_VALUES with nothing but sequential I/O and DRAM-bounded merge
//! passes — "multiple rounds of merge sorts" exactly as the paper says.
//!
//! The same job optionally builds secondary indexes "in one single step"
//! (Section V): given index specs, each primary key rides along with its
//! value through the value pass, and the final pass extracts every
//! index's secondary keys as the values stream into SORTED_VALUES, so
//! the keyspace is never read back for an index scan. The cost is the
//! paper's "increased SoC DRAM usage": one more sorter per index runs
//! next to the value sorter. When a sorter cannot reserve its DRAM the
//! job fails with [`DeviceError::OutOfDram`], and the device falls back
//! to separated construction — plain compaction, then one
//! [`build_secondary_index`](crate::sidx::build_secondary_index) per
//! index.

use kvcsd_proto::SecondaryIndexSpec;
use kvcsd_sim::bytes::{le_u16, le_u32, le_u64, try_le_u16};
use std::cmp::Ordering;

use crate::admission::Deadline;
use crate::dram::DramBudget;
use crate::error::DeviceError;
use crate::extsort::{ExtSorter, SortRecord};
use crate::ingest::{KlogRecord, StreamReader};
use crate::keyspace::Sketch;
use crate::sidx::{write_sidx_blocks, SidxEntry, SidxOutput};
use crate::soc::SocCharger;
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;
use crate::BLOCK_BYTES;

// ---------------------------------------------------------------------------
// PIDX block format
// ---------------------------------------------------------------------------

/// One primary-index entry: key -> value locator in SORTED_VALUES.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PidxEntry {
    pub key: Vec<u8>,
    pub voff: u64,
    pub vlen: u32,
}

const PIDX_ENTRY_HEADER: usize = 2 + 8 + 4;

/// Packs self-contained PIDX blocks (entries never span blocks, so the
/// sketch can address blocks independently).
#[derive(Debug, Default)]
pub struct PidxBlockBuilder {
    buf: Vec<u8>,
    count: u16,
    first_key: Option<Vec<u8>>,
}

impl PidxBlockBuilder {
    pub fn new() -> Self {
        Self {
            buf: Vec::with_capacity(BLOCK_BYTES),
            count: 0,
            first_key: None,
        }
    }

    /// True if an entry with `key_len`-byte key fits in the current block.
    pub fn fits(&self, key_len: usize) -> bool {
        2 + self.buf.len() + PIDX_ENTRY_HEADER + key_len <= BLOCK_BYTES
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append an entry; caller checks [`PidxBlockBuilder::fits`] first.
    pub fn add(&mut self, e: &PidxEntry) {
        debug_assert!(self.fits(e.key.len()));
        if self.first_key.is_none() {
            self.first_key = Some(e.key.clone());
        }
        self.buf
            .extend_from_slice(&(e.key.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(&e.voff.to_le_bytes());
        self.buf.extend_from_slice(&e.vlen.to_le_bytes());
        self.buf.extend_from_slice(&e.key);
        self.count += 1;
    }

    /// Seal the block: returns `(block bytes, first key)` and resets.
    pub fn finish(&mut self) -> (Vec<u8>, Vec<u8>) {
        let mut block = Vec::with_capacity(2 + self.buf.len());
        block.extend_from_slice(&self.count.to_le_bytes());
        block.extend_from_slice(&self.buf);
        let first = self.first_key.take().unwrap_or_default();
        self.buf.clear();
        self.count = 0;
        (block, first)
    }
}

/// A validated, borrowed view of one PIDX block produced by
/// [`PidxBlockBuilder`]. The query engine searches the block in place:
/// only the keys it returns are copied out.
#[derive(Debug, Clone, Copy)]
pub struct PidxBlock<'a> {
    /// The `count` entries, with the block's padding cut off.
    entries: &'a [u8],
    count: usize,
}

impl<'a> PidxBlock<'a> {
    /// Check that `block` holds the whole of every entry its count
    /// announces; anything else is a malformed block.
    pub fn parse(block: &'a [u8]) -> Result<Self> {
        let bad = || DeviceError::Internal("malformed PIDX block".into());
        let count = try_le_u16(block, 0).ok_or_else(bad)? as usize;
        let mut end = 2usize;
        for _ in 0..count {
            let klen = try_le_u16(block, end).ok_or_else(bad)? as usize;
            end += PIDX_ENTRY_HEADER + klen;
            if end > block.len() {
                return Err(bad());
            }
        }
        Ok(Self {
            entries: &block[2..end],
            count,
        })
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Entries in key order, as `(key, voff, vlen)`.
    pub fn iter(&self) -> PidxIter<'a> {
        PidxIter { rest: self.entries }
    }

    /// The value locator `(voff, vlen)` stored under `key`, if any. A
    /// key written twice has two entries, kept in write order by the
    /// stable compaction sort; the last one is the live value.
    pub fn find(&self, key: &[u8]) -> Option<(u64, u32)> {
        let mut found = None;
        for (k, voff, vlen) in self.iter() {
            match k.cmp(key) {
                Ordering::Less => {}
                Ordering::Equal => found = Some((voff, vlen)),
                Ordering::Greater => break,
            }
        }
        found
    }
}

/// Iterator over a [`PidxBlock`].
#[derive(Debug, Clone)]
pub struct PidxIter<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for PidxIter<'a> {
    type Item = (&'a [u8], u64, u32);

    fn next(&mut self) -> Option<Self::Item> {
        // `PidxBlock::parse` checked every entry's extent.
        let (hdr, rest) = self.rest.split_first_chunk::<PIDX_ENTRY_HEADER>()?;
        let (key, rest) = rest.split_at(le_u16(hdr, 0) as usize);
        self.rest = rest;
        Some((key, le_u64(hdr, 2), le_u32(hdr, 10)))
    }
}

// ---------------------------------------------------------------------------
// Auxiliary sort records for the value pass
// ---------------------------------------------------------------------------

/// The primary-key field of the value-pass records: a `u16` length and
/// the key when the pass also builds secondary indexes (`KEYED`), else
/// nothing.
fn key_field_len<const KEYED: bool>(key: &[u8]) -> usize {
    if KEYED {
        2 + key.len()
    } else {
        0
    }
}

fn encode_key_field<const KEYED: bool>(key: &[u8], out: &mut Vec<u8>) {
    if KEYED {
        out.extend_from_slice(&(key.len() as u16).to_le_bytes());
        out.extend_from_slice(key);
    }
}

fn read_key_field<const KEYED: bool>(r: &mut StreamReader<'_>) -> Result<Vec<u8>> {
    if !KEYED {
        return Ok(Vec::new());
    }
    let klen = le_u16(&r.read_array::<2>()?, 0) as usize;
    r.read(klen)
}

/// Tag sorted back into VLOG order: where each value sits in VLOG, the
/// rank it must take in SORTED_VALUES and, if `KEYED`, its primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GatherRec<const KEYED: bool> {
    voff: u64,
    vlen: u32,
    rank: u64,
    /// Empty unless `KEYED`.
    key: Vec<u8>,
}

impl<const KEYED: bool> SortRecord for GatherRec<KEYED> {
    fn encoded_len(&self) -> usize {
        20 + key_field_len::<KEYED>(&self.key)
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.voff.to_le_bytes());
        out.extend_from_slice(&self.vlen.to_le_bytes());
        out.extend_from_slice(&self.rank.to_le_bytes());
        encode_key_field::<KEYED>(&self.key, out);
    }
    fn read_from(r: &mut StreamReader<'_>) -> Result<Self> {
        let b = r.read_array::<20>()?;
        Ok(GatherRec {
            voff: le_u64(&b, 0),
            vlen: le_u32(&b, 8),
            rank: le_u64(&b, 12),
            key: read_key_field::<KEYED>(r)?,
        })
    }
    fn cmp_key(&self, other: &Self) -> Ordering {
        // Zero-length values share their starting offset with the next
        // real value; they must be consumed first to keep the VLOG read
        // strictly sequential. At most one record of nonzero length can
        // start at a given offset, so (voff, vlen) is a total enough order.
        self.voff.cmp(&other.voff).then(self.vlen.cmp(&other.vlen))
    }
}

/// A value tagged with its output rank and, if `KEYED`, its primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ValueRec<const KEYED: bool> {
    rank: u64,
    /// Empty unless `KEYED`.
    key: Vec<u8>,
    value: Vec<u8>,
}

impl<const KEYED: bool> SortRecord for ValueRec<KEYED> {
    fn encoded_len(&self) -> usize {
        12 + key_field_len::<KEYED>(&self.key) + self.value.len()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        encode_key_field::<KEYED>(&self.key, out);
        out.extend_from_slice(&self.value);
    }
    fn read_from(r: &mut StreamReader<'_>) -> Result<Self> {
        let hdr = r.read_array::<12>()?;
        let vlen = le_u32(&hdr, 8) as usize;
        Ok(ValueRec {
            rank: le_u64(&hdr, 0),
            key: read_key_field::<KEYED>(r)?,
            value: r.read(vlen)?,
        })
    }
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.rank.cmp(&other.rank)
    }
}

// ---------------------------------------------------------------------------
// The compaction job
// ---------------------------------------------------------------------------

/// Result of compacting one keyspace.
#[derive(Debug)]
pub struct CompactionOutput {
    pub pidx: (ClusterId, u32),
    pub sketch: Sketch,
    pub svalues: (ClusterId, u64),
    pub pairs: u64,
}

/// Sort a sealed keyspace: consume its KLOG/VLOG clusters (released on
/// success) and produce PIDX + SORTED_VALUES clusters plus the sketch,
/// and one secondary index per entry of `specs` (none when empty).
///
/// The deadline is checked at each phase boundary; an expired compaction
/// aborts between passes and the caller's orphan sweep unwinds its
/// partial output (the sealed logs stay untouched until the final swap).
/// So does a failure to reserve sorter DRAM, reported as
/// [`DeviceError::OutOfDram`]: with indexes, that is the caller's cue to
/// fall back to separated construction.
#[allow(clippy::too_many_arguments)]
pub fn run_compaction(
    mgr: &ZoneManager,
    soc: &SocCharger,
    dram: &DramBudget,
    klog: (ClusterId, u64),
    vlog: (ClusterId, u64),
    pairs: u64,
    cluster_width: u32,
    specs: &[SecondaryIndexSpec],
    deadline: &Deadline<'_>,
) -> Result<(CompactionOutput, Vec<SidxOutput>)> {
    let run = if specs.is_empty() {
        compact::<false>
    } else {
        compact::<true>
    };
    run(
        mgr,
        soc,
        dram,
        klog,
        vlog,
        pairs,
        cluster_width,
        specs,
        deadline,
    )
}

/// The pipeline behind [`run_compaction`]; `KEYED` (set exactly when
/// `specs` is not empty) carries each primary key through the value pass
/// for the index entries.
#[allow(clippy::too_many_arguments)]
fn compact<const KEYED: bool>(
    mgr: &ZoneManager,
    soc: &SocCharger,
    dram: &DramBudget,
    klog: (ClusterId, u64),
    vlog: (ClusterId, u64),
    pairs: u64,
    cluster_width: u32,
    specs: &[SecondaryIndexSpec],
    deadline: &Deadline<'_>,
) -> Result<(CompactionOutput, Vec<SidxOutput>)> {
    // ---- Step 1: sort the keys ---------------------------------------
    let mut key_sorter: ExtSorter<'_, KlogRecord> = ExtSorter::new(mgr, soc, dram, cluster_width)?;
    {
        let mut r = StreamReader::new(mgr, klog.0, klog.1);
        for _ in 0..pairs {
            let rec = KlogRecord::read_from(&mut r)?;
            soc.bytes(rec.encoded_len());
            key_sorter.push(rec)?;
        }
    }
    deadline.check()?;

    // Emit PIDX blocks + sketch; collect the gather tags.
    let pidx_cluster = mgr.alloc_cluster(cluster_width)?;
    let mut sketch = Sketch::new();
    let mut builder = PidxBlockBuilder::new();
    let mut pidx_blocks = 0u32;
    let mut gather_sorter: ExtSorter<'_, GatherRec<KEYED>> =
        ExtSorter::new(mgr, soc, dram, cluster_width)?;
    let mut rank = 0u64;
    let mut out_voff = 0u64;
    key_sorter.finish_into(|rec| {
        let e = PidxEntry {
            key: rec.key,
            voff: out_voff,
            vlen: rec.vlen,
        };
        if !builder.fits(e.key.len()) {
            let (block, first) = builder.finish();
            mgr.append_block(pidx_cluster, &block)?;
            sketch.push(first);
            pidx_blocks += 1;
        }
        builder.add(&e);
        gather_sorter.push(GatherRec {
            voff: rec.voff,
            vlen: rec.vlen,
            rank,
            key: if KEYED { e.key } else { Vec::new() },
        })?;
        rank += 1;
        out_voff += rec.vlen as u64;
        Ok(())
    })?;
    if !builder.is_empty() {
        let (block, first) = builder.finish();
        mgr.append_block(pidx_cluster, &block)?;
        sketch.push(first);
        pidx_blocks += 1;
    }
    deadline.check()?;

    // ---- Step 2: sort the values ---------------------------------------
    // One index sorter per spec runs alongside the value sorter: the
    // single step's "increased SoC DRAM usage".
    let mut sidx_sorters: Vec<ExtSorter<'_, SidxEntry>> = specs
        .iter()
        .map(|_| ExtSorter::new(mgr, soc, dram, cluster_width))
        .collect::<Result<_>>()?;
    // 2a: tags back into VLOG order (they are a permutation of the
    //     VLOG byte sequence, so this merge restores sequential reads).
    let mut value_sorter: ExtSorter<'_, ValueRec<KEYED>> =
        ExtSorter::new(mgr, soc, dram, cluster_width)?;
    {
        let mut vread = StreamReader::new(mgr, vlog.0, vlog.1);
        gather_sorter.finish_into(|tag| {
            debug_assert_eq!(vread.position(), tag.voff, "VLOG reads must be sequential");
            let value = vread.read(tag.vlen as usize)?;
            soc.memcpy(value.len());
            value_sorter.push(ValueRec {
                rank: tag.rank,
                key: tag.key,
                value,
            })?;
            Ok(())
        })?;
    }
    deadline.check()?;

    // 2b: values into final order, streamed into SORTED_VALUES, with
    //     the secondary keys extracted in flight.
    let svalues_cluster = mgr.alloc_cluster(cluster_width)?;
    let mut writer = crate::ingest::BlockStreamWriter::new(svalues_cluster);
    let mut expected_rank = 0u64;
    value_sorter.finish_into(|vr| {
        debug_assert_eq!(vr.rank, expected_rank, "ranks must arrive in order");
        let voff = writer.position();
        for (spec, sorter) in specs.iter().zip(&mut sidx_sorters) {
            if let Some(skey) = spec.extract(&vr.value) {
                soc.bytes(spec.value_len);
                sorter.push(SidxEntry {
                    skey,
                    pkey: vr.key.clone(),
                    voff,
                    vlen: vr.value.len() as u32,
                })?;
            }
        }
        expected_rank += 1;
        soc.memcpy(vr.value.len());
        writer.append(mgr, &vr.value)?;
        Ok(())
    })?;
    let svalues_len = writer.seal(mgr)?;
    debug_assert_eq!(svalues_len, out_voff);

    // ---- Finish the indexes ----------------------------------------------
    // A plain job has no work left worth aborting for.
    if KEYED {
        deadline.check()?;
    }
    let sidx = sidx_sorters
        .into_iter()
        .map(|sorter| write_sidx_blocks(mgr, sorter, cluster_width))
        .collect::<Result<_>>()?;

    // ---- Replace the logs -------------------------------------------------
    mgr.release_cluster(klog.0)?;
    mgr.release_cluster(vlog.0)?;

    Ok((
        CompactionOutput {
            pidx: (pidx_cluster, pidx_blocks),
            sketch,
            svalues: (svalues_cluster, svalues_len),
            pairs,
        },
        sidx,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::WriteLog;
    use crate::testing::test_stack;
    use kvcsd_sim::XorShift64;

    /// Load `n` pairs with shuffled keys, compact, and return everything
    /// needed to verify the output.
    #[allow(clippy::type_complexity)]
    fn load_and_compact(
        n: u64,
        mgr: &ZoneManager,
        soc: &SocCharger,
        dram: &DramBudget,
    ) -> (CompactionOutput, Vec<(Vec<u8>, Vec<u8>)>) {
        let kc = mgr.alloc_cluster(4).unwrap();
        let vc = mgr.alloc_cluster(4).unwrap();
        let mut log = WriteLog::new(kc, vc);
        let mut rng = XorShift64::new(n ^ 0xABCD);
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0..n {
            let key = format!("k{:012}", rng.next_below(u32::MAX as u64)).into_bytes();
            let value = format!("value-{i:08}-{}", rng.next_u64()).into_bytes();
            log.put(mgr, soc, &key, &value).unwrap();
            pairs.push((key, value));
        }
        let (klen, vlen) = log.seal(mgr).unwrap();
        let out = run_compaction(
            mgr,
            soc,
            dram,
            (kc, klen),
            (vc, vlen),
            n,
            4,
            &[],
            &Deadline::none(),
        )
        .unwrap()
        .0;
        pairs.sort();
        (out, pairs)
    }

    /// Every entry of a PIDX block, copied out through the view.
    fn pidx_entries(block: &[u8]) -> Result<Vec<PidxEntry>> {
        Ok(PidxBlock::parse(block)?
            .iter()
            .map(|(key, voff, vlen)| PidxEntry {
                key: key.to_vec(),
                voff,
                vlen,
            })
            .collect())
    }

    fn read_all_entries(mgr: &ZoneManager, out: &CompactionOutput) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut got = Vec::new();
        for b in 0..out.pidx.1 {
            let block = mgr.read_block(out.pidx.0, b as u64).unwrap();
            for e in pidx_entries(&block).unwrap() {
                let v = mgr
                    .read_bytes(out.svalues.0, e.voff, e.vlen as usize)
                    .unwrap();
                got.push((e.key, v));
            }
        }
        got
    }

    #[test]
    fn pidx_block_roundtrip() {
        let mut b = PidxBlockBuilder::new();
        let entries: Vec<PidxEntry> = (0..50)
            .map(|i| PidxEntry {
                key: format!("key{i:04}").into_bytes(),
                voff: i * 100,
                vlen: 100,
            })
            .collect();
        for e in &entries {
            assert!(b.fits(e.key.len()));
            b.add(e);
        }
        let (block, first) = b.finish();
        assert!(block.len() <= BLOCK_BYTES);
        assert_eq!(first, b"key0000");
        assert_eq!(pidx_entries(&block).unwrap(), entries);
        let view = PidxBlock::parse(&block).unwrap();
        assert_eq!(view.len(), entries.len());
        for e in &entries {
            assert_eq!(view.find(&e.key), Some((e.voff, e.vlen)));
        }
        assert_eq!(view.find(b"key"), None);
        assert_eq!(view.find(b"key0010x"), None);
        assert_eq!(view.find(b"zzz"), None);
    }

    #[test]
    fn pidx_view_matches_builder_and_rejects_corruption() {
        let malformed = |b: &[u8]| {
            matches!(PidxBlock::parse(b),
                Err(DeviceError::Internal(m)) if m == "malformed PIDX block")
        };
        let mut rng = XorShift64::new(0x9D1C);
        for _ in 0..100 {
            let mut keys: Vec<Vec<u8>> = (0..rng.next_below(300))
                .map(|_| {
                    let len = rng.next_below(41);
                    (0..len).map(|_| rng.next_u64() as u8).collect()
                })
                .collect();
            keys.sort();
            keys.dedup();
            let mut b = PidxBlockBuilder::new();
            let mut want = Vec::new();
            for key in keys {
                if !b.fits(key.len()) {
                    break;
                }
                let e = PidxEntry {
                    key,
                    voff: rng.next_u64(),
                    vlen: rng.next_u64() as u32,
                };
                b.add(&e);
                want.push(e);
            }
            let (block, _) = b.finish();

            let view = PidxBlock::parse(&block).unwrap();
            assert_eq!(view.len(), want.len());
            assert_eq!(pidx_entries(&block).unwrap(), want);
            for e in &want {
                assert_eq!(view.find(&e.key), Some((e.voff, e.vlen)));
            }

            for cut in 0..block.len() {
                assert!(malformed(&block[..cut]), "truncated to {cut}");
            }
            let mut bad = block.clone();
            let count = want.len() as u64 + 1;
            let count = count + rng.next_below(u16::MAX as u64 + 1 - count);
            bad[..2].copy_from_slice(&(count as u16).to_le_bytes());
            assert!(malformed(&bad), "count {count} of {}", want.len());
            // Each key length in turn, pushed past the end of the block.
            let mut at = 2;
            for e in &want {
                let room = (block.len() - at - PIDX_ENTRY_HEADER) as u64;
                let klen = room + 1 + rng.next_below(u16::MAX as u64 - room);
                let mut bad = block.clone();
                bad[at..at + 2].copy_from_slice(&(klen as u16).to_le_bytes());
                assert!(malformed(&bad), "klen {klen} at {at}");
                at += PIDX_ENTRY_HEADER + e.key.len();
            }
            // Arbitrary damage may decode or not, but never panics.
            for _ in 0..8 {
                let mut bad = block.clone();
                let ix = rng.next_below(bad.len() as u64) as usize;
                bad[ix] = rng.next_u64() as u8;
                if let Ok(view) = PidxBlock::parse(&bad) {
                    assert_eq!(view.iter().count(), view.len());
                    view.find(b"key");
                }
            }
        }
    }

    #[test]
    fn pidx_block_capacity_bounded() {
        let mut b = PidxBlockBuilder::new();
        let mut added = 0;
        loop {
            let e = PidxEntry {
                key: vec![b'k'; 16],
                voff: 0,
                vlen: 1,
            };
            if !b.fits(e.key.len()) {
                break;
            }
            b.add(&e);
            added += 1;
        }
        // 4096/30 ~ 136 entries.
        assert!(added > 100 && added < 200, "{added}");
        let (block, _) = b.finish();
        assert!(block.len() <= BLOCK_BYTES);
    }

    #[test]
    fn find_returns_the_last_duplicate() {
        let mut b = PidxBlockBuilder::new();
        for (key, voff) in [
            (&b"a"[..], 0),
            (b"dup", 1),
            (b"dup", 2),
            (b"dup", 3),
            (b"z", 4),
        ] {
            b.add(&PidxEntry {
                key: key.to_vec(),
                voff,
                vlen: 1,
            });
        }
        let (block, _) = b.finish();
        let view = PidxBlock::parse(&block).unwrap();
        assert_eq!(view.find(b"dup"), Some((3, 1)));
        assert_eq!(view.find(b"a"), Some((0, 1)));
        assert_eq!(view.find(b"b"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PidxBlock::parse(&[]).is_err());
        assert!(PidxBlock::parse(&[200, 0, 1]).is_err());
    }

    #[test]
    fn compaction_sorts_small_keyspace() {
        let (mgr, soc, dram) = test_stack(64, 123);
        let (out, want) = load_and_compact(500, &mgr, &soc, &dram);
        assert_eq!(out.pairs, 500);
        assert_eq!(out.sketch.blocks(), out.pidx.1);
        let got = read_all_entries(&mgr, &out);
        assert_eq!(got, want);
    }

    #[test]
    fn compaction_handles_multi_run_sorts() {
        let (mgr, soc, _dram) = test_stack(512, 123);
        // Use a tight budget so the sort genuinely spills and merges.
        let tight = DramBudget::new(256 << 10);
        let (out, want) = load_and_compact(20_000, &mgr, &soc, &tight);
        let got = read_all_entries(&mgr, &out);
        assert_eq!(got.len(), want.len());
        assert_eq!(got, want);
    }

    #[test]
    fn logs_are_released_after_compaction() {
        let (mgr, soc, dram) = test_stack(64, 123);
        let before = mgr.cluster_count();
        let (out, _) = load_and_compact(200, &mgr, &soc, &dram);
        // Only the two output clusters remain beyond the baseline.
        assert_eq!(mgr.cluster_count(), before + 2);
        assert_eq!(dram.used(), 0);
        let _ = out;
    }

    #[test]
    fn compaction_io_and_cpu_are_charged_to_device() {
        let (mgr, soc, dram) = test_stack(128, 123);
        let before = soc.ledger().snapshot();
        load_and_compact(5_000, &mgr, &soc, &dram);
        let d = soc.ledger().snapshot().since(&before);
        assert!(d.soc_cpu_ns > 0);
        assert_eq!(
            d.host_cpu_ns, 0,
            "offloaded compaction must not use host CPU"
        );
        assert_eq!(
            d.pcie_bytes(),
            0,
            "compaction must not move data over the bus"
        );
        assert!(d.nand_read_pages > 0 && d.nand_program_pages > 0);
    }

    #[test]
    fn empty_keyspace_compacts_to_empty_output() {
        let (mgr, soc, dram) = test_stack(64, 123);
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        let (klen, vlen) = log.seal(&mgr).unwrap();
        let out = run_compaction(
            &mgr,
            &soc,
            &dram,
            (kc, klen),
            (vc, vlen),
            0,
            2,
            &[],
            &Deadline::none(),
        )
        .unwrap()
        .0;
        assert_eq!(out.pairs, 0);
        assert_eq!(out.pidx.1, 0);
        assert!(out.sketch.is_empty());
        assert_eq!(out.svalues.1, 0);
    }

    #[test]
    fn duplicate_keys_survive_side_by_side() {
        // KV-CSD's minimal LSM has no overwrite semantics before
        // compaction (keys within a keyspace are expected unique); if an
        // application inserts duplicates they are all retained, sorted.
        let (mgr, soc, dram) = test_stack(64, 123);
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        for i in 0..10u32 {
            log.put(&mgr, &soc, b"same-key", format!("v{i}").as_bytes())
                .unwrap();
        }
        let (klen, vlen) = log.seal(&mgr).unwrap();
        let out = run_compaction(
            &mgr,
            &soc,
            &dram,
            (kc, klen),
            (vc, vlen),
            10,
            2,
            &[],
            &Deadline::none(),
        )
        .unwrap()
        .0;
        let got = read_all_entries(&mgr, &out);
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|(k, _)| k == b"same-key"));
    }

    #[test]
    fn single_pass_matches_separated_path() {
        use crate::sidx::{build_secondary_index, SidxBlock};
        use kvcsd_proto::{SecondaryIndexSpec, SecondaryKeyType};

        let spec = SecondaryIndexSpec {
            name: "tail".into(),
            value_offset: 8,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        };
        let load = |mgr: &ZoneManager, soc: &SocCharger| {
            let kc = mgr.alloc_cluster(4).unwrap();
            let vc = mgr.alloc_cluster(4).unwrap();
            let mut log = WriteLog::new(kc, vc);
            let mut rng = XorShift64::new(0xFACE);
            for _ in 0..2_000u32 {
                let key = format!("k{:010}", rng.next_below(u32::MAX as u64)).into_bytes();
                let mut value = vec![0u8; 16];
                value[8..12].copy_from_slice(&(rng.next_below(500) as u32).to_le_bytes());
                log.put(mgr, soc, &key, &value).unwrap();
            }
            let (klen, vlen) = log.seal(mgr).unwrap();
            ((kc, klen), (vc, vlen))
        };

        // Separated path.
        let (mgr_a, soc_a, dram_a) = test_stack(512, 123);
        let (klog, vlog) = load(&mgr_a, &soc_a);
        let (cout_a, _) = run_compaction(
            &mgr_a,
            &soc_a,
            &dram_a,
            klog,
            vlog,
            2_000,
            4,
            &[],
            &Deadline::none(),
        )
        .unwrap();
        let sout_a = build_secondary_index(
            &mgr_a,
            &soc_a,
            &dram_a,
            cout_a.pidx,
            cout_a.svalues,
            &spec,
            4,
            &Deadline::none(),
        )
        .unwrap();

        // Single pass.
        let (mgr_b, soc_b, dram_b) = test_stack(512, 123);
        let (klog, vlog) = load(&mgr_b, &soc_b);
        let (cout_b, souts_b) = run_compaction(
            &mgr_b,
            &soc_b,
            &dram_b,
            klog,
            vlog,
            2_000,
            4,
            std::slice::from_ref(&spec),
            &Deadline::none(),
        )
        .unwrap();
        let sout_b = &souts_b[0];

        // Identical primary data.
        assert_eq!(
            read_all_entries(&mgr_a, &cout_a),
            read_all_entries(&mgr_b, &cout_b)
        );
        // Identical secondary indexes.
        assert_eq!(sout_a.entries, sout_b.entries);
        let read_sidx = |mgr: &ZoneManager, out: &crate::sidx::SidxOutput| {
            let mut v = Vec::new();
            for b in 0..out.blocks {
                let block = mgr.read_block(out.cluster, b as u64).unwrap();
                let view = SidxBlock::parse(&block).unwrap();
                v.extend(
                    view.iter()
                        .map(|(s, p, voff, vlen)| (s.to_vec(), p.to_vec(), voff, vlen)),
                );
            }
            v
        };
        assert_eq!(read_sidx(&mgr_a, &sout_a), read_sidx(&mgr_b, sout_b));

        // And the single pass reads the keyspace data fewer times: the
        // separated path's index build re-reads PIDX + SORTED_VALUES.
        let reads_a = soc_a.ledger().snapshot().nand_read_pages;
        let reads_b = soc_b.ledger().snapshot().nand_read_pages;
        assert!(
            reads_b < reads_a,
            "single pass must read less: {reads_b} vs {reads_a}"
        );
    }

    #[test]
    fn output_bytes_do_not_depend_on_sort_dram() {
        use crate::sidx::SidxOutput;
        use kvcsd_proto::SecondaryKeyType;
        let spec = SecondaryIndexSpec {
            name: "tail".into(),
            value_offset: 8,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        };
        let blocks = |mgr: &ZoneManager, cluster: ClusterId, n: u64| {
            (0..n)
                .map(|b| mgr.read_block(cluster, b).unwrap())
                .collect::<Vec<_>>()
        };
        let run = |dram_bytes: u64| {
            let (mgr, soc, _) = test_stack(512, 123);
            let kc = mgr.alloc_cluster(4).unwrap();
            let vc = mgr.alloc_cluster(4).unwrap();
            let mut log = WriteLog::new(kc, vc);
            let mut rng = XorShift64::new(0x5EED);
            // Few distinct primary and secondary keys: each is written
            // many times, and only arrival order tells the copies apart.
            for i in 0..8_000u32 {
                let key = format!("k{:04}", rng.next_below(600)).into_bytes();
                let mut value = vec![(i % 251) as u8; 12 + rng.next_below(24) as usize];
                value[8..12].copy_from_slice(&(rng.next_below(700) as u32).to_le_bytes());
                log.put(&mgr, &soc, &key, &value).unwrap();
            }
            let (klen, vlen) = log.seal(&mgr).unwrap();
            let dram = DramBudget::new(dram_bytes);
            let (out, sidx) = run_compaction(
                &mgr,
                &soc,
                &dram,
                (kc, klen),
                (vc, vlen),
                8_000,
                4,
                std::slice::from_ref(&spec),
                &Deadline::none(),
            )
            .unwrap();
            let SidxOutput {
                cluster, blocks: n, ..
            } = sidx[0];
            (
                blocks(&mgr, out.pidx.0, out.pidx.1 as u64),
                blocks(
                    &mgr,
                    out.svalues.0,
                    out.svalues.1.div_ceil(BLOCK_BYTES as u64),
                ),
                blocks(&mgr, cluster, n as u64),
                soc.ledger().snapshot().nand_program_pages,
            )
        };
        let (pidx, svalues, sidx, programs) = run(64 << 20);
        // Every sort spills under the tight budget, the key sort too.
        let (tight_pidx, tight_svalues, tight_sidx, tight_programs) = run(256 << 10);
        assert!(tight_programs > programs, "the tight budget spills");
        assert!(pidx == tight_pidx, "PIDX bytes differ");
        assert!(svalues == tight_svalues, "SORTED_VALUES bytes differ");
        assert!(sidx == tight_sidx, "SIDX bytes differ");
    }

    #[test]
    fn single_pass_fails_cleanly_without_dram() {
        use kvcsd_proto::{SecondaryIndexSpec, SecondaryKeyType};
        let (mgr, soc, _big) = test_stack(256, 123);
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        for i in 0..100u32 {
            log.put(&mgr, &soc, format!("k{i:05}").as_bytes(), &[0u8; 16])
                .unwrap();
        }
        let (klen, vlen) = log.seal(&mgr).unwrap();
        // Barely enough DRAM for two sorters, not four.
        let tight = DramBudget::new(150 << 10);
        let specs = vec![SecondaryIndexSpec {
            name: "a".into(),
            value_offset: 0,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        }];
        let err = run_compaction(
            &mgr,
            &soc,
            &tight,
            (kc, klen),
            (vc, vlen),
            100,
            2,
            &specs,
            &Deadline::none(),
        )
        .unwrap_err();
        assert_eq!(err, DeviceError::OutOfDram("sort DRAM"));
    }

    /// The ledger charges of the plain, single-pass and DRAM-fallback
    /// compactions of one fixed keyspace. The numbers are the model's:
    /// a change to any of them changes every published figure.
    #[test]
    fn compaction_charges_are_pinned() {
        use crate::sidx::build_secondary_index;
        use kvcsd_proto::SecondaryKeyType;

        let spec = SecondaryIndexSpec {
            name: "tail".into(),
            value_offset: 8,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        };
        let specs = std::slice::from_ref(&spec);
        let none = Deadline::none();
        let run = |case: &str| {
            let (mgr, soc, _) = test_stack(512, 123);
            let kc = mgr.alloc_cluster(4).unwrap();
            let vc = mgr.alloc_cluster(4).unwrap();
            let mut log = WriteLog::new(kc, vc);
            let mut rng = XorShift64::new(0x91AE);
            for i in 0..5_000u32 {
                let key = format!("k{:010}", rng.next_below(u32::MAX as u64)).into_bytes();
                let mut value = vec![(i % 251) as u8; 12 + rng.next_below(24) as usize];
                value[8..12].copy_from_slice(&(rng.next_below(700) as u32).to_le_bytes());
                log.put(&mgr, &soc, &key, &value).unwrap();
            }
            let (klen, vlen) = log.seal(&mgr).unwrap();
            let (klog, vlog) = ((kc, klen), (vc, vlen));
            // The key sort fits in DRAM and does no zone I/O; the later
            // sorts reserve less, so they spill runs and merge them.
            let dram = DramBudget::new(256 << 10);
            let before = soc.ledger().snapshot();
            match case {
                "plain" => {
                    run_compaction(&mgr, &soc, &dram, klog, vlog, 5_000, 4, &[], &none).unwrap();
                }
                "single pass" => {
                    run_compaction(&mgr, &soc, &dram, klog, vlog, 5_000, 4, specs, &none).unwrap();
                }
                _ => {
                    // Too tight for the index sorter next to the value
                    // sorter: the single pass gives up, the separated
                    // passes fit.
                    let dram = DramBudget::new(150 << 10);
                    let err = run_compaction(&mgr, &soc, &dram, klog, vlog, 5_000, 4, specs, &none)
                        .unwrap_err();
                    assert_eq!(err, DeviceError::OutOfDram("sort DRAM"));
                    let (out, _) =
                        run_compaction(&mgr, &soc, &dram, klog, vlog, 5_000, 4, &[], &none)
                            .unwrap();
                    build_secondary_index(
                        &mgr,
                        &soc,
                        &dram,
                        out.pidx,
                        out.svalues,
                        &spec,
                        4,
                        &none,
                    )
                    .unwrap();
                }
            }
            assert_eq!(dram.used(), 0);
            let d = soc.ledger().snapshot().since(&before);
            (
                d.soc_cpu_ns,
                d.nand_read_pages,
                d.nand_program_pages,
                d.nand_erase_blocks,
                d.channel_busy_ns,
            )
        };
        assert_eq!(
            run("plain"),
            (
                9_720_813,
                131,
                131,
                15,
                vec![0, 242_880, 2_327_096, 6_689_832, 8_935_968, 4_188_265, 6_662_717, 4_718_575]
            )
        );
        assert_eq!(
            run("single pass"),
            (
                13_115_302,
                205,
                243,
                23,
                vec![
                    113_344, 4_747_703, 2_472_824, 9_065_504, 20_520_474, 6_752_587, 6_576_488,
                    2_258_687
                ]
            )
        );
        assert_eq!(
            run("fallback"),
            (
                19_123_021,
                324,
                336,
                31,
                vec![
                    2_490_644, 15_759_362, 7_052_568, 11_555_378, 13_912_845, 9_124_233, 6_993_454,
                    4_618_552
                ]
            )
        );
    }

    #[test]
    fn expired_deadline_aborts_between_phases() {
        use kvcsd_sim::VirtualClock;
        let (mgr, soc, dram) = test_stack(64, 123);
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        for i in 0..200u32 {
            log.put(&mgr, &soc, format!("k{i:06}").as_bytes(), &[7u8; 32])
                .unwrap();
        }
        let (klen, vlen) = log.seal(&mgr).unwrap();
        let clock = VirtualClock::new();
        clock.advance(1000);
        let expired = Deadline::new(&clock, Some(500));
        let err = run_compaction(
            &mgr,
            &soc,
            &dram,
            (kc, klen),
            (vc, vlen),
            200,
            2,
            &[],
            &expired,
        )
        .unwrap_err();
        assert_eq!(err, DeviceError::DeadlineExceeded);
        assert_eq!(dram.used(), 0, "aborted compaction must release DRAM");
    }

    #[test]
    fn variable_value_sizes_roundtrip() {
        let (mgr, soc, dram) = test_stack(256, 123);
        let kc = mgr.alloc_cluster(4).unwrap();
        let vc = mgr.alloc_cluster(4).unwrap();
        let mut log = WriteLog::new(kc, vc);
        let mut rng = XorShift64::new(55);
        let mut pairs = Vec::new();
        for i in 0..300u32 {
            let key = format!("k{:08}", rng.next_below(1_000_000)).into_bytes();
            let vlen = 1 + rng.next_below(6000) as usize; // spans blocks sometimes
            let value = vec![(i % 251) as u8; vlen];
            log.put(&mgr, &soc, &key, &value).unwrap();
            pairs.push((key, value));
        }
        let (klen, vlen) = log.seal(&mgr).unwrap();
        let out = run_compaction(
            &mgr,
            &soc,
            &dram,
            (kc, klen),
            (vc, vlen),
            300,
            4,
            &[],
            &Deadline::none(),
        )
        .unwrap()
        .0;
        pairs.sort();
        assert_eq!(read_all_entries(&mgr, &out), pairs);
    }
}
