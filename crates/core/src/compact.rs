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
//! That block format, the sketch and the writer that emits both are the
//! one sketched block index in `index.rs`, shared with every secondary
//! index.
//!
//! Most keyspaces never need that sort. The host's write accelerator
//! ships every ~128 KiB bulk key-sorted, and KLOG and VLOG are appended
//! in lockstep, so KLOG is a handful of maximal non-decreasing key runs
//! whose values are each one ascending VLOG segment. A census pass finds
//! them, paying KLOG's page reads, a decode and one comparison per
//! record. When the runs fit the DRAM — two stream blocks each, one KLOG
//! and one VLOG, out of half the available DRAM as [`ExtSorter`] plans —
//! and their boundary re-reads cost no more than one pass over the logs,
//! the job reserves those blocks and k-way merges the runs straight into
//! PIDX, the sketch and SORTED_VALUES: n·log₂r comparisons, no gather
//! sort, no rank resort, no spill. Ties
//! go to the earlier run, so equal keys keep arrival order and the bytes
//! equal the sort pipeline's. Input in arrival order (single PUTs) gives
//! up on the census after `limit + 1` runs and takes the sort pipeline.
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
//! the keyspace is never read back for an index scan (the run merge
//! extracts them the same way). The cost is the paper's "increased SoC
//! DRAM usage": one more sorter per index runs next to the value pass.
//! When a sorter cannot reserve its DRAM the job fails with
//! [`DeviceError::OutOfDram`], and the device falls back to separated
//! construction — plain compaction, then one
//! [`build_secondary_index`](crate::sidx::build_secondary_index) per
//! index.
//!
//! Every record the job sorts or merges moves as its run encoding, a
//! [`RunLayout`]: KLOG records, gather tags, ranked values and SIDX
//! entries. The sorters buffer those bytes, so the bytes counted against
//! each DRAM reservation are the bytes held; KLOG is already the key
//! sort's encoding and a SIDX entry's is its block layout, so neither is
//! decoded to be sorted or re-encoded to be written. The census and the
//! merges read keys and values into buffers reused for the whole pass,
//! and each stage charges the SoC through one [`SocTally`], booked when
//! the stage ends.
//!
//! The job only reads its input: the device erases KLOG and VLOG once
//! the snapshot that replaces them with the output is durable.

use kvcsd_proto::SecondaryIndexSpec;
use kvcsd_sim::bytes::{le_u16, le_u32, le_u64};
use std::cmp::Ordering;

use crate::admission::Deadline;
use crate::dram::DramBudget;
use crate::error::DeviceError;
use crate::extsort::{counted_records, merge_stable, read_record, ExtSorter, RunLayout};
use crate::index::{BlockIndex, EntryRef, IndexWriter, PidxEntry};
use crate::ingest::{BlockStreamWriter, KlogRecord, StreamReader};
use crate::sidx::{SidxEntry, SidxOutput};
use crate::soc::{SocCharger, SocTally};
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;
use crate::BLOCK_BYTES;

// ---------------------------------------------------------------------------
// Auxiliary sort records for the value pass
// ---------------------------------------------------------------------------

/// Append the primary-key field of a value-pass record: a `u16` length
/// and the key when the pass also builds secondary indexes (`KEYED`),
/// else nothing.
fn encode_key_field<const KEYED: bool>(key: &[u8], out: &mut Vec<u8>) {
    if KEYED {
        out.extend_from_slice(&(key.len() as u16).to_le_bytes());
        out.extend_from_slice(key);
    }
}

/// The length in a `KEYED` record's key field, which ends its head at
/// `at`; 0 otherwise.
fn key_field_len<const KEYED: bool>(hdr: &[u8], at: usize) -> usize {
    if KEYED {
        le_u16(hdr, at - 2) as usize
    } else {
        0
    }
}

/// Tag sorted back into VLOG order, laid out `voff:u64 | vlen:u32 |
/// rank:u64` and the key field: where each value sits in VLOG, the rank
/// it must take in SORTED_VALUES and, if `KEYED`, its primary key.
enum GatherRec<const KEYED: bool> {}

#[derive(Debug, Clone, Copy)]
struct GatherRef<'a> {
    voff: u64,
    vlen: u32,
    rank: u64,
    /// Empty unless `KEYED`.
    key: &'a [u8],
}

impl<const KEYED: bool> RunLayout for GatherRec<KEYED> {
    type View<'a> = GatherRef<'a>;
    const HEADER: usize = 20 + 2 * KEYED as usize;

    fn body_len(hdr: &[u8]) -> usize {
        key_field_len::<KEYED>(hdr, Self::HEADER)
    }
    fn encode(rec: &GatherRef<'_>, out: &mut Vec<u8>) {
        out.extend_from_slice(&rec.voff.to_le_bytes());
        out.extend_from_slice(&rec.vlen.to_le_bytes());
        out.extend_from_slice(&rec.rank.to_le_bytes());
        encode_key_field::<KEYED>(rec.key, out);
    }
    fn view(enc: &[u8]) -> GatherRef<'_> {
        GatherRef {
            voff: le_u64(enc, 0),
            vlen: le_u32(enc, 8),
            rank: le_u64(enc, 12),
            key: &enc[Self::HEADER..],
        }
    }
    fn prefix(enc: &[u8]) -> u64 {
        le_u64(enc, 0)
    }
    fn cmp(a: &[u8], b: &[u8]) -> Ordering {
        // Zero-length values share their starting offset with the next
        // real value; they must be consumed first to keep the VLOG read
        // strictly sequential. At most one record of nonzero length can
        // start at a given offset, so (voff, vlen) is a total enough order.
        let (a, b) = (Self::view(a), Self::view(b));
        a.voff.cmp(&b.voff).then(a.vlen.cmp(&b.vlen))
    }
}

/// A value tagged with its output rank, laid out `rank:u64 | vlen:u32`,
/// the key field and the value: if `KEYED`, the record carries its
/// primary key.
enum ValueRec<const KEYED: bool> {}

#[derive(Debug, Clone, Copy)]
struct ValueRef<'a> {
    rank: u64,
    /// Empty unless `KEYED`.
    key: &'a [u8],
    value: &'a [u8],
}

impl<const KEYED: bool> RunLayout for ValueRec<KEYED> {
    type View<'a> = ValueRef<'a>;
    const HEADER: usize = 12 + 2 * KEYED as usize;

    fn body_len(hdr: &[u8]) -> usize {
        key_field_len::<KEYED>(hdr, Self::HEADER) + le_u32(hdr, 8) as usize
    }
    fn encode(rec: &ValueRef<'_>, out: &mut Vec<u8>) {
        out.extend_from_slice(&rec.rank.to_le_bytes());
        out.extend_from_slice(&(rec.value.len() as u32).to_le_bytes());
        encode_key_field::<KEYED>(rec.key, out);
        out.extend_from_slice(rec.value);
    }
    fn view(enc: &[u8]) -> ValueRef<'_> {
        let klen = key_field_len::<KEYED>(enc, Self::HEADER);
        let (key, value) = enc[Self::HEADER..].split_at(klen);
        ValueRef {
            rank: le_u64(enc, 0),
            key,
            value,
        }
    }
    fn prefix(enc: &[u8]) -> u64 {
        le_u64(enc, 0)
    }
    fn cmp(a: &[u8], b: &[u8]) -> Ordering {
        le_u64(a, 0).cmp(&le_u64(b, 0))
    }
}

// ---------------------------------------------------------------------------
// The compaction job
// ---------------------------------------------------------------------------

/// Result of compacting one keyspace.
#[derive(Debug)]
pub struct CompactionOutput {
    pub pidx: BlockIndex,
    pub svalues: (ClusterId, u64),
    pub pairs: u64,
    /// True when the natural-run merge built the output, false when the
    /// sort pipeline did.
    pub run_merge: bool,
}

/// Sort a sealed keyspace: read its KLOG/VLOG clusters and produce PIDX +
/// SORTED_VALUES clusters plus the sketch, and one secondary index per
/// entry of `specs` (none when empty). The logs are left untouched: the
/// caller releases them once the metadata that drops them is durable.
///
/// The deadline is checked at each phase boundary; an expired compaction
/// aborts between passes and the caller's orphan sweep unwinds its
/// partial output. So does a failure to reserve sorter DRAM, reported as
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
        Some(run_limit(dram, klog.1, vlog.1)),
    )
}

/// The two pipelines behind [`run_compaction`]; `KEYED` (set exactly when
/// `specs` is not empty) carries each primary key through the value pass
/// for the index entries. The natural-run merge is tried when a run
/// limit is given and the census finds no more runs than that.
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
    run_limit: Option<usize>,
) -> Result<(CompactionOutput, Vec<SidxOutput>)> {
    let runs = match run_limit {
        Some(limit) => census(mgr, soc, klog, pairs, limit)?,
        None => None,
    };
    let run_merge = runs.is_some();
    let (pidx, values) = match runs {
        Some(runs) => {
            deadline.check()?;
            merge_natural_runs::<KEYED>(mgr, soc, dram, klog, vlog, &runs, cluster_width, specs)?
        }
        None => sort_pipeline::<KEYED>(
            mgr,
            soc,
            dram,
            klog,
            vlog,
            pairs,
            cluster_width,
            specs,
            deadline,
        )?,
    };
    let (svalues, sidx) = values.finish(mgr, cluster_width, deadline)?;
    Ok((
        CompactionOutput {
            pidx,
            svalues,
            pairs,
            run_merge,
        },
        sidx,
    ))
}

// ---------------------------------------------------------------------------
// Output shared by both pipelines
// ---------------------------------------------------------------------------

/// Streams values in key order into SORTED_VALUES and feeds each
/// index's sorter the secondary keys extracted in flight.
struct ValueWriter<'a> {
    tally: SocTally<'a>,
    writer: BlockStreamWriter,
    specs: &'a [SecondaryIndexSpec],
    sidx: Vec<ExtSorter<'a, SidxEntry>>,
}

impl<'a> ValueWriter<'a> {
    fn new(
        soc: &'a SocCharger,
        cluster: ClusterId,
        specs: &'a [SecondaryIndexSpec],
        sidx: Vec<ExtSorter<'a, SidxEntry>>,
    ) -> Self {
        Self {
            tally: soc.tally(),
            writer: BlockStreamWriter::new(cluster),
            specs,
            sidx,
        }
    }

    /// One index sorter per spec, running next to the value pass: the
    /// single step's "increased SoC DRAM usage".
    fn sorters(
        mgr: &'a ZoneManager,
        soc: &'a SocCharger,
        dram: &'a DramBudget,
        cluster_width: u32,
        specs: &[SecondaryIndexSpec],
    ) -> Result<Vec<ExtSorter<'a, SidxEntry>>> {
        specs
            .iter()
            .map(|_| ExtSorter::new(mgr, soc, dram, cluster_width))
            .collect()
    }

    /// Bytes of SORTED_VALUES written so far: the next value's offset.
    fn position(&self) -> u64 {
        self.writer.position()
    }

    /// Append the next value in key order; `pkey` is its primary key
    /// (empty unless the pass builds indexes).
    fn push(&mut self, mgr: &ZoneManager, pkey: &[u8], value: &[u8]) -> Result<()> {
        let voff = self.writer.position();
        let mut scratch = [0u8; 8];
        for (spec, sorter) in self.specs.iter().zip(&mut self.sidx) {
            if let Some(skey) = spec.extract_into(value, &mut scratch) {
                self.tally.bytes(spec.value_len);
                sorter.push(&EntryRef {
                    key: skey,
                    pkey,
                    voff,
                    vlen: value.len() as u32,
                })?;
            }
        }
        self.tally.memcpy(value.len());
        self.writer.append(mgr, value)?;
        Ok(())
    }

    /// Seal SORTED_VALUES and write the indexes.
    fn finish(
        mut self,
        mgr: &ZoneManager,
        cluster_width: u32,
        deadline: &Deadline<'_>,
    ) -> Result<((ClusterId, u64), Vec<SidxOutput>)> {
        let svalues = (self.writer.cluster(), self.writer.seal(mgr)?);
        // A plain job has no work left worth aborting for.
        if !self.sidx.is_empty() {
            deadline.check()?;
        }
        let sidx = self
            .sidx
            .into_iter()
            .map(|sorter| SidxOutput::write(mgr, sorter, cluster_width))
            .collect::<Result<_>>()?;
        Ok((svalues, sidx))
    }
}

// ---------------------------------------------------------------------------
// Natural-run merge
// ---------------------------------------------------------------------------

/// A maximal stretch of KLOG whose keys never decrease. KLOG and VLOG
/// are appended in lockstep, so its values are one ascending VLOG
/// segment starting at `voff`.
#[derive(Debug, Clone, Copy)]
struct NaturalRun {
    klog_off: u64,
    voff: u64,
    count: u64,
}

/// Most runs the merge may take on, for logs of `klog_len` and
/// `vlog_len` bytes. Like [`ExtSorter`], it plans on half the available
/// DRAM, and each run streams through two blocks, one of KLOG and one of
/// VLOG. Past the first run, each run's two cursors may re-read one
/// block a neighbouring run also reads; capping those re-reads at the
/// logs' block count means the merge never reads the logs more than
/// twice. Arrival-order input, whose runs average two records, does not
/// qualify.
fn run_limit(dram: &DramBudget, klog_len: u64, vlog_len: u64) -> usize {
    let block = BLOCK_BYTES as u64;
    let streams = dram.available() / 2 / (2 * block);
    let rereads = (klog_len.div_ceil(block) + vlog_len.div_ceil(block)) / 2 + 1;
    streams.min(rereads) as usize
}

/// Split KLOG into natural runs in one sequential pass, charging each
/// record's page reads, decode and one comparison. Gives up (`None`) as
/// soon as the runs outnumber `limit`.
fn census(
    mgr: &ZoneManager,
    soc: &SocCharger,
    klog: (ClusterId, u64),
    pairs: u64,
    limit: usize,
) -> Result<Option<Vec<NaturalRun>>> {
    let mut tally = soc.tally();
    let mut r = StreamReader::new(mgr, klog.0, klog.1);
    let mut runs: Vec<NaturalRun> = Vec::new();
    // The record just read and the one before it (empty at the start).
    let (mut buf, mut prev) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        let klog_off = r.position();
        read_record::<KlogRecord>(&mut r, &mut buf)?;
        tally.bytes(buf.len());
        tally.cmp(1.0);
        let rec = KlogRecord::view(&buf);
        let continues = !prev.is_empty() && {
            let p = KlogRecord::view(&prev);
            p.key <= rec.key && p.voff + p.vlen as u64 == rec.voff
        };
        if continues {
            if let Some(run) = runs.last_mut() {
                run.count += 1;
            }
        } else if runs.len() == limit {
            return Ok(None);
        } else {
            runs.push(NaturalRun {
                klog_off,
                voff: rec.voff,
                count: 1,
            });
        }
        std::mem::swap(&mut prev, &mut buf);
    }
    Ok(Some(runs))
}

/// Merge the natural runs straight into the output: per run, one KLOG
/// cursor for the keys and one VLOG cursor for the values. Ties go to
/// the earlier run, so equal keys keep arrival order (last write wins).
#[allow(clippy::too_many_arguments)]
fn merge_natural_runs<'a, const KEYED: bool>(
    mgr: &'a ZoneManager,
    soc: &'a SocCharger,
    dram: &'a DramBudget,
    klog: (ClusterId, u64),
    vlog: (ClusterId, u64),
    runs: &[NaturalRun],
    cluster_width: u32,
    specs: &'a [SecondaryIndexSpec],
) -> Result<(BlockIndex, ValueWriter<'a>)> {
    let _streams = dram
        .reserve(2 * runs.len() as u64 * BLOCK_BYTES as u64)
        .ok_or(DeviceError::OutOfDram("run merge DRAM"))?;
    let mut pidx = IndexWriter::<PidxEntry>::new(mgr, cluster_width)?;
    let svalues = mgr.alloc_cluster(cluster_width)?;
    let sidx = ValueWriter::sorters(mgr, soc, dram, cluster_width, specs)?;
    let mut values = ValueWriter::new(soc, svalues, specs, sidx);

    let keys = runs
        .iter()
        .map(|run| {
            let r = StreamReader::starting_at(mgr, klog.0, klog.1, run.klog_off);
            (r, run.count)
        })
        .collect();
    let mut vals: Vec<StreamReader<'_>> = runs
        .iter()
        .map(|run| StreamReader::starting_at(mgr, vlog.0, vlog.1, run.voff))
        .collect();
    let mut value = Vec::new();
    merge_stable::<KlogRecord>(
        &mut soc.tally(),
        runs.len(),
        counted_records::<KlogRecord>(keys),
        |tally, i, enc| {
            tally.bytes(enc.len());
            let rec = KlogRecord::view(enc);
            let vread = &mut vals[i];
            debug_assert_eq!(vread.position(), rec.voff, "run values are contiguous");
            value.clear();
            vread.read_into(rec.vlen as usize, &mut value)?;
            tally.memcpy(value.len());
            let voff = values.position();
            pidx.push(mgr, &EntryRef::primary(rec.key, voff, rec.vlen))?;
            values.push(mgr, if KEYED { rec.key } else { &[] }, &value)
        },
    )?;
    Ok((pidx.finish(mgr)?, values))
}

// ---------------------------------------------------------------------------
// Sort pipeline
// ---------------------------------------------------------------------------

/// The paper's two-step sort, for input with too many runs to merge:
/// sort the keys, gather the values back in VLOG order, resort them by
/// rank.
#[allow(clippy::too_many_arguments)]
fn sort_pipeline<'a, const KEYED: bool>(
    mgr: &'a ZoneManager,
    soc: &'a SocCharger,
    dram: &'a DramBudget,
    klog: (ClusterId, u64),
    vlog: (ClusterId, u64),
    pairs: u64,
    cluster_width: u32,
    specs: &'a [SecondaryIndexSpec],
    deadline: &Deadline<'_>,
) -> Result<(BlockIndex, ValueWriter<'a>)> {
    // ---- Step 1: sort the keys ---------------------------------------
    // KLOG is the key sort's run encoding: records go into its buffer
    // undecoded.
    let mut key_sorter: ExtSorter<'_, KlogRecord> = ExtSorter::new(mgr, soc, dram, cluster_width)?;
    {
        let mut tally = soc.tally();
        let mut r = StreamReader::new(mgr, klog.0, klog.1);
        let mut rec = Vec::new();
        for _ in 0..pairs {
            read_record::<KlogRecord>(&mut r, &mut rec)?;
            tally.bytes(rec.len());
            key_sorter.push_encoded(&rec)?;
        }
    }
    deadline.check()?;

    // Emit PIDX blocks + sketch, each value's SORTED_VALUES offset the
    // running sum of the lengths; collect the gather tags.
    let mut pidx = IndexWriter::<PidxEntry>::new(mgr, cluster_width)?;
    let mut gather_sorter: ExtSorter<'_, GatherRec<KEYED>> =
        ExtSorter::new(mgr, soc, dram, cluster_width)?;
    let mut rank = 0u64;
    let mut voff = 0u64;
    key_sorter.finish_into(|rec| {
        pidx.push(mgr, &EntryRef::primary(rec.key, voff, rec.vlen))?;
        voff += rec.vlen as u64;
        gather_sorter.push(&GatherRef {
            voff: rec.voff,
            vlen: rec.vlen,
            rank,
            key: if KEYED { rec.key } else { &[] },
        })?;
        rank += 1;
        Ok(())
    })?;
    let pidx = pidx.finish(mgr)?;
    deadline.check()?;

    // ---- Step 2: sort the values ---------------------------------------
    let sidx = ValueWriter::sorters(mgr, soc, dram, cluster_width, specs)?;
    // 2a: tags back into VLOG order (they are a permutation of the
    //     VLOG byte sequence, so this merge restores sequential reads).
    let mut value_sorter: ExtSorter<'_, ValueRec<KEYED>> =
        ExtSorter::new(mgr, soc, dram, cluster_width)?;
    {
        let mut tally = soc.tally();
        let mut vread = StreamReader::new(mgr, vlog.0, vlog.1);
        let mut value = Vec::new();
        gather_sorter.finish_into(|tag| {
            debug_assert_eq!(vread.position(), tag.voff, "VLOG reads must be sequential");
            value.clear();
            vread.read_into(tag.vlen as usize, &mut value)?;
            tally.memcpy(value.len());
            value_sorter.push(&ValueRef {
                rank: tag.rank,
                key: tag.key,
                value: &value,
            })
        })?;
    }
    deadline.check()?;

    // 2b: values into final order, streamed into SORTED_VALUES, with
    //     the secondary keys extracted in flight.
    let mut values = ValueWriter::new(soc, mgr.alloc_cluster(cluster_width)?, specs, sidx);
    let mut expected_rank = 0u64;
    value_sorter.finish_into(|vr| {
        debug_assert_eq!(vr.rank, expected_rank, "ranks must arrive in order");
        expected_rank += 1;
        values.push(mgr, vr.key, vr.value)
    })?;
    debug_assert_eq!(values.position(), voff, "PIDX locators cover SORTED_VALUES");
    Ok((pidx, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexBlock, Sketch};
    use crate::ingest::{KlogRef, WriteLog};
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
            log.put(mgr, &mut soc.tally(), &key, &value).unwrap();
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

    fn read_all_entries(mgr: &ZoneManager, out: &CompactionOutput) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut got = Vec::new();
        for b in 0..out.pidx.blocks {
            let block = mgr.read_block(out.pidx.cluster, b as u64).unwrap();
            for e in IndexBlock::<PidxEntry>::parse(&block).unwrap().iter() {
                let v = mgr
                    .read_bytes(out.svalues.0, e.voff, e.vlen as usize)
                    .unwrap();
                got.push((e.key.to_vec(), v));
            }
        }
        got
    }

    #[test]
    fn compaction_sorts_small_keyspace() {
        let (mgr, soc, dram) = test_stack(64, 123);
        let (out, want) = load_and_compact(500, &mgr, &soc, &dram);
        assert_eq!(out.pairs, 500);
        assert_eq!(out.pidx.sketch.pivots().len() as u32, out.pidx.blocks);
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
        assert_eq!(out.pidx.blocks, 0);
        assert!(out.pidx.sketch.is_empty());
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
            log.put(
                &mgr,
                &mut soc.tally(),
                b"same-key",
                format!("v{i}").as_bytes(),
            )
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
        use crate::sidx::build_secondary_index;
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
                log.put(mgr, &mut soc.tally(), &key, &value).unwrap();
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
            &cout_a.pidx,
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
            for b in 0..out.index.blocks {
                let block = mgr.read_block(out.index.cluster, b as u64).unwrap();
                let view = IndexBlock::<SidxEntry>::parse(&block).unwrap();
                v.extend(
                    view.iter()
                        .map(|e| (e.key.to_vec(), e.pkey.to_vec(), e.voff, e.vlen)),
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
                log.put(&mgr, &mut soc.tally(), &key, &value).unwrap();
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
            let BlockIndex {
                cluster, blocks: n, ..
            } = sidx[0].index;
            (
                blocks(&mgr, out.pidx.cluster, out.pidx.blocks as u64),
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

    /// Run the single pass over 100 pairs, loaded in `order`, under a
    /// budget with room for two sorters but not four.
    fn single_pass_under_tight_dram(order: impl Fn(u32) -> u32) -> Result<CompactionOutput> {
        use kvcsd_proto::SecondaryKeyType;
        let (mgr, soc, _big) = test_stack(256, 123);
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        for i in 0..100u32 {
            log.put(
                &mgr,
                &mut soc.tally(),
                format!("k{:05}", order(i)).as_bytes(),
                &[0u8; 16],
            )
            .unwrap();
        }
        let (klen, vlen) = log.seal(&mgr).unwrap();
        let tight = DramBudget::new(150 << 10);
        let specs = vec![SecondaryIndexSpec {
            name: "a".into(),
            value_offset: 0,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        }];
        let out = run_compaction(
            &mgr,
            &soc,
            &tight,
            (kc, klen),
            (vc, vlen),
            100,
            2,
            &specs,
            &Deadline::none(),
        );
        assert_eq!(tight.used(), 0);
        out.map(|(out, _)| out)
    }

    #[test]
    fn single_pass_fails_cleanly_without_dram() {
        // Arrival order: every key starts a run, so the sort pipeline runs
        // and its sorters do not fit.
        let err = single_pass_under_tight_dram(|i| 99 - i).unwrap_err();
        assert_eq!(err, DeviceError::OutOfDram("sort DRAM"));
    }

    #[test]
    fn single_pass_merges_sorted_input_under_the_same_dram() {
        // One run: the merge holds two stream blocks next to one index
        // sorter, which fits where the sort pipeline's four do not.
        let out = single_pass_under_tight_dram(|i| i).unwrap();
        assert!(out.run_merge);
        assert_eq!(out.pairs, 100);
    }

    /// The ledger charges of compacting one fixed keyspace, through the
    /// sort pipeline (plain, single pass and the DRAM fallback, on
    /// arrival-order input) and through the natural-run merge (plain and
    /// single pass, on the same pairs key-sorted in bulks of 500 as the
    /// write accelerator ships them). Each case ends by releasing the
    /// logs, as the device does. The numbers are the model's: a change
    /// to any of them changes every published figure.
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
            let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..5_000u32)
                .map(|i| {
                    let key = format!("k{:010}", rng.next_below(u32::MAX as u64)).into_bytes();
                    let mut value = vec![(i % 251) as u8; 12 + rng.next_below(24) as usize];
                    value[8..12].copy_from_slice(&(rng.next_below(700) as u32).to_le_bytes());
                    (key, value)
                })
                .collect();
            if case.starts_with("run merge") {
                for bulk in pairs.chunks_mut(500) {
                    bulk.sort();
                }
            }
            for (key, value) in &pairs {
                log.put(&mgr, &mut soc.tally(), key, value).unwrap();
            }
            let (klen, vlen) = log.seal(&mgr).unwrap();
            let (klog, vlog) = ((kc, klen), (vc, vlen));
            // The key sort fits in DRAM and does no zone I/O; the later
            // sorts reserve less, so they spill runs and merge them.
            let dram = DramBudget::new(256 << 10);
            let before = soc.ledger().snapshot();
            let out = match case {
                "plain" | "run merge" => {
                    run_compaction(&mgr, &soc, &dram, klog, vlog, 5_000, 4, &[], &none)
                        .unwrap()
                        .0
                }
                "single pass" | "run merge single pass" => {
                    run_compaction(&mgr, &soc, &dram, klog, vlog, 5_000, 4, specs, &none)
                        .unwrap()
                        .0
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
                        &out.pidx,
                        out.svalues,
                        &spec,
                        4,
                        &none,
                    )
                    .unwrap();
                    out
                }
            };
            assert_eq!(out.run_merge, case.starts_with("run merge"), "{case}");
            mgr.release_cluster(kc).unwrap();
            mgr.release_cluster(vc).unwrap();
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
                9_723_551,
                132,
                131,
                15,
                vec![0, 242_880, 2_339_647, 6_689_832, 8_935_968, 4_188_265, 6_662_717, 4_718_575]
            )
        );
        assert_eq!(
            run("single pass"),
            (
                13_118_040,
                206,
                243,
                23,
                vec![
                    113_344, 4_747_703, 2_485_375, 9_065_504, 20_520_474, 6_752_587, 6_576_488,
                    2_258_687
                ]
            )
        );
        assert_eq!(
            run("fallback"),
            (
                19_126_277,
                326,
                336,
                31,
                vec![
                    2_490_644, 15_759_362, 7_077_670, 11_555_378, 13_912_845, 9_124_233, 6_993_454,
                    4_618_552
                ]
            )
        );
        assert_eq!(
            run("run merge"),
            (
                1_352_556,
                109,
                60,
                8,
                vec![0, 129_536, 2_339_262, 4_480_964, 4_585_398, 4_452_221, 2_238_854, 113_344]
            )
        );
        assert_eq!(
            run("run merge single pass"),
            (
                4_616_897,
                148,
                137,
                11,
                vec![
                    145_728, 2_735_152, 2_501_182, 9_142_053, 4_585_398, 4_452_221, 2_238_854,
                    275_264
                ]
            )
        );
    }

    /// Bulks of keys drawn from a small domain, each key-sorted as the
    /// write accelerator ships it and closed by the largest key `zz`, so
    /// every bulk is exactly one natural run. Keys repeat within and
    /// across runs; one value in seven is empty.
    fn sorted_bulks(bulks: usize, per_bulk: usize, seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut rng = XorShift64::new(seed);
        let mut n = 0u32;
        let mut pair = |key: Vec<u8>, rng: &mut XorShift64| {
            n += 1;
            let len = if n.is_multiple_of(7) {
                0
            } else {
                4 + rng.next_below(28) as usize
            };
            let mut value = vec![(n % 251) as u8; len];
            if len >= 4 {
                value[..4].copy_from_slice(&(rng.next_below(90) as u32).to_le_bytes());
            }
            (key, value)
        };
        let mut pairs = Vec::new();
        for _ in 0..bulks {
            let mut bulk: Vec<_> = (0..per_bulk)
                .map(|_| {
                    pair(
                        format!("k{:03}", rng.next_below(300)).into_bytes(),
                        &mut rng,
                    )
                })
                .collect();
            bulk.sort_by(|a, b| a.0.cmp(&b.0));
            bulk.push(pair(b"zz".to_vec(), &mut rng));
            pairs.extend(bulk);
        }
        pairs
    }

    /// What a compaction leaves on flash: PIDX blocks and sketch,
    /// SORTED_VALUES blocks, and each index's blocks and sketch.
    type Image = (
        Vec<Vec<u8>>,
        Sketch,
        Vec<Vec<u8>>,
        Vec<(Vec<Vec<u8>>, Sketch)>,
    );

    fn blocks_of(mgr: &ZoneManager, cluster: ClusterId, n: u64) -> Vec<Vec<u8>> {
        (0..n)
            .map(|b| mgr.read_block(cluster, b).unwrap().to_vec())
            .collect()
    }

    /// Compact `pairs` (loaded in order) with `specs` under `dram_bytes`,
    /// through the census (`census`) or straight into the sort pipeline.
    /// Returns the image, whether the run merge built it, and the
    /// compaction's SoC ns and page reads.
    fn compact_image(
        pairs: &[(Vec<u8>, Vec<u8>)],
        specs: &[SecondaryIndexSpec],
        dram_bytes: u64,
        census: bool,
    ) -> (Image, bool, u64, u64) {
        let (mgr, soc, _) = test_stack(512, 123);
        let kc = mgr.alloc_cluster(4).unwrap();
        let vc = mgr.alloc_cluster(4).unwrap();
        let mut log = WriteLog::new(kc, vc);
        for (key, value) in pairs {
            log.put(&mgr, &mut soc.tally(), key, value).unwrap();
        }
        let (klen, vlen) = log.seal(&mgr).unwrap();
        let dram = DramBudget::new(dram_bytes);
        let limit = census.then(|| run_limit(&dram, klen, vlen));
        let run = if specs.is_empty() {
            compact::<false>
        } else {
            compact::<true>
        };
        let before = soc.ledger().snapshot();
        let (out, sidx) = run(
            &mgr,
            &soc,
            &dram,
            (kc, klen),
            (vc, vlen),
            pairs.len() as u64,
            4,
            specs,
            &Deadline::none(),
            limit,
        )
        .unwrap();
        let d = soc.ledger().snapshot().since(&before);
        assert_eq!(dram.used(), 0);
        let image = (
            blocks_of(&mgr, out.pidx.cluster, out.pidx.blocks as u64),
            out.pidx.sketch.clone(),
            blocks_of(
                &mgr,
                out.svalues.0,
                out.svalues.1.div_ceil(BLOCK_BYTES as u64),
            ),
            sidx.iter()
                .map(|s| {
                    (
                        blocks_of(&mgr, s.index.cluster, s.index.blocks as u64),
                        s.index.sketch.clone(),
                    )
                })
                .collect(),
        );
        if census {
            // The content is the input, stably sorted by key.
            let mut want = pairs.to_vec();
            want.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(read_all_entries(&mgr, &out), want);
        }
        (image, out.run_merge, d.soc_cpu_ns, d.nand_read_pages)
    }

    fn low_byte_spec() -> SecondaryIndexSpec {
        SecondaryIndexSpec {
            name: "low".into(),
            value_offset: 0,
            value_len: 4,
            key_type: kvcsd_proto::SecondaryKeyType::U32,
        }
    }

    #[test]
    fn run_merge_output_matches_sort_pipeline() {
        let spec = low_byte_spec();
        for (name, pairs, runs) in [
            ("empty keyspace", Vec::new(), 0),
            ("one run", sorted_bulks(1, 700, 1), 1),
            (
                "duplicates within and across runs",
                sorted_bulks(12, 300, 2),
                12,
            ),
        ] {
            let (mgr, soc, _) = test_stack(64, 1);
            let mut log =
                WriteLog::new(mgr.alloc_cluster(2).unwrap(), mgr.alloc_cluster(2).unwrap());
            for (key, value) in &pairs {
                log.put(&mgr, &mut soc.tally(), key, value).unwrap();
            }
            let klog = (log.klog.cluster(), log.seal(&mgr).unwrap().0);
            let found = census(&mgr, &soc, klog, pairs.len() as u64, usize::MAX).unwrap();
            assert_eq!(found.map(|r| r.len()), Some(runs), "{name}");
            for specs in [&[][..], std::slice::from_ref(&spec)] {
                let (merged, used, ..) = compact_image(&pairs, specs, 4 << 20, true);
                let (sorted, unused, ..) = compact_image(&pairs, specs, 4 << 20, false);
                assert!(used && !unused, "{name}");
                assert!(merged == sorted, "{name}: output bytes differ");
            }
        }
    }

    #[test]
    fn runs_at_the_limit_merge_and_one_more_falls_back() {
        // The logs span more blocks than the runs, so DRAM sets the limit.
        let dram = 256 << 10;
        let limit = run_limit(&DramBudget::new(dram), u64::MAX, 0);
        assert_eq!(limit, 16);
        let spec = low_byte_spec();
        for (runs, merges) in [(limit, true), (limit + 1, false)] {
            let pairs = sorted_bulks(runs, 300, runs as u64);
            let (image, used, ..) = compact_image(&pairs, std::slice::from_ref(&spec), dram, true);
            assert_eq!(used, merges, "{runs} runs");
            let (sorted, ..) = compact_image(&pairs, std::slice::from_ref(&spec), dram, false);
            assert!(image == sorted, "{runs} runs: output bytes differ");
        }
    }

    /// Arrival-order input pays the sort pipeline plus the census prefix
    /// that gave up: page reads, decode and one comparison for each record
    /// up to the one that opens run `limit + 1`. Descending keys open a
    /// run at every record, which is exactly `limit + 1` comparisons.
    #[test]
    fn arrival_order_pays_only_the_aborted_census() {
        let dram = 256 << 10;
        let mut rng = XorShift64::new(0xA0);
        let descending: Vec<_> = (0..3_000u32)
            .map(|i| (format!("k{:05}", 3_000 - i).into_bytes(), vec![1u8; 24]))
            .collect();
        let shuffled: Vec<_> = (0..3_000u32)
            .map(|i| {
                let key = format!("k{:010}", rng.next_below(u32::MAX as u64)).into_bytes();
                (key, vec![(i % 251) as u8; 24])
            })
            .collect();
        for (name, pairs, want) in [("descending", descending, 17), ("shuffled", shuffled, 32)] {
            let klog: usize = pairs
                .iter()
                .map(|(k, _)| KlogRecord::HEADER + k.len())
                .sum();
            let vlog: usize = pairs.iter().map(|(_, v)| v.len()).sum();
            let limit = run_limit(&DramBudget::new(dram), klog as u64, vlog as u64);
            assert_eq!(limit, 16, "{name}");
            // Through the record that opens run `limit + 1`.
            let mut runs = 0;
            let opens_one_too_many = |i: &usize| {
                runs += (*i == 0 || pairs[*i].0 < pairs[*i - 1].0) as usize;
                runs > limit
            };
            let scanned = 1 + (0..pairs.len()).find(opens_one_too_many).unwrap();
            assert_eq!(scanned, want, "{name}");
            let (image, used, soc_ns, reads) = compact_image(&pairs, &[], dram, true);
            let (sorted, _, sort_ns, sort_reads) = compact_image(&pairs, &[], dram, false);
            assert!(!used && image == sorted, "{name}");
            // The census charges, replayed on a fresh ledger.
            let (_, census_soc, _) = test_stack(8, 1);
            let mut census = census_soc.tally();
            for (key, _) in &pairs[..scanned] {
                census.bytes(KlogRecord::HEADER + key.len());
                census.cmp(1.0);
            }
            drop(census);
            assert_eq!(
                soc_ns - sort_ns,
                census_soc.ledger().snapshot().soc_cpu_ns,
                "{name}: {scanned} records"
            );
            // Those records fit in KLOG's first block.
            assert_eq!(reads - sort_reads, 1, "{name}");
        }
    }

    #[test]
    fn expired_deadline_aborts_between_phases() {
        use kvcsd_sim::VirtualClock;
        let (mgr, soc, dram) = test_stack(64, 123);
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        for i in 0..200u32 {
            log.put(
                &mgr,
                &mut soc.tally(),
                format!("k{i:06}").as_bytes(),
                &[7u8; 32],
            )
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
            log.put(&mgr, &mut soc.tally(), &key, &value).unwrap();
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

    // -----------------------------------------------------------------
    // Sorter equivalence: every run layout, every number of rounds
    // -----------------------------------------------------------------

    /// Keys that stress the prefix: empty, shorter than, exactly and
    /// longer than eight bytes, over an alphabet with a zero byte, plus
    /// fixed pairs that differ only after a zero byte or past byte 8.
    fn key_pool(rng: &mut XorShift64) -> Vec<Vec<u8>> {
        let fixed: [&[u8]; 8] = [
            b"",
            b"ab",
            b"ab\0",
            b"ab\0\0",
            b"abcdefgh",
            b"abcdefgh\0",
            b"abcdefgh\0\0",
            b"abcdefghi",
        ];
        let mut pool: Vec<Vec<u8>> = fixed.iter().map(|k| k.to_vec()).collect();
        pool.extend((0..40).map(|_| fresh_key(rng)));
        pool
    }

    fn fresh_key(rng: &mut XorShift64) -> Vec<u8> {
        let len = [0, 1, 3, 7, 8, 8, 9, 12, 16][rng.next_below(9) as usize];
        (0..len)
            .map(|_| [0u8, 1, b'a', b'b', 0xff][rng.next_below(5) as usize])
            .collect()
    }

    /// Half the time a key from `pool` (so many keys are equal), else a
    /// fresh one.
    fn any_key(rng: &mut XorShift64, pool: &[Vec<u8>]) -> Vec<u8> {
        if rng.next_below(2) == 0 {
            pool[rng.next_below(pool.len() as u64) as usize].clone()
        } else {
            fresh_key(rng)
        }
    }

    /// Encode records drawn by `draw` until they fill 400 KiB: past
    /// three reservations of 128 KiB, past six of 64 KiB.
    fn records<L: RunLayout>(
        seed: u64,
        mut draw: impl FnMut(&mut XorShift64, &[Vec<u8>], &mut Vec<u8>),
    ) -> Vec<Vec<u8>> {
        let mut rng = XorShift64::new(seed);
        let pool = key_pool(&mut rng);
        let (mut recs, mut bytes) = (Vec::new(), 0);
        while bytes < 400 << 10 {
            let mut enc = Vec::new();
            draw(&mut rng, &pool, &mut enc);
            assert_eq!(enc.len(), L::HEADER + L::body_len(&enc));
            bytes += enc.len();
            recs.push(enc);
        }
        recs
    }

    /// Sort `recs` (encoded `L` records in arrival order) with zero
    /// rounds, with spills the last merge takes at once, and with more
    /// runs than the fan-in (4 at the 64 KiB minimum reservation): each
    /// output must equal a stable `sort_by(L::cmp)`, byte for byte.
    fn assert_sorts_like_cmp<L: RunLayout>(name: &str, recs: &[Vec<u8>]) {
        let mut want = recs.to_vec();
        want.sort_by(|a, b| L::cmp(a, b));
        for (dram_bytes, runs) in [(64 << 20, 0..=0), (256 << 10, 2..=8), (64 << 10, 5..=99)] {
            let (mgr, soc, _) = test_stack(512, 99);
            let dram = DramBudget::new(dram_bytes);
            let mut s = ExtSorter::<L>::new(&mgr, &soc, &dram, 4).unwrap();
            for (i, enc) in recs.iter().enumerate() {
                // Half the records come in through their view.
                if i % 2 == 0 {
                    s.push_encoded(enc).unwrap();
                } else {
                    s.push(&L::view(enc)).unwrap();
                }
            }
            let spilled = s.spilled_runs();
            assert!(runs.contains(&spilled), "{name}: {spilled} runs");
            let mut got = Vec::new();
            s.finish_into(|rec| {
                let mut enc = Vec::new();
                L::encode(&rec, &mut enc);
                got.push(enc);
                Ok(())
            })
            .unwrap();
            assert!(got == want, "{name}: {spilled} runs reorder records");
            assert_eq!(mgr.cluster_count(), 0, "{name}");
        }
    }

    #[test]
    fn every_run_layout_sorts_like_its_comparison() {
        let klog = records::<KlogRecord>(1, |rng, pool, out| {
            let rec = KlogRef {
                key: &any_key(rng, pool),
                voff: rng.next_u64(),
                vlen: rng.next_u64() as u32,
            };
            KlogRecord::encode(&rec, out);
        });
        assert_sorts_like_cmp::<KlogRecord>("KLOG", &klog);

        fn gather<const KEYED: bool>(seed: u64) {
            let mut rank = 0;
            let recs = records::<GatherRec<KEYED>>(seed, |rng, pool, out| {
                // Few offsets, and empty values among them: (voff, vlen)
                // ties.
                let key = any_key(rng, pool);
                let rec = GatherRef {
                    voff: rng.next_below(300),
                    vlen: [0, 0, 1, 40][rng.next_below(4) as usize],
                    rank,
                    key: if KEYED { &key } else { &[] },
                };
                rank += 1;
                GatherRec::<KEYED>::encode(&rec, out);
            });
            assert_sorts_like_cmp::<GatherRec<KEYED>>("gather", &recs);
        }
        gather::<false>(2);
        gather::<true>(3);

        fn value<const KEYED: bool>(seed: u64) {
            let recs = records::<ValueRec<KEYED>>(seed, |rng, pool, out| {
                let (key, value) = (any_key(rng, pool), fresh_key(rng));
                let rec = ValueRef {
                    rank: rng.next_below(400),
                    key: if KEYED { &key } else { &[] },
                    value: &value,
                };
                ValueRec::<KEYED>::encode(&rec, out);
            });
            assert_sorts_like_cmp::<ValueRec<KEYED>>("value", &recs);
        }
        value::<false>(4);
        value::<true>(5);

        let sidx = records::<SidxEntry>(6, |rng, pool, out| {
            // Typed keys from few values, or `Bytes` keys of mixed
            // lengths.
            let skey = if rng.next_below(2) == 0 {
                kvcsd_proto::SidxKey::F32(rng.next_below(50) as f32 - 25.0).encode()
            } else {
                any_key(rng, pool)
            };
            let rec = EntryRef {
                key: &skey,
                pkey: &any_key(rng, pool),
                voff: rng.next_u64(),
                vlen: rng.next_u64() as u32,
            };
            SidxEntry::encode(&rec, out);
        });
        assert_sorts_like_cmp::<SidxEntry>("SIDX", &sidx);
    }
}
