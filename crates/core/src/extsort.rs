//! DRAM-bounded external merge sort over encoded records.
//!
//! "Sorting is done by running multiple rounds of merge sorts, depending
//! on available SoC DRAM space. Intermediate sorting results are stored
//! in dynamically allocated zone clusters, which are released upon
//! completion of the sort." (Section V)
//!
//! The sorter reserves what it can from the [`DramBudget`] and
//! accumulates records until the reservation is full. Its buffer is the
//! records' run encoding ([`RunLayout`]): one byte arena holding each
//! record as a spill writes it, plus a `(prefix, offset, len)` slot per
//! record. The bytes counted against the reservation are the bytes
//! held. The prefix is an order-consistent integer prefix of the sort
//! key, so most comparisons settle on one `u64` and only prefix ties
//! compare the encoded bytes.
//!
//! When the whole input fits, that is zero rounds: [`ExtSorter::finish_into`]
//! sorts the slots and hands out views into the arena, with no zone I/O
//! at all. Otherwise each full buffer is sorted and its records' bytes
//! are spilled verbatim as a run to a temporary zone cluster, and the
//! runs are k-way-merged (in multiple passes when the run count exceeds
//! the DRAM-derived fan-in). A merge reads each run's current record
//! into a buffer of that run's own, reused for the whole merge, and
//! passes it on borrowed. A spill or merge knows its byte count before it
//! allocates, so its cluster gets only the zones those bytes fill, up to
//! the stripe width: a small run erases one block, not one per zone of a
//! full-width cluster. Every comparison and byte moved is charged to the
//! SoC, through one [`SocTally`] the sorter holds until it drops; every
//! spill and merge readback is real zone I/O.
//!
//! The sort is stable: records with equal keys leave in arrival order
//! (last write wins downstream). Runs are kept in arrival order and a
//! merge prefers the earlier run on a tie.

use std::cmp::Ordering;
use std::marker::PhantomData;

use crate::dram::{DramBudget, DramReservation};
use crate::error::DeviceError;
use crate::ingest::{BlockStreamWriter, StreamReader};
use crate::soc::{SocCharger, SocTally};
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;
use crate::BLOCK_BYTES;

/// How one kind of record is laid out in a sort run, and its order. A
/// record is a fixed head of [`RunLayout::HEADER`] bytes and a body
/// whose length the head gives. [`ExtSorter`] and the merges hold and
/// compare records as these bytes and hand them out as views.
pub trait RunLayout {
    /// A record borrowed from its encoding.
    type View<'a>;
    /// Bytes of the fixed head every record starts with.
    const HEADER: usize;
    /// Bytes that follow the head `hdr`.
    fn body_len(hdr: &[u8]) -> usize;
    /// Append `rec`'s encoding to `out`.
    fn encode(rec: &Self::View<'_>, out: &mut Vec<u8>);
    /// Borrow the record `enc` (exactly one encoding) holds.
    fn view(enc: &[u8]) -> Self::View<'_>;
    /// A prefix of the sort key as an integer, consistent with
    /// [`RunLayout::cmp`]: a smaller prefix sorts first, and records
    /// that compare equal share it.
    fn prefix(enc: &[u8]) -> u64;
    /// Total order of encoded records.
    fn cmp(a: &[u8], b: &[u8]) -> Ordering;
}

/// The first eight bytes of `key`, zero-padded, as a big-endian integer:
/// a [`RunLayout::prefix`] for byte-wise key order. Keys that agree on
/// their first eight bytes, or differ only in trailing zero bytes
/// (`"ab"`, `"ab\0"`), share it and are told apart by the full
/// comparison.
pub(crate) fn key_prefix(key: &[u8]) -> u64 {
    let mut head = [0u8; 8];
    let n = key.len().min(8);
    head[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(head)
}

/// Read the next `L` record of `r` into `buf`, replacing what it held.
pub(crate) fn read_record<L: RunLayout>(r: &mut StreamReader<'_>, buf: &mut Vec<u8>) -> Result<()> {
    buf.clear();
    r.read_into(L::HEADER, buf)?;
    let body = L::body_len(buf);
    r.read_into(body, buf)
}

#[derive(Debug)]
struct Run {
    cluster: ClusterId,
    len: u64,
    count: u64,
}

/// One buffered record: its key prefix and where its bytes sit in the
/// arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    prefix: u64,
    off: usize,
    len: usize,
}

impl Slot {
    fn bytes(self, arena: &[u8]) -> &[u8] {
        &arena[self.off..self.off + self.len]
    }
}

/// External merge sorter over zone clusters.
pub struct ExtSorter<'a, L: RunLayout> {
    mgr: &'a ZoneManager,
    tally: SocTally<'a>,
    cluster_width: u32,
    reservation: DramReservation<'a>,
    /// The buffered records' run encodings, in arrival order.
    arena: Vec<u8>,
    /// One slot per buffered record; in key order once sorted.
    slots: Vec<Slot>,
    runs: Vec<Run>,
    layout: PhantomData<L>,
}

/// Smallest DRAM reservation the sorter accepts (one block in, one out,
/// per merge stream at minimum fan-in).
const MIN_RESERVATION: u64 = 16 * BLOCK_BYTES as u64;

impl<'a, L: RunLayout> ExtSorter<'a, L> {
    /// Create a sorter. It immediately reserves sort memory from `dram`
    /// (as much as available, at least `MIN_RESERVATION`).
    pub fn new(
        mgr: &'a ZoneManager,
        soc: &'a SocCharger,
        dram: &'a DramBudget,
        cluster_width: u32,
    ) -> Result<Self> {
        let want = dram.available() / 2;
        let reservation = dram
            .reserve_up_to_guarded(want, MIN_RESERVATION)
            .ok_or(DeviceError::OutOfDram("sort DRAM"))?;
        Ok(Self {
            mgr,
            tally: soc.tally(),
            cluster_width,
            reservation,
            arena: Vec::new(),
            slots: Vec::new(),
            runs: Vec::new(),
            layout: PhantomData,
        })
    }

    /// Bytes of DRAM this sorter reserved.
    pub fn reservation(&self) -> u64 {
        self.reservation.bytes()
    }

    /// Runs spilled so far (diagnostic; grows once input exceeds DRAM).
    pub fn spilled_runs(&self) -> usize {
        self.runs.len()
    }

    /// Feed one record.
    pub fn push(&mut self, rec: &L::View<'_>) -> Result<()> {
        let off = self.arena.len();
        L::encode(rec, &mut self.arena);
        self.admit(off)
    }

    /// Feed one record already in its run encoding.
    pub fn push_encoded(&mut self, enc: &[u8]) -> Result<()> {
        let off = self.arena.len();
        self.arena.extend_from_slice(enc);
        self.admit(off)
    }

    /// Index the record just appended at `off`; spill once the buffer
    /// fills the reservation.
    fn admit(&mut self, off: usize) -> Result<()> {
        let enc = &self.arena[off..];
        self.slots.push(Slot {
            prefix: L::prefix(enc),
            off,
            len: enc.len(),
        });
        if self.arena.len() as u64 >= self.reservation.bytes() {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<()> {
        if self.slots.is_empty() {
            return Ok(());
        }
        self.sort_buf();
        let cluster = self
            .mgr
            .alloc_cluster(self.run_width(self.arena.len() as u64))?;
        let (mgr, tally, arena, slots) = (self.mgr, &mut self.tally, &self.arena, &self.slots);
        let len = release_on_error(mgr, cluster, || {
            let mut w = BlockStreamWriter::new(cluster);
            for slot in slots {
                let enc = slot.bytes(arena);
                tally.bytes(enc.len());
                w.append(mgr, enc)?;
            }
            w.seal(mgr)
        })?;
        self.runs.push(Run {
            cluster,
            len,
            count: slots.len() as u64,
        });
        self.arena.clear();
        self.slots.clear();
        Ok(())
    }

    /// Sort the buffered slots (stable), charging the comparisons.
    fn sort_buf(&mut self) {
        self.tally.sort(self.slots.len());
        let arena = &self.arena;
        self.slots.sort_by(|a, b| {
            a.prefix
                .cmp(&b.prefix)
                .then_with(|| L::cmp(a.bytes(arena), b.bytes(arena)))
        });
    }

    /// Zones for a run of `bytes`: as many as its blocks fill, at most
    /// the stripe width.
    fn run_width(&self, bytes: u64) -> u32 {
        let blocks = bytes.div_ceil(BLOCK_BYTES as u64);
        let zones = blocks.div_ceil(self.mgr.zone_blocks());
        zones.clamp(1, self.cluster_width as u64) as u32
    }

    /// DRAM-derived merge fan-in.
    fn fan_in(&self) -> usize {
        ((self.reservation.bytes() / (4 * BLOCK_BYTES as u64)) as usize).clamp(2, 64)
    }

    /// Merge the `take` runs from `at` into one new run in their place.
    /// The runs stay owned by the sorter until the merged run is written,
    /// so an error leaves every cluster for [`Drop`] to release.
    fn merge_runs(&mut self, at: usize, take: usize) -> Result<()> {
        let group = at..at + take;
        let bytes = self.runs[group.clone()].iter().map(|r| r.len).sum();
        let cluster = self.mgr.alloc_cluster(self.run_width(bytes))?;
        let mut w = BlockStreamWriter::new(cluster);
        let (mgr, tally, runs) = (self.mgr, &mut self.tally, &self.runs[group.clone()]);
        let count = release_on_error(mgr, cluster, || {
            merge_stable::<L>(
                tally,
                runs.len(),
                run_cursors::<L>(mgr, runs),
                |tally, _, enc| {
                    tally.bytes(enc.len());
                    w.append(mgr, enc)?;
                    Ok(())
                },
            )
        })?;
        let released = release_all(mgr, self.runs.drain(group));
        let len = release_on_error(mgr, cluster, || released.and_then(|()| w.seal(mgr)))?;
        self.runs.insert(
            at,
            Run {
                cluster,
                len,
                count,
            },
        );
        Ok(())
    }

    /// Finish sorting, handing every record in order to `consume`.
    /// Releases all temporary clusters and the DRAM reservation.
    pub fn finish_into(
        mut self,
        mut consume: impl FnMut(L::View<'_>) -> Result<()>,
    ) -> Result<u64> {
        if self.runs.is_empty() {
            // Zero merge rounds: the input fit in the reservation.
            if self.slots.is_empty() {
                return Ok(0);
            }
            self.sort_buf();
            for slot in &self.slots {
                consume(L::view(slot.bytes(&self.arena)))?;
            }
            return Ok(self.slots.len() as u64);
        }
        self.spill()?;
        let fan_in = self.fan_in();

        // Reduce the run count with intermediate passes. Each merges
        // adjacent runs in place — at most `fan_in`, and no more than
        // the excess needs — so the runs stay in arrival order. The
        // cursor sweeps front to back and wraps for the next round.
        let mut at = 0;
        while self.runs.len() > fan_in {
            if self.runs.len() - at < 2 {
                at = 0;
            }
            let take = (self.runs.len() - fan_in + 1)
                .min(fan_in)
                .min(self.runs.len() - at);
            self.merge_runs(at, take)?;
            at += 1;
        }

        // Final pass: merge whatever remains straight into the consumer.
        // The runs stay in `self` until they are released, so a failing
        // consumer leaves them for `Drop`.
        let emitted = merge_stable::<L>(
            &mut self.tally,
            self.runs.len(),
            run_cursors::<L>(self.mgr, &self.runs),
            |_, _, enc| consume(L::view(enc)),
        )?;
        release_all(self.mgr, self.runs.drain(..))?;
        // The DRAM reservation guard releases itself when `self` drops.
        Ok(emitted)
    }
}

/// Release every run's cluster, returning the first error.
fn release_all(mgr: &ZoneManager, runs: impl IntoIterator<Item = Run>) -> Result<()> {
    let mut first = Ok(());
    for run in runs {
        let released = mgr.release_cluster(run.cluster);
        if first.is_ok() {
            first = released;
        }
    }
    first
}

/// Run `write` into the freshly allocated `cluster`; if it fails, release
/// the half-written cluster before passing the error on.
fn release_on_error<T>(
    mgr: &ZoneManager,
    cluster: ClusterId,
    write: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let written = write();
    if written.is_err() {
        let _ = mgr.release_cluster(cluster);
    }
    written
}

/// Reads spilled runs back as [`merge_stable`] sources.
fn run_cursors<'m, L: RunLayout>(
    mgr: &'m ZoneManager,
    runs: &[Run],
) -> impl FnMut(usize, &mut Vec<u8>) -> Result<bool> + 'm {
    counted_records::<L>(
        runs.iter()
            .map(|run| (StreamReader::new(mgr, run.cluster, run.len), run.count))
            .collect(),
    )
}

/// [`merge_stable`] sources over streams: source `i` reads the next
/// record of reader `i` until its count of records runs out.
pub(crate) fn counted_records<'m, L: RunLayout>(
    mut cursors: Vec<(StreamReader<'m>, u64)>,
) -> impl FnMut(usize, &mut Vec<u8>) -> Result<bool> + 'm {
    move |i, buf| {
        let (reader, left) = &mut cursors[i];
        if *left == 0 {
            return Ok(false);
        }
        *left -= 1;
        read_record::<L>(reader, buf)?;
        Ok(true)
    }
}

/// A live merge source: its current record's prefix and its index.
type Head = (u64, usize);

/// Whether head `a` leaves the merge before head `b`: the smaller
/// prefix, then the smaller record, then, on equal records, the lower
/// source. `recs[i]` is source `i`'s current record.
fn precedes<L: RunLayout>(recs: &[Vec<u8>], a: Head, b: Head) -> bool {
    a.0.cmp(&b.0)
        .then_with(|| L::cmp(&recs[a.1], &recs[b.1]))
        .then(a.1.cmp(&b.1))
        .is_lt()
}

/// Restore the min-heap order below `i`.
fn sift_down<L: RunLayout>(heap: &mut [Head], recs: &[Vec<u8>], mut i: usize) {
    loop {
        let left = 2 * i + 1;
        let Some(&l) = heap.get(left) else {
            return;
        };
        let child = match heap.get(left + 1) {
            Some(&r) if precedes::<L>(recs, r, l) => left + 1,
            _ => left,
        };
        if !precedes::<L>(recs, heap[child], heap[i]) {
            return;
        }
        heap.swap(i, child);
        i = child;
    }
}

/// Stable k-way merge of `k` sorted sources of `L` records. `next(i,
/// buf)` reads source `i`'s next record into `buf` and returns false,
/// leaving `buf` alone, once the source is exhausted; `emit(tally, i,
/// rec)` takes the records in order, borrowed. Each source's record is
/// held in a buffer of its own, reused for the whole merge. On equal
/// records the lower source goes first, so sources given in arrival
/// order merge stably. Each record emitted is charged one `k`-way merge
/// step to `tally`, which `emit` gets for its own charges. Returns the
/// count.
pub(crate) fn merge_stable<'s, L: RunLayout>(
    tally: &mut SocTally<'s>,
    k: usize,
    mut next: impl FnMut(usize, &mut Vec<u8>) -> Result<bool>,
    mut emit: impl FnMut(&mut SocTally<'s>, usize, &[u8]) -> Result<()>,
) -> Result<u64> {
    let mut recs: Vec<Vec<u8>> = vec![Vec::new(); k];
    let mut heap: Vec<Head> = Vec::with_capacity(k);
    for (src, rec) in recs.iter_mut().enumerate() {
        if next(src, rec)? {
            heap.push((L::prefix(rec), src));
        }
    }
    for i in (0..heap.len() / 2).rev() {
        sift_down::<L>(&mut heap, &recs, i);
    }
    // The record leaving the merge, swapped out of its source's buffer
    // when the source reads its next one.
    let mut out = Vec::new();
    let mut emitted = 0u64;
    while let Some(&(_, src)) = heap.first() {
        tally.merge_step(k);
        if next(src, &mut out)? {
            std::mem::swap(&mut recs[src], &mut out);
            emit(tally, src, &out)?;
            heap[0].0 = L::prefix(&recs[src]);
        } else {
            emit(tally, src, &recs[src])?;
            heap.swap_remove(0);
        }
        sift_down::<L>(&mut heap, &recs, 0);
        emitted += 1;
    }
    Ok(emitted)
}

impl<L: RunLayout> Drop for ExtSorter<'_, L> {
    fn drop(&mut self) {
        // Failure path: return the zones (the DRAM reservation guard
        // and the tally fields release and book themselves right after
        // this runs).
        let _ = release_all(self.mgr, self.runs.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{KlogRecord, KlogRef};
    use crate::testing::test_stack;
    use kvcsd_sim::XorShift64;
    use std::sync::Arc;

    fn key(i: u64) -> Vec<u8> {
        format!("{i:010}").into_bytes()
    }

    /// Feed `s` the KLOG record of key `i`.
    fn push(s: &mut ExtSorter<'_, KlogRecord>, i: u64) -> Result<()> {
        s.push(&KlogRef {
            key: &key(i),
            voff: i * 32,
            vlen: 32,
        })
    }

    #[test]
    fn sorts_in_memory_when_small() {
        let (mgr, soc, _) = test_stack(64, 99);
        let dram = DramBudget::new(64 << 20);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 4).unwrap();
        let mut rng = XorShift64::new(5);
        let mut keys: Vec<u64> = (0..1000).map(|_| rng.next_below(1_000_000)).collect();
        for &k in &keys {
            push(&mut s, k).unwrap();
        }
        assert_eq!(s.spilled_runs(), 0, "everything fits in DRAM");
        let clusters = mgr.cluster_count();
        let before = soc.ledger().snapshot();
        let mut out = Vec::new();
        let n = s
            .finish_into(|r| {
                out.push(r.key.to_vec());
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 1000);
        let d = soc.ledger().snapshot().since(&before);
        assert!(d.soc_cpu_ns > 0, "the in-DRAM sort is still charged");
        assert_eq!(
            (d.nand_program_pages, d.nand_read_pages, d.nand_erase_blocks),
            (0, 0, 0),
            "zero merge rounds touch no flash"
        );
        assert_eq!(mgr.cluster_count(), clusters, "no temporary cluster");
        keys.sort();
        let want: Vec<Vec<u8>> = keys.iter().map(|&k| key(k)).collect();
        assert_eq!(out, want);
        assert_eq!(dram.used(), 0, "reservation returned");
    }

    #[test]
    fn spills_and_merges_when_dram_is_tight() {
        let (mgr, soc, _) = test_stack(512, 99);
        // Tiny budget: force many runs.
        let dram = DramBudget::new(MIN_RESERVATION * 2);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 4).unwrap();
        let mut rng = XorShift64::new(6);
        let n = 40_000u64;
        for _ in 0..n {
            push(&mut s, rng.next_below(10_000_000)).unwrap();
        }
        assert!(
            s.spilled_runs() > 1,
            "tight DRAM must spill: {}",
            s.spilled_runs()
        );
        let before_zones = mgr.cluster_count();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0u64;
        s.finish_into(|r| {
            if let Some(p) = &prev {
                assert!(r.key >= &p[..], "output must be sorted");
            }
            prev = Some(r.key.to_vec());
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, n);
        assert_eq!(dram.used(), 0);
        assert!(
            mgr.cluster_count() <= before_zones,
            "temp clusters released"
        );
    }

    #[test]
    fn multi_pass_merge_when_runs_exceed_fan_in() {
        let (mgr, soc, _) = test_stack(1024, 99);
        let dram = DramBudget::new(MIN_RESERVATION);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 2).unwrap();
        // fan_in at minimum reservation = 16*4096/(4*4096) = 4.
        assert_eq!(s.fan_in(), 4);
        let mut rng = XorShift64::new(7);
        // Push enough for > 4 runs (reservation 64 KiB, record ~24 B -> a
        // run every ~2700 records).
        for _ in 0..20_000u64 {
            push(&mut s, rng.next_below(1_000_000)).unwrap();
        }
        assert!(s.spilled_runs() > 4);
        let mut prev: Option<Vec<u8>> = None;
        let n = s
            .finish_into(|r| {
                if let Some(p) = &prev {
                    assert!(r.key >= &p[..]);
                }
                prev = Some(r.key.to_vec());
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 20_000);
    }

    /// Sort `keys` tagged with their arrival index (as `voff`) under a
    /// DRAM budget of `dram_bytes`; returns the output and the spilled
    /// runs and fan-in seen before the finish.
    fn sort_tagged(keys: &[u64], dram_bytes: u64) -> (Vec<(Vec<u8>, u64)>, usize, usize) {
        let (mgr, soc, _) = test_stack(512, 99);
        let dram = DramBudget::new(dram_bytes);
        let mut s = ExtSorter::<KlogRecord>::new(&mgr, &soc, &dram, 4).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            s.push(&KlogRef {
                key: &key(k),
                voff: i as u64,
                vlen: 32,
            })
            .unwrap();
        }
        let (runs, fan_in) = (s.spilled_runs(), s.fan_in());
        let mut out = Vec::new();
        s.finish_into(|r| {
            out.push((r.key.to_vec(), r.voff));
            Ok(())
        })
        .unwrap();
        (out, runs, fan_in)
    }

    #[test]
    fn equal_keys_keep_arrival_order_in_every_path() {
        let mut rng = XorShift64::new(11);
        let keys: Vec<u64> = (0..60_000).map(|_| rng.next_below(40)).collect();
        let (roomy, runs, _) = sort_tagged(&keys, 64 << 20);
        assert_eq!(runs, 0);
        let (tight, runs, fan_in) = sort_tagged(&keys, MIN_RESERVATION);
        assert!(runs > 2 * fan_in, "intermediate rounds: {runs} runs");
        assert_eq!(tight, roomy);
        for w in roomy.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn spilled_run_owns_only_the_zones_its_blocks_fill() {
        let (mgr, soc, _) = test_stack(512, 99);
        let dram = DramBudget::new(1 << 20);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 8).unwrap();
        let mut rng = XorShift64::new(12);
        while s.spilled_runs() == 0 {
            push(&mut s, rng.next_below(1_000_000)).unwrap();
        }
        let run = &s.runs[0];
        let blocks = run.len.div_ceil(BLOCK_BYTES as u64);
        let zones = mgr.cluster_zone_count(run.cluster).unwrap();
        assert_eq!(zones as u64, blocks.div_ceil(mgr.zone_blocks()));
        assert!(zones > 1 && zones < 8, "{zones} of 8 zones");

        // Releasing the run resets exactly its zones' written blocks.
        let zns = mgr.zns();
        let pages_per_block = zns.nand().geometry().pages_per_block;
        let state = mgr.export_state();
        let owned = &state
            .clusters
            .iter()
            .find(|c| c.id == run.cluster.0)
            .unwrap()
            .groups;
        let written: u64 = owned
            .iter()
            .flatten()
            .map(|&z| {
                let wp = zns.zone_info(z).unwrap().write_pointer_pages;
                wp.div_ceil(pages_per_block) as u64
            })
            .sum();
        let before = soc.ledger().snapshot();
        drop(s);
        let d = soc.ledger().snapshot().since(&before);
        assert_eq!(d.nand_erase_blocks, written);
        assert_eq!(mgr.cluster_count(), 0);
    }

    /// Ablation 3's 1 MiB row compacts 25,000 pairs with 2 KiB values.
    /// Its value sort reserves half of what the key and gather sorters
    /// leave (384 KiB), spills more runs than its fan-in and so merges
    /// in more than one round.
    #[test]
    fn one_mib_ablation_value_sort_merges_in_rounds() {
        let (mgr, soc, _) = test_stack(512, 99);
        let dram = DramBudget::new(1 << 20);
        let key_sorter = ExtSorter::<KlogRecord>::new(&mgr, &soc, &dram, 8).unwrap();
        let _gather = ExtSorter::<KlogRecord>::new(&mgr, &soc, &dram, 8).unwrap();
        drop(key_sorter);
        let mut s = ExtSorter::<KlogRecord>::new(&mgr, &soc, &dram, 8).unwrap();
        assert_eq!(s.reservation(), 384 << 10);
        let mut rng = XorShift64::new(13);
        for rank in 0..25_000u64 {
            // A rank-keyed record the size of a 2 KiB value record.
            let mut key = vec![0u8; 2048];
            key[..8].copy_from_slice(&rng.next_u64().to_be_bytes());
            s.push(&KlogRef {
                key: &key,
                voff: rank,
                vlen: 2048,
            })
            .unwrap();
        }
        assert!(
            s.spilled_runs() > s.fan_in(),
            "{} runs, fan-in {}",
            s.spilled_runs(),
            s.fan_in()
        );
        let mut prev: Option<Vec<u8>> = None;
        let n = s
            .finish_into(|r| {
                assert!(prev.as_deref().is_none_or(|p| p <= r.key));
                prev = Some(r.key.to_vec());
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 25_000);
    }

    #[test]
    fn duplicate_keys_are_all_retained() {
        let (mgr, soc, _) = test_stack(128, 99);
        let dram = DramBudget::new(MIN_RESERVATION);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 2).unwrap();
        for i in 0..5000u64 {
            push(&mut s, i % 10).unwrap(); // heavy duplication
        }
        let mut count = 0u64;
        s.finish_into(|_| {
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 5000);
    }

    #[test]
    fn sort_work_is_charged_to_soc() {
        let (mgr, soc, _) = test_stack(64, 99);
        let dram = DramBudget::new(64 << 20);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 2).unwrap();
        for i in 0..1000u64 {
            push(&mut s, 999 - i).unwrap();
        }
        s.finish_into(|_| Ok(())).unwrap();
        let snap = soc.ledger().snapshot();
        assert!(snap.soc_cpu_ns > 0);
        assert_eq!(snap.host_cpu_ns, 0);
    }

    #[test]
    fn spill_io_is_real() {
        let (mgr, soc, _) = test_stack(512, 99);
        let dram = DramBudget::new(MIN_RESERVATION);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 2).unwrap();
        let before = soc.ledger().snapshot();
        let mut rng = XorShift64::new(8);
        for _ in 0..20_000u64 {
            push(&mut s, rng.next_below(1_000_000)).unwrap();
        }
        s.finish_into(|_| Ok(())).unwrap();
        let d = soc.ledger().snapshot().since(&before);
        assert!(d.nand_program_pages > 0, "runs must hit flash");
        assert!(d.nand_read_pages > 0, "merge must read runs back");
    }

    #[test]
    fn empty_input_is_fine() {
        let (mgr, soc, _) = test_stack(64, 99);
        let dram = DramBudget::new(1 << 20);
        let s: ExtSorter<'_, KlogRecord> = ExtSorter::new(&mgr, &soc, &dram, 2).unwrap();
        let n = s.finish_into(|_| Ok(())).unwrap();
        assert_eq!(n, 0);
        assert_eq!(dram.used(), 0);
    }

    #[test]
    fn fails_cleanly_without_dram() {
        let (mgr, soc, _) = test_stack(64, 99);
        let dram = DramBudget::new(1024); // below MIN_RESERVATION
        assert!(matches!(
            ExtSorter::<KlogRecord>::new(&mgr, &soc, &dram, 2),
            Err(DeviceError::OutOfDram(_))
        ));
    }

    /// Push records until the sorter has spilled `runs` runs.
    fn spill_runs<'a>(
        mgr: &'a ZoneManager,
        soc: &'a SocCharger,
        dram: &'a DramBudget,
        runs: usize,
    ) -> ExtSorter<'a, KlogRecord> {
        let mut s = ExtSorter::new(mgr, soc, dram, 2).unwrap();
        let mut rng = XorShift64::new(10);
        while s.spilled_runs() < runs {
            push(&mut s, rng.next_below(1_000_000)).unwrap();
        }
        s
    }

    #[test]
    fn failing_consumer_leaves_no_cluster_behind() {
        let (mgr, soc, _) = test_stack(512, 99);
        let dram = DramBudget::new(MIN_RESERVATION);
        let s = spill_runs(&mgr, &soc, &dram, 4);
        assert_eq!(mgr.cluster_count(), 4);
        let mut seen = 0;
        let r = s.finish_into(|_| {
            seen += 1;
            if seen == 10 {
                return Err(DeviceError::Internal("consumer gave up".into()));
            }
            Ok(())
        });
        assert!(matches!(r, Err(DeviceError::Internal(_))), "{r:?}");
        assert_eq!(mgr.cluster_count(), 0, "every run released");
        assert_eq!(dram.used(), 0);
    }

    fn arm(mgr: &ZoneManager, plan: kvcsd_sim::FaultPlan) {
        let inj = kvcsd_sim::FaultInjector::new(plan);
        mgr.zns().nand().set_fault_injector(Some(Arc::new(inj)));
    }

    #[test]
    fn failed_spill_releases_its_half_written_run() {
        let (mgr, soc, _) = test_stack(512, 99);
        let dram = DramBudget::new(MIN_RESERVATION);
        let mut s = spill_runs(&mgr, &soc, &dram, 2);
        arm(
            &mgr,
            kvcsd_sim::FaultPlan {
                program_error_prob: 1.0,
                ..kvcsd_sim::FaultPlan::none()
            },
        );
        let mut rng = XorShift64::new(11);
        let err = loop {
            if let Err(e) = push(&mut s, rng.next_below(1_000_000)) {
                break e;
            }
        };
        assert!(matches!(err, DeviceError::Flash(_)), "{err:?}");
        assert_eq!(mgr.cluster_count(), 2, "only the sealed runs are left");
        drop(s);
        assert_eq!(mgr.cluster_count(), 0);
    }

    #[test]
    fn failed_merge_round_releases_its_group_and_output() {
        let (mgr, soc, _) = test_stack(1024, 99);
        let dram = DramBudget::new(MIN_RESERVATION);
        let s = spill_runs(&mgr, &soc, &dram, 6);
        assert!(s.spilled_runs() > s.fan_in(), "an intermediate round");
        // Reads fail: the last spill still succeeds, the first merge
        // round cannot read its runs back.
        arm(
            &mgr,
            kvcsd_sim::FaultPlan {
                read_error_prob: 1.0,
                ..kvcsd_sim::FaultPlan::none()
            },
        );
        let r = s.finish_into(|_| Ok(()));
        assert!(matches!(r, Err(DeviceError::Flash(_))), "{r:?}");
        assert_eq!(mgr.cluster_count(), 0, "every run and the output released");
        assert_eq!(dram.used(), 0);
    }

    #[test]
    fn drop_without_finish_releases_resources() {
        let (mgr, soc, _) = test_stack(512, 99);
        let dram = DramBudget::new(MIN_RESERVATION);
        {
            let mut s = ExtSorter::new(&mgr, &soc, &dram, 2).unwrap();
            let mut rng = XorShift64::new(9);
            for _ in 0..20_000u64 {
                push(&mut s, rng.next_below(1_000_000)).unwrap();
            }
            assert!(s.spilled_runs() > 0);
        } // dropped here
        assert_eq!(dram.used(), 0);
        assert_eq!(mgr.cluster_count(), 0);
    }
}
