//! DRAM-bounded external merge sort.
//!
//! "Sorting is done by running multiple rounds of merge sorts, depending
//! on available SoC DRAM space. Intermediate sorting results are stored
//! in dynamically allocated zone clusters, which are released upon
//! completion of the sort." (Section V)
//!
//! The sorter reserves what it can from the [`DramBudget`] and
//! accumulates records until the reservation is full. When the whole
//! input fits, that is zero rounds: [`ExtSorter::finish_into`] sorts the
//! buffer in place and streams it out, with no zone I/O at all.
//! Otherwise each full buffer is sorted and spilled as a run to a
//! temporary zone cluster, and the runs are k-way-merged (in multiple
//! passes when the run count exceeds the DRAM-derived fan-in). A spill or
//! merge knows its byte count before it allocates, so its cluster gets
//! only the zones those bytes fill, up to the stripe width: a small run
//! erases one block, not one per zone of a full-width cluster. Every
//! comparison and byte moved is charged to the SoC; every spill and
//! merge readback is real zone I/O.
//!
//! The sort is stable: records with equal keys leave in arrival order
//! (last write wins downstream). Runs are kept in arrival order and a
//! merge prefers the earlier run on a tie.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::dram::{DramBudget, DramReservation};
use crate::error::DeviceError;
use crate::ingest::{BlockStreamWriter, KlogRecord, StreamReader};
use crate::soc::SocCharger;
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;
use crate::BLOCK_BYTES;

/// A record an [`ExtSorter`] can spill, read back and order.
pub trait SortRecord: Sized {
    /// Bytes this record occupies in a run.
    fn encoded_len(&self) -> usize;
    /// Serialize to the end of `out`.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// Deserialize one record from a run stream.
    fn read_from(r: &mut StreamReader<'_>) -> Result<Self>;
    /// Total order of records.
    fn cmp_key(&self, other: &Self) -> Ordering;
}

impl SortRecord for KlogRecord {
    fn encoded_len(&self) -> usize {
        KlogRecord::encoded_len(self)
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        KlogRecord::encode_into(self, out)
    }
    fn read_from(r: &mut StreamReader<'_>) -> Result<Self> {
        KlogRecord::read_from(r)
    }
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

#[derive(Debug)]
struct Run {
    cluster: ClusterId,
    len: u64,
    count: u64,
}

/// External merge sorter over zone clusters.
pub struct ExtSorter<'a, R: SortRecord> {
    mgr: &'a ZoneManager,
    soc: &'a SocCharger,
    cluster_width: u32,
    reservation: DramReservation<'a>,
    buf: Vec<R>,
    buf_bytes: u64,
    runs: Vec<Run>,
    total: u64,
}

/// Smallest DRAM reservation the sorter accepts (one block in, one out,
/// per merge stream at minimum fan-in).
const MIN_RESERVATION: u64 = 16 * BLOCK_BYTES as u64;

impl<'a, R: SortRecord> ExtSorter<'a, R> {
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
            soc,
            cluster_width,
            reservation,
            buf: Vec::new(),
            buf_bytes: 0,
            runs: Vec::new(),
            total: 0,
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
    pub fn push(&mut self, rec: R) -> Result<()> {
        self.buf_bytes += rec.encoded_len() as u64;
        self.buf.push(rec);
        self.total += 1;
        if self.buf_bytes >= self.reservation.bytes() {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.sort_buf();
        let cluster = self.mgr.alloc_cluster(self.run_width(self.buf_bytes))?;
        let count = self.buf.len() as u64;
        let (mgr, soc, buf) = (self.mgr, self.soc, &mut self.buf);
        let len = release_on_error(mgr, cluster, || {
            let mut w = BlockStreamWriter::new(cluster);
            let mut enc = Vec::with_capacity(BLOCK_BYTES);
            for rec in buf.drain(..) {
                enc.clear();
                rec.encode_into(&mut enc);
                soc.bytes(enc.len());
                w.append(mgr, &enc)?;
            }
            w.seal(mgr)
        })?;
        self.runs.push(Run {
            cluster,
            len,
            count,
        });
        self.buf_bytes = 0;
        Ok(())
    }

    /// Sort the DRAM buffer in place (stable), charging the comparisons.
    fn sort_buf(&mut self) {
        self.soc.sort(self.buf.len());
        self.buf.sort_by(|a, b| a.cmp_key(b));
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
        let (mgr, soc, runs) = (self.mgr, self.soc, &self.runs[group.clone()]);
        let count = release_on_error(mgr, cluster, || {
            let mut enc = Vec::with_capacity(BLOCK_BYTES);
            merge_stable(soc, runs.len(), run_cursors(mgr, runs), |_, rec: R| {
                enc.clear();
                rec.encode_into(&mut enc);
                soc.bytes(enc.len());
                w.append(mgr, &enc)?;
                Ok(())
            })
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

    /// Finish sorting, streaming every record in order into `consume`.
    /// Releases all temporary clusters and the DRAM reservation.
    pub fn finish_into(mut self, mut consume: impl FnMut(R) -> Result<()>) -> Result<u64> {
        if self.runs.is_empty() {
            // Zero merge rounds: the input fit in the reservation.
            if self.buf.is_empty() {
                return Ok(0);
            }
            self.sort_buf();
            let buf = std::mem::take(&mut self.buf);
            let emitted = buf.len() as u64;
            for rec in buf {
                consume(rec)?;
            }
            return Ok(emitted);
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
        let emitted = merge_stable(
            self.soc,
            self.runs.len(),
            run_cursors(self.mgr, &self.runs),
            |_, rec| consume(rec),
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
fn run_cursors<'m, R: SortRecord>(
    mgr: &'m ZoneManager,
    runs: &[Run],
) -> impl FnMut(usize) -> Result<Option<R>> + 'm {
    counted_records(
        runs.iter()
            .map(|run| (StreamReader::new(mgr, run.cluster, run.len), run.count))
            .collect(),
    )
}

/// [`merge_stable`] sources over streams: source `i` yields the next
/// record of reader `i` until its count of records runs out.
pub(crate) fn counted_records<'m, R: SortRecord>(
    mut cursors: Vec<(StreamReader<'m>, u64)>,
) -> impl FnMut(usize) -> Result<Option<R>> + 'm {
    move |i| {
        let (reader, left) = &mut cursors[i];
        if *left == 0 {
            return Ok(None);
        }
        *left -= 1;
        R::read_from(reader).map(Some)
    }
}

/// The head record of one merge source, ordered so that the max-heap
/// pops the smallest key and, among equal keys, the lowest source.
struct Head<R> {
    rec: R,
    src: usize,
}

impl<R: SortRecord> Ord for Head<R> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .rec
            .cmp_key(&self.rec)
            .then_with(|| other.src.cmp(&self.src))
    }
}

impl<R: SortRecord> PartialOrd for Head<R> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<R: SortRecord> PartialEq for Head<R> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<R: SortRecord> Eq for Head<R> {}

/// Stable k-way merge of `k` sorted sources. `next(i)` yields source
/// `i`'s next record (`None` when it is exhausted) and `emit(i, rec)`
/// takes the records in `cmp_key` order. On equal keys the lower source
/// goes first, so sources given in arrival order merge stably. Each
/// record emitted is charged one `k`-way merge step. Returns the count.
pub(crate) fn merge_stable<R: SortRecord>(
    soc: &SocCharger,
    k: usize,
    mut next: impl FnMut(usize) -> Result<Option<R>>,
    mut emit: impl FnMut(usize, R) -> Result<()>,
) -> Result<u64> {
    let mut heads = BinaryHeap::with_capacity(k);
    for src in 0..k {
        if let Some(rec) = next(src)? {
            heads.push(Head { rec, src });
        }
    }
    let mut emitted = 0u64;
    while let Some(mut top) = heads.peek_mut() {
        soc.merge_step(k);
        let src = top.src;
        let rec = match next(src)? {
            Some(rec) => {
                let out = std::mem::replace(&mut top.rec, rec);
                drop(top);
                out
            }
            None => PeekMut::pop(top).rec,
        };
        emit(src, rec)?;
        emitted += 1;
    }
    Ok(emitted)
}

impl<R: SortRecord> Drop for ExtSorter<'_, R> {
    fn drop(&mut self) {
        // Failure path: return the zones (the DRAM reservation guard
        // field releases itself right after this runs).
        let _ = release_all(self.mgr, self.runs.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::test_stack;
    use kvcsd_sim::XorShift64;
    use std::sync::Arc;

    fn rec(i: u64) -> KlogRecord {
        KlogRecord {
            key: format!("{i:010}").into_bytes(),
            voff: i * 32,
            vlen: 32,
        }
    }

    #[test]
    fn sorts_in_memory_when_small() {
        let (mgr, soc, _) = test_stack(64, 99);
        let dram = DramBudget::new(64 << 20);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 4).unwrap();
        let mut rng = XorShift64::new(5);
        let mut keys: Vec<u64> = (0..1000).map(|_| rng.next_below(1_000_000)).collect();
        for &k in &keys {
            s.push(rec(k)).unwrap();
        }
        assert_eq!(s.spilled_runs(), 0, "everything fits in DRAM");
        let clusters = mgr.cluster_count();
        let before = soc.ledger().snapshot();
        let mut out = Vec::new();
        let n = s
            .finish_into(|r| {
                out.push(r);
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
        let got: Vec<Vec<u8>> = out.iter().map(|r| r.key.clone()).collect();
        let want: Vec<Vec<u8>> = keys
            .iter()
            .map(|k| format!("{k:010}").into_bytes())
            .collect();
        assert_eq!(got, want);
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
            s.push(rec(rng.next_below(10_000_000))).unwrap();
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
                assert!(r.key >= *p, "output must be sorted");
            }
            prev = Some(r.key);
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
            s.push(rec(rng.next_below(1_000_000))).unwrap();
        }
        assert!(s.spilled_runs() > 4);
        let mut prev: Option<Vec<u8>> = None;
        let n = s
            .finish_into(|r| {
                if let Some(p) = &prev {
                    assert!(r.key >= *p);
                }
                prev = Some(r.key);
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
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 4).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            s.push(KlogRecord {
                voff: i as u64,
                ..rec(k)
            })
            .unwrap();
        }
        let (runs, fan_in) = (s.spilled_runs(), s.fan_in());
        let mut out = Vec::new();
        s.finish_into(|r| {
            out.push((r.key, r.voff));
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
            s.push(rec(rng.next_below(1_000_000))).unwrap();
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
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 8).unwrap();
        assert_eq!(s.reservation(), 384 << 10);
        let mut rng = XorShift64::new(13);
        for rank in 0..25_000u64 {
            // A rank-keyed record the size of a 2 KiB value record.
            let mut key = vec![0u8; 2048];
            key[..8].copy_from_slice(&rng.next_u64().to_be_bytes());
            s.push(KlogRecord {
                key,
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
                assert!(prev.as_ref().is_none_or(|p| *p <= r.key));
                prev = Some(r.key);
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
            s.push(rec(i % 10)).unwrap(); // heavy duplication
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
            s.push(rec(999 - i)).unwrap();
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
            s.push(rec(rng.next_below(1_000_000))).unwrap();
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
            s.push(rec(rng.next_below(1_000_000))).unwrap();
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
            if let Err(e) = s.push(rec(rng.next_below(1_000_000))) {
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
                s.push(rec(rng.next_below(1_000_000))).unwrap();
            }
            assert!(s.spilled_runs() > 0);
        } // dropped here
        assert_eq!(dram.used(), 0);
        assert_eq!(mgr.cluster_count(), 0);
    }
}
