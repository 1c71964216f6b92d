//! Offloaded secondary-index construction.
//!
//! "Building a secondary index is a two-step process. First, KV-CSD
//! performs a full scan of the keyspace data to extract all secondary
//! index keys from the values, along with their associated primary index
//! keys. ... Next, KV-CSD sorts these pairs in a manner similar to what
//! it does for sorting the primary index keys, producing the secondary
//! index stored in SIDX zone clusters." (Section V)
//!
//! The SIDX is stored like the PIDX, in the one sketched block-index
//! format of `index.rs`. Each entry also carries the value locator, so a
//! secondary query can stream matching records straight out of
//! SORTED_VALUES without a per-result primary-index lookup.

use kvcsd_sim::bytes::{le_u16, le_u32, le_u64};
use std::cmp::Ordering;

use kvcsd_proto::SecondaryIndexSpec;

use crate::admission::Deadline;
use crate::dram::DramBudget;
use crate::extsort::{key_prefix, ExtSorter, RunLayout};
use crate::index::{BlockIndex, EntryRef, IndexBlock, IndexEntry, IndexWriter, PidxEntry};
use crate::ingest::StreamReader;
use crate::soc::SocCharger;
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;

/// The SIDX entry layout: encoded secondary key, primary key, value
/// locator. It is a layout only: entries are written and read as
/// [`EntryRef`]s, in index blocks and in sort runs alike.
#[derive(Debug)]
pub enum SidxEntry {}

/// Sort runs hold entries in their SIDX block layout, so a sorted entry
/// goes into its block as it left the run. Entries order by secondary
/// key, then primary key.
impl RunLayout for SidxEntry {
    type View<'a> = EntryRef<'a>;
    const HEADER: usize = <Self as IndexEntry>::HEADER;

    fn body_len(hdr: &[u8]) -> usize {
        le_u16(hdr, 0) as usize + le_u16(hdr, 2) as usize
    }
    fn encode(rec: &EntryRef<'_>, out: &mut Vec<u8>) {
        <Self as IndexEntry>::encode(rec, out);
    }
    fn view(enc: &[u8]) -> EntryRef<'_> {
        let keys = &enc[<Self as IndexEntry>::HEADER..];
        let (key, pkey) = keys.split_at(le_u16(enc, 0) as usize);
        EntryRef {
            key,
            pkey,
            voff: le_u64(enc, 4),
            vlen: le_u32(enc, 12),
        }
    }
    fn prefix(enc: &[u8]) -> u64 {
        key_prefix(Self::view(enc).key)
    }
    fn cmp(a: &[u8], b: &[u8]) -> Ordering {
        let (a, b) = (Self::view(a), Self::view(b));
        a.key.cmp(b.key).then_with(|| a.pkey.cmp(b.pkey))
    }
}

/// Result of building one secondary index.
#[derive(Debug)]
pub struct SidxOutput {
    pub index: BlockIndex,
    pub entries: u64,
}

impl SidxOutput {
    /// Drain a sorted [`SidxEntry`] sorter into a new SIDX. Shared by the
    /// separate build below and by single-pass compaction
    /// ([`crate::compact::run_compaction`] given index specs).
    pub(crate) fn write(
        mgr: &ZoneManager,
        sorter: ExtSorter<'_, SidxEntry>,
        cluster_width: u32,
    ) -> Result<Self> {
        let mut index = IndexWriter::<SidxEntry>::new(mgr, cluster_width)?;
        let entries = sorter.finish_into(|e| index.push(mgr, &e))?;
        Ok(Self {
            index: index.finish(mgr)?,
            entries,
        })
    }
}

/// Build a secondary index over a COMPACTED keyspace.
///
/// Scans PIDX + SORTED_VALUES sequentially (the "full scan of the
/// keyspace data"), extracts `(secondary key, primary key)` pairs per the
/// application-supplied `spec`, external-sorts them, and writes SIDX
/// blocks plus the sketch. Values whose bytes cannot satisfy the spec
/// (too short) are skipped, mirroring a forgiving scan. The deadline is
/// checked between the scan and the sort-and-write phase.
#[allow(clippy::too_many_arguments)]
pub fn build_secondary_index(
    mgr: &ZoneManager,
    soc: &SocCharger,
    dram: &DramBudget,
    pidx: &BlockIndex,
    svalues: (ClusterId, u64),
    spec: &SecondaryIndexSpec,
    cluster_width: u32,
    deadline: &Deadline<'_>,
) -> Result<SidxOutput> {
    let mut sorter: ExtSorter<'_, SidxEntry> = ExtSorter::new(mgr, soc, dram, cluster_width)?;

    // Full scan: PIDX gives (pkey, voff, vlen) in order; SORTED_VALUES is
    // read sequentially alongside.
    {
        let mut tally = soc.tally();
        let mut vread = StreamReader::new(mgr, svalues.0, svalues.1);
        let (mut value, mut scratch) = (Vec::new(), [0u8; 8]);
        for b in 0..pidx.blocks {
            let block = pidx.read_block(mgr, &mut tally, b)?;
            for e in IndexBlock::<PidxEntry>::parse(&block)?.iter() {
                debug_assert_eq!(vread.position(), e.voff);
                value.clear();
                vread.read_into(e.vlen as usize, &mut value)?;
                tally.bytes(value.len());
                if let Some(skey) = spec.extract_into(&value, &mut scratch) {
                    sorter.push(&EntryRef { key: skey, ..e })?;
                }
            }
        }
    }

    deadline.check()?;
    SidxOutput::write(mgr, sorter, cluster_width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::run_compaction;
    use crate::ingest::WriteLog;
    use crate::testing::test_stack;
    use kvcsd_proto::{SecondaryKeyType, SidxKey};
    use kvcsd_sim::XorShift64;

    /// Particle-style values: 28 bytes payload + 4-byte f32 energy tail.
    fn particle_value(energy: f32, filler: u8) -> Vec<u8> {
        let mut v = vec![filler; 32];
        v[28..].copy_from_slice(&energy.to_le_bytes());
        v
    }

    fn energy_spec() -> SecondaryIndexSpec {
        SecondaryIndexSpec {
            name: "energy".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        }
    }

    fn compacted_keyspace(
        n: u64,
        mgr: &ZoneManager,
        soc: &SocCharger,
        dram: &DramBudget,
    ) -> (crate::compact::CompactionOutput, Vec<(Vec<u8>, f32)>) {
        let kc = mgr.alloc_cluster(4).unwrap();
        let vc = mgr.alloc_cluster(4).unwrap();
        let mut log = WriteLog::new(kc, vc);
        let mut rng = XorShift64::new(n ^ 777);
        let mut truth = Vec::new();
        for i in 0..n {
            let key = format!("particle-{:010}", rng.next_below(u32::MAX as u64)).into_bytes();
            let energy = (rng.next_f64() * 10.0) as f32;
            log.put(
                mgr,
                &mut soc.tally(),
                &key,
                &particle_value(energy, i as u8),
            )
            .unwrap();
            truth.push((key, energy));
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
        (out, truth)
    }

    /// A SIDX entry owned by a test.
    struct Owned {
        skey: Vec<u8>,
        pkey: Vec<u8>,
        voff: u64,
        vlen: u32,
    }

    fn read_sidx(mgr: &ZoneManager, out: &SidxOutput) -> Vec<Owned> {
        let mut got = Vec::new();
        for b in 0..out.index.blocks {
            let block = mgr.read_block(out.index.cluster, b as u64).unwrap();
            got.extend(
                IndexBlock::<SidxEntry>::parse(&block)
                    .unwrap()
                    .iter()
                    .map(|e| Owned {
                        skey: e.key.to_vec(),
                        pkey: e.pkey.to_vec(),
                        voff: e.voff,
                        vlen: e.vlen,
                    }),
            );
        }
        got
    }

    #[test]
    fn build_produces_sorted_complete_index() {
        let (mgr, soc, dram) = test_stack(256, 321);
        let (cout, truth) = compacted_keyspace(2_000, &mgr, &soc, &dram);
        let out = build_secondary_index(
            &mgr,
            &soc,
            &dram,
            &cout.pidx,
            cout.svalues,
            &energy_spec(),
            4,
            &Deadline::none(),
        )
        .unwrap();
        assert_eq!(out.entries, 2_000);
        assert_eq!(out.index.sketch.pivots().len() as u32, out.index.blocks);
        let got = read_sidx(&mgr, &out);
        assert_eq!(got.len(), 2_000);
        // Sorted by encoded secondary key (ties by pkey).
        assert!(got
            .windows(2)
            .all(|w| (w[0].skey.as_slice(), w[0].pkey.as_slice())
                <= (w[1].skey.as_slice(), w[1].pkey.as_slice())));
        // Every particle is present with the correct energy encoding.
        let mut want: Vec<(Vec<u8>, Vec<u8>)> = truth
            .iter()
            .map(|(k, e)| (SidxKey::F32(*e).encode(), k.clone()))
            .collect();
        want.sort();
        let have: Vec<(Vec<u8>, Vec<u8>)> = got
            .iter()
            .map(|e| (e.skey.clone(), e.pkey.clone()))
            .collect();
        assert_eq!(have, want);
    }

    #[test]
    fn value_locators_resolve_to_real_records() {
        let (mgr, soc, dram) = test_stack(256, 321);
        let (cout, _) = compacted_keyspace(500, &mgr, &soc, &dram);
        let out = build_secondary_index(
            &mgr,
            &soc,
            &dram,
            &cout.pidx,
            cout.svalues,
            &energy_spec(),
            4,
            &Deadline::none(),
        )
        .unwrap();
        for e in read_sidx(&mgr, &out).iter().step_by(37) {
            let value = mgr
                .read_bytes(cout.svalues.0, e.voff, e.vlen as usize)
                .unwrap();
            let energy = f32::from_le_bytes(value[28..32].try_into().unwrap());
            assert_eq!(SidxKey::F32(energy).encode(), e.skey);
        }
    }

    #[test]
    fn short_values_are_skipped_not_fatal() {
        let (mgr, soc, dram) = test_stack(256, 321);
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        log.put(&mgr, &mut soc.tally(), b"good", &particle_value(5.0, 1))
            .unwrap();
        log.put(&mgr, &mut soc.tally(), b"tiny", b"xx").unwrap(); // too short for the spec
        let (klen, vlen) = log.seal(&mgr).unwrap();
        let cout = run_compaction(
            &mgr,
            &soc,
            &dram,
            (kc, klen),
            (vc, vlen),
            2,
            2,
            &[],
            &Deadline::none(),
        )
        .unwrap()
        .0;
        let out = build_secondary_index(
            &mgr,
            &soc,
            &dram,
            &cout.pidx,
            cout.svalues,
            &energy_spec(),
            2,
            &Deadline::none(),
        )
        .unwrap();
        assert_eq!(out.entries, 1);
        assert_eq!(read_sidx(&mgr, &out)[0].pkey, b"good");
    }

    #[test]
    fn build_charges_device_only() {
        let (mgr, soc, dram) = test_stack(256, 321);
        let (cout, _) = compacted_keyspace(1_000, &mgr, &soc, &dram);
        let before = soc.ledger().snapshot();
        build_secondary_index(
            &mgr,
            &soc,
            &dram,
            &cout.pidx,
            cout.svalues,
            &energy_spec(),
            4,
            &Deadline::none(),
        )
        .unwrap();
        let d = soc.ledger().snapshot().since(&before);
        assert!(d.soc_cpu_ns > 0);
        assert_eq!(d.host_cpu_ns, 0);
        assert_eq!(d.pcie_bytes(), 0);
        assert!(d.nand_read_pages > 0, "full scan must read the keyspace");
    }

    #[test]
    fn empty_keyspace_builds_empty_index() {
        let (mgr, soc, dram) = test_stack(256, 321);
        let (cout, _) = compacted_keyspace(0, &mgr, &soc, &dram);
        let out = build_secondary_index(
            &mgr,
            &soc,
            &dram,
            &cout.pidx,
            cout.svalues,
            &energy_spec(),
            2,
            &Deadline::none(),
        )
        .unwrap();
        assert_eq!(out.entries, 0);
        assert_eq!(out.index.blocks, 0);
    }
}
