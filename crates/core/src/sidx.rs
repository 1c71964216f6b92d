//! Offloaded secondary-index construction and the SIDX block format.
//!
//! "Building a secondary index is a two-step process. First, KV-CSD
//! performs a full scan of the keyspace data to extract all secondary
//! index keys from the values, along with their associated primary index
//! keys. ... Next, KV-CSD sorts these pairs in a manner similar to what
//! it does for sorting the primary index keys, producing the secondary
//! index stored in SIDX zone clusters." (Section V)
//!
//! Each SIDX entry also carries the value locator so that a secondary
//! query can stream matching records straight out of SORTED_VALUES
//! without a per-result primary-index lookup.

use kvcsd_sim::bytes::{le_u16, le_u32, le_u64, try_le_u16};
use std::cmp::Ordering;

use kvcsd_proto::SecondaryIndexSpec;

use crate::admission::Deadline;
use crate::compact::PidxBlock;
use crate::dram::DramBudget;
use crate::error::DeviceError;
use crate::extsort::{ExtSorter, SortRecord};
use crate::ingest::StreamReader;
use crate::keyspace::Sketch;
use crate::soc::SocCharger;
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;
use crate::BLOCK_BYTES;

/// One SIDX entry: encoded secondary key, primary key, value locator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SidxEntry {
    pub skey: Vec<u8>,
    pub pkey: Vec<u8>,
    pub voff: u64,
    pub vlen: u32,
}

const SIDX_ENTRY_HEADER: usize = 2 + 2 + 8 + 4;

impl SortRecord for SidxEntry {
    fn encoded_len(&self) -> usize {
        SIDX_ENTRY_HEADER + self.skey.len() + self.pkey.len()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.skey.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.pkey.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.voff.to_le_bytes());
        out.extend_from_slice(&self.vlen.to_le_bytes());
        out.extend_from_slice(&self.skey);
        out.extend_from_slice(&self.pkey);
    }
    fn read_from(r: &mut StreamReader<'_>) -> Result<Self> {
        let hdr = r.read_array::<SIDX_ENTRY_HEADER>()?;
        let sklen = le_u16(&hdr, 0) as usize;
        let pklen = le_u16(&hdr, 2) as usize;
        let voff = le_u64(&hdr, 4);
        let vlen = le_u32(&hdr, 12);
        let skey = r.read(sklen)?;
        let pkey = r.read(pklen)?;
        Ok(SidxEntry {
            skey,
            pkey,
            voff,
            vlen,
        })
    }
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.skey
            .cmp(&other.skey)
            .then_with(|| self.pkey.cmp(&other.pkey))
    }
}

/// Packs self-contained SIDX blocks, mirroring the PIDX builder.
#[derive(Debug, Default)]
pub struct SidxBlockBuilder {
    buf: Vec<u8>,
    count: u16,
    first_skey: Option<Vec<u8>>,
}

impl SidxBlockBuilder {
    pub fn new() -> Self {
        Self {
            buf: Vec::with_capacity(BLOCK_BYTES),
            count: 0,
            first_skey: None,
        }
    }

    pub fn fits(&self, e: &SidxEntry) -> bool {
        2 + self.buf.len() + e.encoded_len() <= BLOCK_BYTES
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn add(&mut self, e: &SidxEntry) {
        debug_assert!(self.fits(e));
        if self.first_skey.is_none() {
            self.first_skey = Some(e.skey.clone());
        }
        let mut tmp = Vec::with_capacity(e.encoded_len());
        e.encode_into(&mut tmp);
        self.buf.extend_from_slice(&tmp);
        self.count += 1;
    }

    pub fn finish(&mut self) -> (Vec<u8>, Vec<u8>) {
        let mut block = Vec::with_capacity(2 + self.buf.len());
        block.extend_from_slice(&self.count.to_le_bytes());
        block.extend_from_slice(&self.buf);
        let first = self.first_skey.take().unwrap_or_default();
        self.buf.clear();
        self.count = 0;
        (block, first)
    }
}

/// A validated, borrowed view of one SIDX block produced by
/// [`SidxBlockBuilder`], searched in place like [`PidxBlock`].
#[derive(Debug, Clone, Copy)]
pub struct SidxBlock<'a> {
    /// The block's entries, with its padding cut off.
    entries: &'a [u8],
}

impl<'a> SidxBlock<'a> {
    /// Check that `block` holds the whole of every entry its count
    /// announces; anything else is a malformed block.
    pub fn parse(block: &'a [u8]) -> Result<Self> {
        let bad = || DeviceError::Internal("malformed SIDX block".into());
        let count = try_le_u16(block, 0).ok_or_else(bad)?;
        let mut end = 2usize;
        for _ in 0..count {
            let sklen = try_le_u16(block, end).ok_or_else(bad)? as usize;
            let pklen = try_le_u16(block, end + 2).ok_or_else(bad)? as usize;
            end += SIDX_ENTRY_HEADER + sklen + pklen;
            if end > block.len() {
                return Err(bad());
            }
        }
        Ok(Self {
            entries: &block[2..end],
        })
    }

    /// Entries in `(skey, pkey)` order, as `(skey, pkey, voff, vlen)`.
    pub fn iter(&self) -> SidxIter<'a> {
        SidxIter { rest: self.entries }
    }
}

/// Iterator over a [`SidxBlock`].
#[derive(Debug, Clone)]
pub struct SidxIter<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for SidxIter<'a> {
    type Item = (&'a [u8], &'a [u8], u64, u32);

    fn next(&mut self) -> Option<Self::Item> {
        // `SidxBlock::parse` checked every entry's extent.
        let (hdr, rest) = self.rest.split_first_chunk::<SIDX_ENTRY_HEADER>()?;
        let (skey, rest) = rest.split_at(le_u16(hdr, 0) as usize);
        let (pkey, rest) = rest.split_at(le_u16(hdr, 2) as usize);
        self.rest = rest;
        Some((skey, pkey, le_u64(hdr, 4), le_u32(hdr, 12)))
    }
}

/// Result of building one secondary index.
#[derive(Debug)]
pub struct SidxOutput {
    pub cluster: ClusterId,
    pub blocks: u32,
    pub sketch: Sketch,
    pub entries: u64,
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
    pidx: (ClusterId, u32),
    svalues: (ClusterId, u64),
    spec: &SecondaryIndexSpec,
    cluster_width: u32,
    deadline: &Deadline<'_>,
) -> Result<SidxOutput> {
    let mut sorter: ExtSorter<'_, SidxEntry> = ExtSorter::new(mgr, soc, dram, cluster_width)?;

    // Full scan: PIDX gives (pkey, voff, vlen) in order; SORTED_VALUES is
    // read sequentially alongside.
    let mut vread = StreamReader::new(mgr, svalues.0, svalues.1);
    for b in 0..pidx.1 {
        let block = mgr.read_block(pidx.0, b as u64)?;
        soc.bytes(block.len());
        for (pkey, voff, vlen) in PidxBlock::parse(&block)?.iter() {
            debug_assert_eq!(vread.position(), voff);
            let value = vread.read(vlen as usize)?;
            soc.bytes(value.len());
            if let Some(skey) = spec.extract(&value) {
                sorter.push(SidxEntry {
                    skey,
                    pkey: pkey.to_vec(),
                    voff,
                    vlen,
                })?;
            }
        }
    }

    deadline.check()?;
    write_sidx_blocks(mgr, sorter, cluster_width)
}

/// Drain a sorted [`SidxEntry`] sorter into SIDX blocks plus the sketch.
/// Shared by the separate build above and by single-pass compaction
/// ([`crate::compact::run_compaction`] given index specs).
pub fn write_sidx_blocks(
    mgr: &ZoneManager,
    sorter: ExtSorter<'_, SidxEntry>,
    cluster_width: u32,
) -> Result<SidxOutput> {
    let cluster = mgr.alloc_cluster(cluster_width)?;
    let mut builder = SidxBlockBuilder::new();
    let mut sketch = Sketch::new();
    let mut blocks = 0u32;
    let mut entries = 0u64;
    sorter.finish_into(|e| {
        if !builder.fits(&e) {
            let (block, first) = builder.finish();
            mgr.append_block(cluster, &block)?;
            sketch.push(first);
            blocks += 1;
        }
        builder.add(&e);
        entries += 1;
        Ok(())
    })?;
    if !builder.is_empty() {
        let (block, first) = builder.finish();
        mgr.append_block(cluster, &block)?;
        sketch.push(first);
        blocks += 1;
    }

    Ok(SidxOutput {
        cluster,
        blocks,
        sketch,
        entries,
    })
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
            log.put(mgr, soc, &key, &particle_value(energy, i as u8))
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

    /// Every entry of a SIDX block, copied out through the view.
    fn sidx_entries(block: &[u8]) -> Result<Vec<SidxEntry>> {
        Ok(SidxBlock::parse(block)?
            .iter()
            .map(|(skey, pkey, voff, vlen)| SidxEntry {
                skey: skey.to_vec(),
                pkey: pkey.to_vec(),
                voff,
                vlen,
            })
            .collect())
    }

    fn read_sidx(mgr: &ZoneManager, out: &SidxOutput) -> Vec<SidxEntry> {
        let mut got = Vec::new();
        for b in 0..out.blocks {
            got.extend(sidx_entries(&mgr.read_block(out.cluster, b as u64).unwrap()).unwrap());
        }
        got
    }

    #[test]
    fn sidx_block_roundtrip() {
        let mut b = SidxBlockBuilder::new();
        let entries: Vec<SidxEntry> = (0..40u32)
            .map(|i| SidxEntry {
                skey: SidxKey::F32(i as f32).encode(),
                pkey: format!("p{i:06}").into_bytes(),
                voff: i as u64 * 32,
                vlen: 32,
            })
            .collect();
        for e in &entries {
            assert!(b.fits(e));
            b.add(e);
        }
        let (block, first) = b.finish();
        assert_eq!(first, SidxKey::F32(0.0).encode());
        assert_eq!(sidx_entries(&block).unwrap(), entries);
    }

    fn random_bytes(rng: &mut XorShift64, max_len: u64) -> Vec<u8> {
        let len = rng.next_below(max_len + 1);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn sidx_view_matches_builder_and_rejects_corruption() {
        let malformed = |b: &[u8]| {
            matches!(SidxBlock::parse(b),
                Err(DeviceError::Internal(m)) if m == "malformed SIDX block")
        };
        let mut rng = XorShift64::new(0x51DE);
        for _ in 0..100 {
            let mut entries: Vec<SidxEntry> = (0..rng.next_below(250))
                .map(|_| SidxEntry {
                    skey: random_bytes(&mut rng, 12),
                    pkey: random_bytes(&mut rng, 40),
                    voff: rng.next_u64(),
                    vlen: rng.next_u64() as u32,
                })
                .collect();
            entries.sort_by(|a, b| a.cmp_key(b));
            let mut b = SidxBlockBuilder::new();
            let mut want = Vec::new();
            for e in entries {
                if !b.fits(&e) {
                    break;
                }
                b.add(&e);
                want.push(e);
            }
            let (block, _) = b.finish();

            assert_eq!(sidx_entries(&block).unwrap(), want);

            for cut in 0..block.len() {
                assert!(malformed(&block[..cut]), "truncated to {cut}");
            }
            let count = want.len() as u64 + 1;
            let count = count + rng.next_below(u16::MAX as u64 + 1 - count);
            let mut bad = block.clone();
            bad[..2].copy_from_slice(&(count as u16).to_le_bytes());
            assert!(malformed(&bad), "count {count} of {}", want.len());
            // Each key length in turn, pushed past the end of the block.
            let mut at = 2;
            for e in &want {
                let room = (block.len() - at - SIDX_ENTRY_HEADER) as u64;
                for field in [at, at + 2] {
                    let len = room + 1 + rng.next_below(u16::MAX as u64 - room);
                    let mut bad = block.clone();
                    bad[field..field + 2].copy_from_slice(&(len as u16).to_le_bytes());
                    assert!(malformed(&bad), "length {len} at {field}");
                }
                at += e.encoded_len();
            }
            // Arbitrary damage may decode or not, but never panics.
            for _ in 0..8 {
                let mut bad = block.clone();
                let ix = rng.next_below(bad.len() as u64) as usize;
                bad[ix] = rng.next_u64() as u8;
                if let Ok(view) = SidxBlock::parse(&bad) {
                    for _entry in view.iter() {}
                }
            }
        }
    }

    #[test]
    fn build_produces_sorted_complete_index() {
        let (mgr, soc, dram) = test_stack(256, 321);
        let (cout, truth) = compacted_keyspace(2_000, &mgr, &soc, &dram);
        let out = build_secondary_index(
            &mgr,
            &soc,
            &dram,
            cout.pidx,
            cout.svalues,
            &energy_spec(),
            4,
            &Deadline::none(),
        )
        .unwrap();
        assert_eq!(out.entries, 2_000);
        assert_eq!(out.sketch.blocks(), out.blocks);
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
            cout.pidx,
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
        log.put(&mgr, &soc, b"good", &particle_value(5.0, 1))
            .unwrap();
        log.put(&mgr, &soc, b"tiny", b"xx").unwrap(); // too short for the spec
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
            cout.pidx,
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
            cout.pidx,
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
            cout.pidx,
            cout.svalues,
            &energy_spec(),
            2,
            &Deadline::none(),
        )
        .unwrap();
        assert_eq!(out.entries, 0);
        assert_eq!(out.blocks, 0);
    }
}
