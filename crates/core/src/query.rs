//! Device-side query processing.
//!
//! "To handle a query, KV-CSD first identifies the keyspace from the
//! keyspace manager's in-memory keyspace table. It then uses the
//! keyspace's metadata to locate all related primary or secondary index
//! data blocks on the SSD, and use them to process the incoming query.
//! Because query is entirely processed in a computational storage device,
//! only query results need to be transferred back to the application."
//!
//! All functions here read index blocks and values with real zone I/O and
//! charge SoC CPU for sketch searches and block searches. A block read
//! yields the NAND's stored page itself, and the PIDX/SIDX block is
//! searched in place through an [`IndexBlock`] view: only the keys and
//! values a query returns are copied out. Both range queries walk their
//! index with the same block scan and differ only in the block the
//! sketch tells them to start from. KV-CSD does not cache data (the
//! paper is explicit about this): no page handle outlives its query, so
//! every query pays its full I/O cost — which is why its latency is
//! "always linear to the total number of particles returned".
//!
//! Each query does its in-memory work once. It charges the SoC through
//! one [`SocTally`], which the block reads, the block scan and the value
//! gather all add to and which books to the ledger when the query ends;
//! every charge is still rounded on its own, so the booked total is what
//! charging one by one would book. The sketch and the block are
//! binary-searched, and the gather copies each value straight into its
//! result pair.

use std::sync::Arc;

use kvcsd_proto::Bound;

use crate::error::DeviceError;
use crate::index::{BlockIndex, Hit, IndexBlock, PidxEntry};
use crate::keyspace::KsStorage;
use crate::sidx::SidxEntry;
use crate::soc::{SocCharger, SocTally};
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;

/// A COMPACTED keyspace that was compacted while empty has no PIDX or
/// SORTED_VALUES clusters at all; queries over it simply match nothing.
fn pidx_of(storage: &KsStorage) -> Option<(&BlockIndex, (ClusterId, u64))> {
    Some((storage.pidx.as_ref()?, storage.svalues?))
}

/// Fetch the values of many index hits from SORTED_VALUES with one pass
/// over the covering blocks: locators are visited in ascending `voff`
/// order and each 4 KiB block is read exactly once, its values copied
/// straight out of the shared NAND page (this is query execution, not
/// caching — the page handle dies with the query). Returns the hits'
/// `(primary key, value)` pairs in their original order, each value
/// copied into its pair in place.
fn gather_values(
    mgr: &ZoneManager,
    soc: &mut SocTally<'_>,
    svalues: ClusterId,
    hits: Vec<Hit>,
) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut order: Vec<(u64, u32, usize)> = hits
        .iter()
        .enumerate()
        .map(|(i, (_, (voff, vlen)))| (*voff, *vlen, i))
        .collect();
    order.sort_unstable_by_key(|&(voff, _, i)| (voff, i));
    if hits.len() >= 2 {
        let n = hits.len() as f64;
        soc.cmp(n * n.log2() * 0.1);
    }

    let bb = crate::BLOCK_BYTES as u64;
    let mut out: Vec<(Vec<u8>, Vec<u8>)> = hits.into_iter().map(|(k, _)| (k, Vec::new())).collect();
    let mut cur: Option<(u64, Arc<[u8]>)> = None;
    for (voff, vlen, i) in order {
        let value = &mut out[i].1;
        value.reserve_exact(vlen as usize);
        let mut pos = voff;
        let end = voff + vlen as u64;
        while pos < end {
            let b = pos / bb;
            let block = match &cur {
                Some((ix, block)) if *ix == b => block,
                _ => &cur.insert((b, mgr.read_block(svalues, b)?)).1,
            };
            let in_block = (pos % bb) as usize;
            let take = ((end - pos) as usize).min(crate::BLOCK_BYTES - in_block);
            value.extend_from_slice(&block[in_block..in_block + take]);
            pos += take as u64;
        }
        soc.memcpy(value.len());
        // Each returned record is framed into the response capsule by the
        // SoC (the per-record data-path cost, same as on ingest).
        soc.kv_op();
    }
    Ok(out)
}

/// Point query over the primary key.
pub fn point_get(
    mgr: &ZoneManager,
    soc: &SocCharger,
    storage: &KsStorage,
    key: &[u8],
) -> Result<Vec<u8>> {
    let Some((pidx, svalues)) = pidx_of(storage) else {
        return Err(DeviceError::KeyNotFound);
    };
    let Some(block_ix) = pidx.sketch.locate(key) else {
        return Err(DeviceError::KeyNotFound);
    };
    let mut soc = soc.tally();
    soc.cmp(pidx.sketch.search_cost());
    let block = pidx.read_block(mgr, &mut soc, block_ix)?;
    let entries = IndexBlock::<PidxEntry>::parse(&block)?;
    // The binary search over the block's entries.
    soc.cmp((entries.len().max(2) as f64).log2());
    let (voff, vlen) = entries.find(key).ok_or(DeviceError::KeyNotFound)?;
    let value = mgr.read_bytes(svalues.0, voff, vlen as usize)?;
    soc.memcpy(value.len());
    Ok(value)
}

/// Range query over the primary key; returns `(key, value)` in key order.
pub fn range(
    mgr: &ZoneManager,
    soc: &SocCharger,
    storage: &KsStorage,
    lo: &Bound,
    hi: &Bound,
    limit: Option<u64>,
) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let Some((pidx, svalues)) = pidx_of(storage) else {
        return Ok(Vec::new());
    };
    if pidx.sketch.is_empty() {
        return Ok(Vec::new());
    }
    let start = match lo {
        Bound::Unbounded => 0,
        Bound::Included(k) | Bound::Excluded(k) => pidx.sketch.locate(k).unwrap_or(0),
    };
    let mut soc = soc.tally();
    let hits = pidx.scan::<PidxEntry>(mgr, &mut soc, start, lo, hi, limit)?;
    gather_values(mgr, &mut soc, svalues.0, hits)
}

/// Point query over a secondary index: all records whose secondary key
/// equals `skey` (encoded), as `(primary key, value)` pairs.
pub fn sidx_get(
    mgr: &ZoneManager,
    soc: &SocCharger,
    storage: &KsStorage,
    index: &str,
    skey: &[u8],
) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    sidx_range(
        mgr,
        soc,
        storage,
        index,
        &Bound::Included(skey.to_vec()),
        &Bound::Included(skey.to_vec()),
        None,
    )
}

/// Range query over a secondary index; returns full records ordered by
/// (secondary key, primary key).
pub fn sidx_range(
    mgr: &ZoneManager,
    soc: &SocCharger,
    storage: &KsStorage,
    index: &str,
    lo: &Bound,
    hi: &Bound,
    limit: Option<u64>,
) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let sidx = &storage
        .sidx
        .get(index)
        .ok_or(DeviceError::IndexNotFound)?
        .index;
    let svalues = storage
        .svalues
        .ok_or_else(|| DeviceError::Internal("no SORTED_VALUES".into()))?;
    if sidx.sketch.is_empty() {
        return Ok(Vec::new());
    }
    // Secondary keys repeat, so an inclusive bound may have equal
    // entries at the end of blocks before the last pivot <= it.
    let start = match lo {
        Bound::Unbounded => 0,
        Bound::Included(k) => sidx.sketch.locate_first(k).unwrap_or(0),
        Bound::Excluded(k) => sidx.sketch.locate(k).unwrap_or(0),
    };
    let mut soc = soc.tally();
    let hits = sidx.scan::<SidxEntry>(mgr, &mut soc, start, lo, hi, limit)?;
    // Matching records stream out of SORTED_VALUES in one gather pass.
    gather_values(mgr, &mut soc, svalues.0, hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::run_compaction;
    use crate::dram::DramBudget;
    use crate::ingest::WriteLog;
    use crate::keyspace::SecondaryIndex;
    use crate::sidx::build_secondary_index;
    use crate::testing::test_stack;
    use kvcsd_proto::{SecondaryIndexSpec, SecondaryKeyType, SidxKey};

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    /// 32-byte value: filler + trailing u32 "score" = i * 3.
    fn value(i: u32) -> Vec<u8> {
        let mut v = vec![0xAB; 32];
        v[28..].copy_from_slice(&(i * 3).to_le_bytes());
        v
    }

    /// Build a fully compacted + indexed storage for `n` keys 0..n.
    fn build_storage(n: u32, mgr: &ZoneManager, soc: &SocCharger, dram: &DramBudget) -> KsStorage {
        build_storage_with(n, value, mgr, soc, dram)
    }

    /// As [`build_storage`], with `val(i)` stored under `key(i)`.
    fn build_storage_with(
        n: u32,
        val: fn(u32) -> Vec<u8>,
        mgr: &ZoneManager,
        soc: &SocCharger,
        dram: &DramBudget,
    ) -> KsStorage {
        let kc = mgr.alloc_cluster(4).unwrap();
        let vc = mgr.alloc_cluster(4).unwrap();
        let mut log = WriteLog::new(kc, vc);
        // Insert in reverse so compaction genuinely sorts.
        for i in (0..n).rev() {
            log.put(mgr, &mut soc.tally(), &key(i), &val(i)).unwrap();
        }
        let (klen, vlen) = log.seal(mgr).unwrap();
        let cout = run_compaction(
            mgr,
            soc,
            dram,
            (kc, klen),
            (vc, vlen),
            n as u64,
            4,
            &[],
            &crate::admission::Deadline::none(),
        )
        .unwrap()
        .0;
        let spec = SecondaryIndexSpec {
            name: "score".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        };
        let sout = build_secondary_index(
            mgr,
            soc,
            dram,
            &cout.pidx,
            cout.svalues,
            &spec,
            4,
            &crate::admission::Deadline::none(),
        )
        .unwrap();
        let mut storage = KsStorage {
            pidx: Some(cout.pidx),
            svalues: Some(cout.svalues),
            ..KsStorage::default()
        };
        storage.sidx.insert(
            "score".into(),
            SecondaryIndex {
                spec,
                index: sout.index,
                entries: sout.entries,
            },
        );
        storage
    }

    #[test]
    fn point_get_hits_and_misses() {
        let (mgr, soc, dram) = test_stack(256, 9);
        let st = build_storage(3000, &mgr, &soc, &dram);
        for i in [0u32, 1, 1499, 2999] {
            assert_eq!(
                point_get(&mgr, &soc, &st, &key(i)).unwrap(),
                value(i),
                "key {i}"
            );
        }
        assert!(matches!(
            point_get(&mgr, &soc, &st, b"absent"),
            Err(DeviceError::KeyNotFound)
        ));
        assert!(matches!(
            point_get(&mgr, &soc, &st, &key(3001)),
            Err(DeviceError::KeyNotFound)
        ));
    }

    #[test]
    fn point_get_reads_few_blocks() {
        let (mgr, soc, dram) = test_stack(256, 9);
        let st = build_storage(3000, &mgr, &soc, &dram);
        let before = soc.ledger().snapshot();
        point_get(&mgr, &soc, &st, &key(1234)).unwrap();
        let d = soc.ledger().snapshot().since(&before);
        // One PIDX block + the value's block(s): tiny, bounded I/O.
        assert!(
            d.nand_read_pages <= 3,
            "point query read {} pages",
            d.nand_read_pages
        );
    }

    #[test]
    fn primary_range_queries() {
        let (mgr, soc, dram) = test_stack(256, 9);
        let st = build_storage(2000, &mgr, &soc, &dram);
        let got = range(
            &mgr,
            &soc,
            &st,
            &Bound::Included(key(100)),
            &Bound::Excluded(key(110)),
            None,
        )
        .unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].0, key(100));
        assert_eq!(got[9].0, key(109));
        assert_eq!(got[5].1, value(105));

        // Inclusive upper bound.
        let got = range(
            &mgr,
            &soc,
            &st,
            &Bound::Excluded(key(100)),
            &Bound::Included(key(103)),
            None,
        )
        .unwrap();
        assert_eq!(
            got.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            vec![key(101), key(102), key(103)]
        );

        // Unbounded + limit.
        let got = range(
            &mgr,
            &soc,
            &st,
            &Bound::Unbounded,
            &Bound::Unbounded,
            Some(7),
        )
        .unwrap();
        assert_eq!(got.len(), 7);
        assert_eq!(got[0].0, key(0));

        // Empty range.
        let got = range(
            &mgr,
            &soc,
            &st,
            &Bound::Included(b"zzz".to_vec()),
            &Bound::Unbounded,
            None,
        )
        .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn full_scan_returns_everything_in_order() {
        let (mgr, soc, dram) = test_stack(256, 9);
        let st = build_storage(1500, &mgr, &soc, &dram);
        let got = range(&mgr, &soc, &st, &Bound::Unbounded, &Bound::Unbounded, None).unwrap();
        assert_eq!(got.len(), 1500);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn sidx_point_query_finds_exact_scores() {
        let (mgr, soc, dram) = test_stack(256, 9);
        let st = build_storage(1000, &mgr, &soc, &dram);
        let skey = SidxKey::U32(300).encode(); // score of key 100
        let got = sidx_get(&mgr, &soc, &st, "score", &skey).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, key(100));
        assert_eq!(got[0].1, value(100));
        // Missing score.
        let got = sidx_get(&mgr, &soc, &st, "score", &SidxKey::U32(301).encode()).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn sidx_range_selectivity() {
        let (mgr, soc, dram) = test_stack(256, 9);
        let n = 2000u32;
        let st = build_storage(n, &mgr, &soc, &dram);
        // scores are 0,3,6,...; select score >= 3*(n-10) -> last 10 keys.
        let lo = SidxKey::U32(3 * (n - 10)).encode();
        let got = sidx_range(
            &mgr,
            &soc,
            &st,
            "score",
            &Bound::Included(lo),
            &Bound::Unbounded,
            None,
        )
        .unwrap();
        assert_eq!(got.len(), 10);
        let pkeys: Vec<Vec<u8>> = got.iter().map(|(p, _)| p.clone()).collect();
        let want: Vec<Vec<u8>> = (n - 10..n).map(key).collect();
        assert_eq!(pkeys, want);
    }

    #[test]
    fn sidx_inclusive_bound_keeps_duplicates_spanning_blocks() {
        // Three scores of 1000 records each: every score spans several
        // SIDX blocks, so the blocks before the last pivot equal to a
        // score still end with entries of that score.
        fn tiered(i: u32) -> Vec<u8> {
            let mut v = vec![0xAB; 32];
            v[28..].copy_from_slice(&(i / 1000).to_le_bytes());
            v
        }
        let (mgr, soc, dram) = test_stack(256, 9);
        let st = build_storage_with(3000, tiered, &mgr, &soc, &dram);
        let count_from = |lo: Bound| {
            sidx_range(&mgr, &soc, &st, "score", &lo, &Bound::Unbounded, None)
                .unwrap()
                .len()
        };
        for score in 0..3u32 {
            let skey = SidxKey::U32(score).encode();
            let got = sidx_get(&mgr, &soc, &st, "score", &skey).unwrap();
            assert_eq!(got.len(), 1000, "sidx_get({score})");
            let at_least = count_from(Bound::Included(skey.clone()));
            assert_eq!(at_least, (3 - score as usize) * 1000, "score >= {score}");
            let above = count_from(Bound::Excluded(skey));
            assert_eq!(above, (2 - score as usize) * 1000, "score > {score}");
        }
    }

    #[test]
    fn sidx_io_scales_with_selectivity_not_dataset() {
        let (mgr, soc, dram) = test_stack(256, 9);
        let st = build_storage(4000, &mgr, &soc, &dram);
        let measure = |lo: u32| {
            let before = soc.ledger().snapshot();
            let got = sidx_range(
                &mgr,
                &soc,
                &st,
                "score",
                &Bound::Included(SidxKey::U32(lo * 3).encode()),
                &Bound::Unbounded,
                None,
            )
            .unwrap();
            let d = soc.ledger().snapshot().since(&before);
            (got.len(), d.nand_read_pages)
        };
        let (n_sel, io_sel) = measure(3990); // 10 results
        let (n_broad, io_broad) = measure(2000); // 2000 results
        assert_eq!(n_sel, 10);
        assert_eq!(n_broad, 2000);
        // The gather pass reads each covering block once, so broad
        // queries cost proportionally more I/O than selective ones (but
        // no longer one block per hit).
        assert!(
            io_broad > 5 * io_sel,
            "broad query I/O ({io_broad}) must dwarf selective query I/O ({io_sel})"
        );
    }

    #[test]
    fn unknown_index_is_an_error() {
        let (mgr, soc, dram) = test_stack(256, 9);
        let st = build_storage(10, &mgr, &soc, &dram);
        assert!(matches!(
            sidx_get(&mgr, &soc, &st, "nope", &[0]),
            Err(DeviceError::IndexNotFound)
        ));
    }

    #[test]
    fn queries_charge_soc_and_return_only_results() {
        let (mgr, soc, dram) = test_stack(256, 9);
        let st = build_storage(1000, &mgr, &soc, &dram);
        let before = soc.ledger().snapshot();
        point_get(&mgr, &soc, &st, &key(500)).unwrap();
        let d = soc.ledger().snapshot().since(&before);
        assert!(d.soc_cpu_ns > 0);
        assert_eq!(d.host_cpu_ns, 0);
        assert_eq!(
            d.pcie_bytes(),
            0,
            "query processing itself moves no bus data"
        );
    }

    #[test]
    fn query_charges_are_pinned() {
        let (mgr, soc, dram) = test_stack(256, 9);
        let st = build_storage(3000, &mgr, &soc, &dram);
        let charge = |run: &dyn Fn()| {
            let before = soc.ledger().snapshot();
            run();
            let d = soc.ledger().snapshot().since(&before);
            (d.soc_cpu_ns, d.nand_read_pages, d.channel_busy_ns)
        };
        let get = charge(&|| {
            point_get(&mgr, &soc, &st, &key(1234)).unwrap();
        });
        let scan = charge(&|| {
            let got = range(
                &mgr,
                &soc,
                &st,
                &Bound::Included(key(700)),
                &Bound::Unbounded,
                Some(100),
            )
            .unwrap();
            assert_eq!(got.len(), 100);
        });
        let sidx = charge(&|| {
            let got = sidx_range(
                &mgr,
                &soc,
                &st,
                "score",
                &Bound::Included(SidxKey::U32(3 * 2000).encode()),
                &Bound::Excluded(SidxKey::U32(3 * 2150).encode()),
                None,
            )
            .unwrap();
            assert_eq!(got.len(), 150);
        });
        // A lower bound between one block's last key and the next pivot:
        // the scan passes the whole block the sketch points at.
        let pivots = st.pidx.as_ref().unwrap().sketch.pivots();
        let first = (1..3000).find(|&i| key(i) == pivots[5]).unwrap();
        let gap = [key(first - 1), b"+".to_vec()].concat();
        let passes_block = charge(&|| {
            let got = range(
                &mgr,
                &soc,
                &st,
                &Bound::Included(gap.clone()),
                &Bound::Unbounded,
                Some(20),
            )
            .unwrap();
            assert_eq!(got.len(), 20);
            assert_eq!(got[0].0, key(first));
        });
        let excluded = charge(&|| {
            let got = range(
                &mgr,
                &soc,
                &st,
                &Bound::Excluded(key(1000)),
                &Bound::Included(key(1040)),
                None,
            )
            .unwrap();
            assert_eq!(got.len(), 40);
            assert_eq!(got[0].0, key(1001));
        });
        let absent = charge(&|| {
            let miss = [key(1234), b"+".to_vec()].concat();
            assert!(matches!(
                point_get(&mgr, &soc, &st, &miss),
                Err(DeviceError::KeyNotFound)
            ));
        });
        // A limit of 0 answers nothing, reads no block and sorts no
        // hits: it books nothing.
        let nothing = charge(&|| {
            let (lo, hi) = (&Bound::Unbounded, &Bound::Unbounded);
            let got = range(&mgr, &soc, &st, lo, hi, Some(0)).unwrap();
            assert!(got.is_empty());
            let got = sidx_range(&mgr, &soc, &st, "score", lo, hi, Some(0)).unwrap();
            assert!(got.is_empty());
        });
        // Pinned figures: how a block is read and searched in memory must
        // not change the work the model charges, nor the channels it lands on.
        assert_eq!(get, (4602, 2, vec![12551, 0, 0, 0, 0, 0, 12551, 0]));
        assert_eq!(scan, (62593, 4, vec![25102, 12551, 0, 0, 0, 0, 0, 12551]));
        assert_eq!(sidx, (89623, 4, vec![0, 0, 25102, 12551, 0, 0, 0, 12551]));
        assert_eq!(
            passes_block,
            (26010, 3, vec![12551, 12551, 0, 0, 0, 0, 0, 12551])
        );
        assert_eq!(
            excluded,
            (27263, 3, vec![0, 12551, 12551, 0, 0, 0, 0, 12551])
        );
        assert_eq!(absent, (4598, 1, vec![0, 0, 0, 0, 0, 0, 12551, 0]));
        assert_eq!(nothing, (0, 0, vec![0; 8]));

        // Secondary keys whose duplicates span blocks: an inclusive bound
        // starts before the last pivot equal to it.
        fn tiered(i: u32) -> Vec<u8> {
            let mut v = vec![0xAB; 32];
            v[28..].copy_from_slice(&(i / 1000).to_le_bytes());
            v
        }
        let (mgr, soc, dram) = test_stack(256, 9);
        let st = build_storage_with(3000, tiered, &mgr, &soc, &dram);
        let before = soc.ledger().snapshot();
        let got = sidx_range(
            &mgr,
            &soc,
            &st,
            "score",
            &Bound::Included(SidxKey::U32(1).encode()),
            &Bound::Unbounded,
            Some(150),
        )
        .unwrap();
        assert_eq!(got.len(), 150);
        assert_eq!(got[0].0, key(1000));
        let d = soc.ledger().snapshot().since(&before);
        let dups = (d.soc_cpu_ns, d.nand_read_pages, d.channel_busy_ns);
        assert_eq!(
            dups,
            (94387, 5, vec![0, 0, 25102, 12551, 12551, 0, 0, 12551])
        );
    }
}
