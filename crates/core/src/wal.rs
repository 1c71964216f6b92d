//! The device write-ahead log.
//!
//! "Like RocksDB and others, KV-CSD uses write-ahead-logging to back
//! in-memory data and supports explicit 'fsync'. We expect production
//! applications to frequently disable write-ahead-logging though because
//! many use checkpointing-restart for failure recovery." (Section VI)
//!
//! When enabled ([`crate::DeviceConfig::wal`]), every PUT appends a
//! framed record to a per-keyspace WAL zone cluster before entering the
//! DRAM ingest buffer. An explicit fsync pads the partial tail block out
//! to flash (zones cannot be rewritten, so each sync starts a fresh
//! block — the classic ZNS log trade-off). Replay scans the flushed
//! blocks, skipping sync padding and stopping at the first torn frame:
//! everything up to the last fsync is guaranteed back.
//!
//! Frame: `0xA5 | klen:u16 | vlen:u32 | crc32(key|value) | key | value`.

use std::sync::Arc;

use crate::error::DeviceError;
use crate::soc::SocTally;
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;
use crate::BLOCK_BYTES;
use kvcsd_sim::bytes::{crc32, le_u16, le_u32};

const FRAME_TAG: u8 = 0xA5;
const FRAME_HEADER: usize = 1 + 2 + 4 + 4;

/// A per-keyspace device WAL.
#[derive(Debug)]
pub struct DeviceWal {
    cluster: ClusterId,
    tail: Vec<u8>,
    blocks_flushed: u64,
    /// Records appended since the last sync (diagnostics).
    unsynced: u64,
}

impl DeviceWal {
    /// Start a fresh WAL on `cluster`.
    pub fn new(cluster: ClusterId) -> Self {
        Self {
            cluster,
            tail: Vec::with_capacity(BLOCK_BYTES),
            blocks_flushed: 0,
            unsynced: 0,
        }
    }

    /// Resume a WAL after restart: `blocks` full blocks already on flash
    /// (the tail was volatile and is gone).
    pub fn resume(cluster: ClusterId, blocks: u64) -> Self {
        Self {
            cluster,
            tail: Vec::with_capacity(BLOCK_BYTES),
            blocks_flushed: blocks,
            unsynced: 0,
        }
    }

    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// Records appended since the last [`DeviceWal::sync`].
    pub fn unsynced_records(&self) -> u64 {
        self.unsynced
    }

    fn flush_full_blocks(&mut self, mgr: &ZoneManager) -> Result<()> {
        while self.tail.len() >= BLOCK_BYTES {
            let rest = self.tail.split_off(BLOCK_BYTES);
            mgr.append_block(self.cluster, &self.tail)?;
            self.blocks_flushed += 1;
            self.tail = rest;
        }
        Ok(())
    }

    /// Append one record (durable once a block fills or sync is called).
    pub fn append(
        &mut self,
        mgr: &ZoneManager,
        soc: &mut SocTally<'_>,
        key: &[u8],
        value: &[u8],
    ) -> Result<()> {
        if key.len() > u16::MAX as usize {
            return Err(DeviceError::BadPayload("wal key too long".into()));
        }
        let mut crc_input = Vec::with_capacity(key.len() + value.len());
        crc_input.extend_from_slice(key);
        crc_input.extend_from_slice(value);
        self.tail.push(FRAME_TAG);
        self.tail
            .extend_from_slice(&(key.len() as u16).to_le_bytes());
        self.tail
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.tail
            .extend_from_slice(&crc32(&crc_input).to_le_bytes());
        self.tail.extend_from_slice(key);
        self.tail.extend_from_slice(value);
        soc.bytes(FRAME_HEADER + key.len() + value.len());
        self.unsynced += 1;
        self.flush_full_blocks(mgr)
    }

    /// Explicit fsync: pad the tail to a block boundary and flush it.
    pub fn sync(&mut self, mgr: &ZoneManager) -> Result<()> {
        if !self.tail.is_empty() {
            self.tail.resize(
                BLOCK_BYTES.min(self.tail.len().next_multiple_of(BLOCK_BYTES)),
                0,
            );
            // tail is < BLOCK_BYTES after flush_full_blocks, so one block.
            mgr.append_block(self.cluster, &self.tail)?;
            self.blocks_flushed += 1;
            self.tail.clear();
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Replay every intact record from a WAL cluster with `blocks` full
    /// blocks on flash. Stops cleanly at sync padding gaps and at the
    /// first torn or corrupt frame.
    pub fn replay(
        mgr: &ZoneManager,
        cluster: ClusterId,
        blocks: u64,
        mut emit: impl FnMut(Vec<u8>, Vec<u8>) -> Result<()>,
    ) -> Result<u64> {
        let total = blocks as usize * BLOCK_BYTES;
        let mut count = 0u64;
        let mut cursor: Option<(u64, Arc<[u8]>)> = None;
        let mut read = |mgr: &ZoneManager, pos: usize, len: usize| -> Result<Vec<u8>> {
            // Byte reads across the block stream with a one-block cursor.
            let mut out = Vec::with_capacity(len);
            let mut p = pos;
            while out.len() < len {
                let b = (p / BLOCK_BYTES) as u64;
                if cursor.as_ref().map(|(ix, _)| *ix) != Some(b) {
                    cursor = Some((b, mgr.read_block(cluster, b)?));
                }
                let Some((_, data)) = cursor.as_ref() else {
                    return Err(DeviceError::Internal("wal block cursor missing".into()));
                };
                let in_block = p % BLOCK_BYTES;
                let take = (len - out.len()).min(BLOCK_BYTES - in_block);
                out.extend_from_slice(&data[in_block..in_block + take]);
                p += take;
            }
            Ok(out)
        };

        let mut pos = 0usize;
        while pos < total {
            let tag = read(mgr, pos, 1)?[0];
            if tag == 0 {
                // Sync padding: skip to the next block boundary.
                pos = (pos / BLOCK_BYTES + 1) * BLOCK_BYTES;
                continue;
            }
            if tag != FRAME_TAG || pos + FRAME_HEADER > total {
                break; // torn tail or foreign bytes: stop replay
            }
            let hdr = read(mgr, pos, FRAME_HEADER)?;
            let klen = le_u16(&hdr, 1) as usize;
            let vlen = le_u32(&hdr, 3) as usize;
            let crc = le_u32(&hdr, 7);
            if pos + FRAME_HEADER + klen + vlen > total {
                break; // record was mid-write at crash time
            }
            let body = read(mgr, pos + FRAME_HEADER, klen + vlen)?;
            if crc32(&body) != crc {
                break;
            }
            let (key, value) = body.split_at(klen);
            emit(key.to_vec(), value.to_vec())?;
            count += 1;
            pos += FRAME_HEADER + klen + vlen;
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::test_stack;

    fn replay_all(mgr: &ZoneManager, wal: &DeviceWal) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        DeviceWal::replay(mgr, wal.cluster(), wal.blocks_flushed, |k, v| {
            out.push((k, v));
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn synced_records_replay_exactly() {
        let (mgr, soc, _) = test_stack(64, 3);
        let c = mgr.alloc_cluster(4).unwrap();
        let mut wal = DeviceWal::new(c);
        let records: Vec<(Vec<u8>, Vec<u8>)> = (0..100u32)
            .map(|i| {
                (
                    format!("k{i:04}").into_bytes(),
                    vec![i as u8; (i % 50) as usize],
                )
            })
            .collect();
        for (k, v) in &records {
            wal.append(&mgr, &mut soc.tally(), k, v).unwrap();
        }
        assert_eq!(wal.unsynced_records(), 100);
        wal.sync(&mgr).unwrap();
        assert_eq!(wal.unsynced_records(), 0);
        assert_eq!(replay_all(&mgr, &wal), records);
    }

    #[test]
    fn unsynced_tail_is_lost_but_synced_prefix_survives() {
        let (mgr, soc, _) = test_stack(64, 3);
        let c = mgr.alloc_cluster(2).unwrap();
        let mut wal = DeviceWal::new(c);
        for i in 0..10u32 {
            wal.append(
                &mgr,
                &mut soc.tally(),
                format!("synced-{i}").as_bytes(),
                b"v",
            )
            .unwrap();
        }
        wal.sync(&mgr).unwrap();
        // Small unsynced records: still in the volatile tail.
        for i in 0..3u32 {
            wal.append(&mgr, &mut soc.tally(), format!("lost-{i}").as_bytes(), b"v")
                .unwrap();
        }
        let got = replay_all(&mgr, &wal);
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|(k, _)| k.starts_with(b"synced-")));
    }

    #[test]
    fn large_unsynced_batch_keeps_full_blocks() {
        let (mgr, soc, _) = test_stack(64, 3);
        let c = mgr.alloc_cluster(4).unwrap();
        let mut wal = DeviceWal::new(c);
        // ~50 B/record: hundreds per block; write enough to flush blocks
        // without ever syncing.
        for i in 0..1000u32 {
            wal.append(
                &mgr,
                &mut soc.tally(),
                format!("k{i:06}").as_bytes(),
                &[1u8; 32],
            )
            .unwrap();
        }
        let got = replay_all(&mgr, &wal);
        // Everything in full flushed blocks replays; the partial tail is
        // lost; the record straddling the last block boundary is torn.
        assert!(got.len() > 800 && got.len() < 1000, "{}", got.len());
        for (i, (k, _)) in got.iter().enumerate() {
            assert_eq!(k, format!("k{i:06}").as_bytes());
        }
    }

    #[test]
    fn multiple_syncs_and_batches() {
        let (mgr, soc, _) = test_stack(64, 3);
        let c = mgr.alloc_cluster(2).unwrap();
        let mut wal = DeviceWal::new(c);
        let mut expect = Vec::new();
        for batch in 0..5u32 {
            for i in 0..7u32 {
                let k = format!("b{batch}-r{i}").into_bytes();
                wal.append(&mgr, &mut soc.tally(), &k, &[batch as u8])
                    .unwrap();
                expect.push((k, vec![batch as u8]));
            }
            wal.sync(&mgr).unwrap();
        }
        assert_eq!(replay_all(&mgr, &wal), expect);
    }

    #[test]
    fn resume_appends_after_replayed_blocks() {
        let (mgr, soc, _) = test_stack(64, 3);
        let c = mgr.alloc_cluster(2).unwrap();
        let mut wal = DeviceWal::new(c);
        wal.append(&mgr, &mut soc.tally(), b"first", b"1").unwrap();
        wal.sync(&mgr).unwrap();
        let blocks = wal.blocks_flushed;
        drop(wal);

        let mut wal2 = DeviceWal::resume(c, blocks);
        wal2.append(&mgr, &mut soc.tally(), b"second", b"2")
            .unwrap();
        wal2.sync(&mgr).unwrap();
        let got = replay_all(&mgr, &wal2);
        assert_eq!(
            got,
            vec![
                (b"first".to_vec(), b"1".to_vec()),
                (b"second".to_vec(), b"2".to_vec())
            ]
        );
    }

    #[test]
    fn empty_wal_replays_nothing() {
        let (mgr, _soc, _) = test_stack(64, 3);
        let c = mgr.alloc_cluster(1).unwrap();
        let wal = DeviceWal::new(c);
        assert!(replay_all(&mgr, &wal).is_empty());
    }

    #[test]
    fn sync_with_empty_tail_is_noop() {
        let (mgr, soc, _) = test_stack(64, 3);
        let c = mgr.alloc_cluster(1).unwrap();
        let mut wal = DeviceWal::new(c);
        wal.sync(&mgr).unwrap();
        assert_eq!(wal.blocks_flushed, 0);
        wal.append(&mgr, &mut soc.tally(), b"k", b"v").unwrap();
        wal.sync(&mgr).unwrap();
        wal.sync(&mgr).unwrap(); // idempotent
        assert_eq!(wal.blocks_flushed, 1);
    }
}
