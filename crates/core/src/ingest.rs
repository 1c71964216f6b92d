//! The device write path: key-value separation into KLOG and VLOG.
//!
//! "KV-CSD stores keys and values separately: values are written to VLOG
//! zone clusters while keys, along with pointers to the values, are
//! written to KLOG zone clusters. Storing keys and values separately
//! allows for sorting them in two separate steps, reducing overall
//! subsequent keyspace compaction overhead." (Section V)
//!
//! Both logs are byte streams over zone clusters. A [`BlockStreamWriter`]
//! buffers the partial tail block in SoC DRAM and emits full 4 KiB blocks;
//! a [`StreamReader`] walks a sealed stream back block by block. KLOG
//! records are framed as `klen:u16 | voff:u64 | vlen:u32 | key`.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::extsort::{key_prefix, RunLayout};
use crate::soc::SocTally;
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;
use crate::BLOCK_BYTES;
use kvcsd_sim::bytes::{le_u16, le_u32, le_u64};

/// Append-only byte stream over a zone cluster, with a DRAM tail.
#[derive(Debug)]
pub struct BlockStreamWriter {
    cluster: ClusterId,
    tail: Vec<u8>,
    flushed_blocks: u64,
    sealed_len: Option<u64>,
}

impl BlockStreamWriter {
    pub fn new(cluster: ClusterId) -> Self {
        Self {
            cluster,
            tail: Vec::with_capacity(BLOCK_BYTES),
            flushed_blocks: 0,
            sealed_len: None,
        }
    }

    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// Current end-of-stream byte offset.
    pub fn position(&self) -> u64 {
        self.flushed_blocks * BLOCK_BYTES as u64 + self.tail.len() as u64
    }

    /// Append bytes; returns the byte offset where they begin.
    pub fn append(&mut self, mgr: &ZoneManager, data: &[u8]) -> Result<u64> {
        let at = self.position();
        let mut rest = data;
        while !rest.is_empty() {
            let room = BLOCK_BYTES - self.tail.len();
            let take = room.min(rest.len());
            self.tail.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.tail.len() == BLOCK_BYTES {
                mgr.append_block(self.cluster, &self.tail)?;
                self.flushed_blocks += 1;
                self.tail.clear();
            }
        }
        Ok(at)
    }

    /// Flush the DRAM tail and return the stream's logical length
    /// (excluding tail padding).
    ///
    /// Idempotent: a seal that fails mid-flush (e.g. a transient NAND
    /// error) leaves the tail buffered so the caller can retry, and a
    /// repeated seal after success returns the memoized length rather
    /// than re-counting the padded tail block.
    pub fn seal(&mut self, mgr: &ZoneManager) -> Result<u64> {
        if let Some(len) = self.sealed_len {
            return Ok(len);
        }
        let len = self.position();
        if !self.tail.is_empty() {
            // May dip into the zone manager's seal reserve: on an
            // exhausted device this flush is exactly what the reserve
            // exists for — without it the acked tail could never reach
            // flash and the keyspace could never freeze READ_ONLY.
            mgr.append_block_sealing(self.cluster, &self.tail)?;
            self.flushed_blocks += 1;
            self.tail.clear();
        }
        self.sealed_len = Some(len);
        Ok(len)
    }
}

/// Sequential reader over a sealed stream. It holds the current block's
/// shared NAND page and copies out only the bytes asked for.
#[derive(Debug)]
pub struct StreamReader<'a> {
    mgr: &'a ZoneManager,
    cluster: ClusterId,
    len: u64,
    pos: u64,
    block: Option<(u64, Arc<[u8]>)>,
}

impl<'a> StreamReader<'a> {
    pub fn new(mgr: &'a ZoneManager, cluster: ClusterId, len: u64) -> Self {
        Self {
            mgr,
            cluster,
            len,
            pos: 0,
            block: None,
        }
    }

    /// A reader that starts `pos` bytes into the stream.
    pub fn starting_at(mgr: &'a ZoneManager, cluster: ClusterId, len: u64, pos: u64) -> Self {
        Self {
            pos,
            ..Self::new(mgr, cluster, len)
        }
    }

    pub fn position(&self) -> u64 {
        self.pos
    }

    pub fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    /// Append the next `n` bytes of the stream (across block
    /// boundaries) to `out`, reusing its capacity.
    pub fn read_into(&mut self, n: usize, out: &mut Vec<u8>) -> Result<()> {
        debug_assert!(self.pos + n as u64 <= self.len, "read past stream end");
        out.reserve(n);
        let mut left = n;
        while left > 0 {
            let bix = self.pos / BLOCK_BYTES as u64;
            let block = match &self.block {
                Some((ix, block)) if *ix == bix => block,
                _ => {
                    let block = self.mgr.read_block(self.cluster, bix)?;
                    &self.block.insert((bix, block)).1
                }
            };
            let in_block = (self.pos % BLOCK_BYTES as u64) as usize;
            let take = left.min(BLOCK_BYTES - in_block);
            out.extend_from_slice(&block[in_block..in_block + take]);
            left -= take;
            self.pos += take as u64;
        }
        Ok(())
    }
}

/// The KLOG record layout: `klen:u16 | voff:u64 | vlen:u32 | key`, a key
/// plus the locator of its value in VLOG. It is a layout only: records
/// are written from their parts and read as [`KlogRef`]s borrowed from
/// their bytes, and a KLOG stream is already the key sort's run
/// encoding.
#[derive(Debug)]
pub enum KlogRecord {}

impl KlogRecord {
    pub const HEADER: usize = 2 + 8 + 4;

    /// The fixed-width head of a record whose key is `klen` bytes.
    pub fn header(klen: usize, voff: u64, vlen: u32) -> [u8; Self::HEADER] {
        let mut hdr = [0u8; Self::HEADER];
        hdr[..2].copy_from_slice(&(klen as u16).to_le_bytes());
        hdr[2..10].copy_from_slice(&voff.to_le_bytes());
        hdr[10..].copy_from_slice(&vlen.to_le_bytes());
        hdr
    }
}

/// One KLOG record, borrowed from its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KlogRef<'a> {
    pub key: &'a [u8],
    pub voff: u64,
    pub vlen: u32,
}

impl RunLayout for KlogRecord {
    type View<'a> = KlogRef<'a>;
    const HEADER: usize = KlogRecord::HEADER;

    fn body_len(hdr: &[u8]) -> usize {
        le_u16(hdr, 0) as usize
    }
    fn encode(rec: &KlogRef<'_>, out: &mut Vec<u8>) {
        out.extend_from_slice(&Self::header(rec.key.len(), rec.voff, rec.vlen));
        out.extend_from_slice(rec.key);
    }
    fn view(enc: &[u8]) -> KlogRef<'_> {
        KlogRef {
            key: &enc[Self::HEADER..],
            voff: le_u64(enc, 2),
            vlen: le_u32(enc, 10),
        }
    }
    fn prefix(enc: &[u8]) -> u64 {
        key_prefix(&enc[Self::HEADER..])
    }
    fn cmp(a: &[u8], b: &[u8]) -> Ordering {
        a[Self::HEADER..].cmp(&b[Self::HEADER..])
    }
}

/// The per-keyspace ingest state: KLOG + VLOG writers and counters.
///
/// A `WriteLog` holds [`crate::INGEST_BUFFER_BYTES`] of SoC DRAM (the
/// paper's 192 KiB ingest buffer) for its two stream tails and packing
/// space; the device reserves that from the DRAM budget when a keyspace
/// becomes WRITABLE and releases it at compaction time.
#[derive(Debug)]
pub struct WriteLog {
    pub klog: BlockStreamWriter,
    pub vlog: BlockStreamWriter,
    pub pairs: u64,
    pub data_bytes: u64,
    pub min_key: Option<Vec<u8>>,
    pub max_key: Option<Vec<u8>>,
}

impl WriteLog {
    pub fn new(klog_cluster: ClusterId, vlog_cluster: ClusterId) -> Self {
        Self {
            klog: BlockStreamWriter::new(klog_cluster),
            vlog: BlockStreamWriter::new(vlog_cluster),
            pairs: 0,
            data_bytes: 0,
            min_key: None,
            max_key: None,
        }
    }

    /// Append one key-value pair (key-value separated): the value to
    /// VLOG, then the KLOG record for it, its header framed on the stack
    /// so a pair allocates nothing.
    pub fn put(
        &mut self,
        mgr: &ZoneManager,
        soc: &mut SocTally<'_>,
        key: &[u8],
        value: &[u8],
    ) -> Result<()> {
        let voff = self.vlog.append(mgr, value)?;
        let hdr = KlogRecord::header(key.len(), voff, value.len() as u32);
        self.klog.append(mgr, &hdr)?;
        self.klog.append(mgr, key)?;
        soc.memcpy(key.len() + value.len());
        soc.bytes(KlogRecord::HEADER);
        soc.kv_op();
        self.pairs += 1;
        self.data_bytes += (key.len() + value.len()) as u64;
        if self.min_key.as_deref().is_none_or(|m| key < m) {
            overwrite(&mut self.min_key, key);
        }
        if self.max_key.as_deref().is_none_or(|m| key > m) {
            overwrite(&mut self.max_key, key);
        }
        Ok(())
    }

    /// Seal both logs, returning `(klog_len, vlog_len)`.
    ///
    /// Idempotent (see [`BlockStreamWriter::seal`]): if the vlog flush
    /// fails after the klog flushed, a retry skips the klog and only
    /// redoes the vlog, so a transient flash error does not strand the
    /// log half-sealed.
    pub fn seal(&mut self, mgr: &ZoneManager) -> Result<(u64, u64)> {
        let k = self.klog.seal(mgr)?;
        let v = self.vlog.seal(mgr)?;
        Ok((k, v))
    }
}

/// Set `slot` to `key`, reusing its buffer.
fn overwrite(slot: &mut Option<Vec<u8>>, key: &[u8]) {
    let buf = slot.get_or_insert_with(Vec::new);
    buf.clear();
    buf.extend_from_slice(key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extsort::read_record;
    use crate::testing::test_stack;

    #[test]
    fn stream_writer_reader_roundtrip() {
        let (mgr, _, _) = test_stack(64, 7);
        let c = mgr.alloc_cluster(4).unwrap();
        let mut w = BlockStreamWriter::new(c);
        let mut expected = Vec::new();
        for i in 0..100u32 {
            let chunk = vec![(i % 251) as u8; 97];
            let at = w.append(&mgr, &chunk).unwrap();
            assert_eq!(at, expected.len() as u64);
            expected.extend_from_slice(&chunk);
        }
        let len = w.seal(&mgr).unwrap();
        assert_eq!(len, expected.len() as u64);

        let mut r = StreamReader::new(&mgr, c, len);
        let mut got = Vec::new();
        while r.remaining() > 0 {
            let n = r.remaining().min(333) as usize;
            r.read_into(n, &mut got).unwrap();
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn klog_record_roundtrip_through_stream() {
        let (mgr, _, _) = test_stack(64, 7);
        let c = mgr.alloc_cluster(2).unwrap();
        let mut w = BlockStreamWriter::new(c);
        let keys: Vec<Vec<u8>> = (0..500u32)
            .map(|i| format!("key-{i:06}").into_bytes())
            .collect();
        let records: Vec<KlogRef<'_>> = (0..500u32)
            .map(|i| KlogRef {
                key: &keys[i as usize],
                voff: i as u64 * 32,
                vlen: 32,
            })
            .collect();
        let mut buf = Vec::new();
        for r in &records {
            buf.clear();
            KlogRecord::encode(r, &mut buf);
            w.append(&mgr, &buf).unwrap();
        }
        let len = w.seal(&mgr).unwrap();
        let mut reader = StreamReader::new(&mgr, c, len);
        for want in &records {
            read_record::<KlogRecord>(&mut reader, &mut buf).unwrap();
            assert_eq!(&KlogRecord::view(&buf), want);
        }
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn write_log_separates_keys_and_values() {
        let (mgr, soc, _) = test_stack(64, 7);
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        for i in 0..300u32 {
            log.put(
                &mgr,
                &mut soc.tally(),
                format!("k{i:06}").as_bytes(),
                &[i as u8; 32],
            )
            .unwrap();
        }
        assert_eq!(log.pairs, 300);
        assert_eq!(log.data_bytes, 300 * (7 + 32));
        assert_eq!(log.min_key.as_deref().unwrap(), b"k000000");
        assert_eq!(log.max_key.as_deref().unwrap(), b"k000299");
        let (klen, vlen) = log.seal(&mgr).unwrap();
        assert_eq!(vlen, 300 * 32);
        assert_eq!(klen, 300 * (KlogRecord::HEADER as u64 + 7));

        // Values are retrievable through the KLOG pointers.
        let mut r = StreamReader::new(&mgr, kc, klen);
        let mut buf = Vec::new();
        for i in 0..300u32 {
            read_record::<KlogRecord>(&mut r, &mut buf).unwrap();
            let rec = KlogRecord::view(&buf);
            let v = mgr.read_bytes(vc, rec.voff, rec.vlen as usize).unwrap();
            assert_eq!(v, vec![i as u8; 32], "value {i}");
        }
    }

    #[test]
    fn put_charges_soc_not_host() {
        let (mgr, soc, _) = test_stack(64, 7);
        let kc = mgr.alloc_cluster(1).unwrap();
        let vc = mgr.alloc_cluster(1).unwrap();
        let mut log = WriteLog::new(kc, vc);
        log.put(&mgr, &mut soc.tally(), b"key", b"value").unwrap();
        let s = soc.ledger().snapshot();
        assert!(s.soc_cpu_ns > 0);
        assert_eq!(s.host_cpu_ns, 0);
    }

    #[test]
    fn large_values_span_blocks() {
        let (mgr, soc, _) = test_stack(64, 7);
        let kc = mgr.alloc_cluster(1).unwrap();
        let vc = mgr.alloc_cluster(1).unwrap();
        let mut log = WriteLog::new(kc, vc);
        let big: Vec<u8> = (0..10_000u32).map(|i| (i % 257) as u8).collect();
        log.put(&mgr, &mut soc.tally(), b"big", &big).unwrap();
        log.put(&mgr, &mut soc.tally(), b"after", b"x").unwrap();
        let (klen, _vlen) = log.seal(&mgr).unwrap();
        let mut r = StreamReader::new(&mgr, kc, klen);
        let mut buf = Vec::new();
        read_record::<KlogRecord>(&mut r, &mut buf).unwrap();
        let rec = KlogRecord::view(&buf);
        assert_eq!(
            mgr.read_bytes(vc, rec.voff, rec.vlen as usize).unwrap(),
            big
        );
        read_record::<KlogRecord>(&mut r, &mut buf).unwrap();
        let rec2 = KlogRecord::view(&buf);
        assert_eq!(rec2.key, b"after");
        assert_eq!(mgr.read_bytes(vc, rec2.voff, 1).unwrap(), b"x");
    }

    #[test]
    fn empty_stream_seal() {
        let (mgr, _, _) = test_stack(64, 7);
        let c = mgr.alloc_cluster(1).unwrap();
        let mut w = BlockStreamWriter::new(c);
        assert_eq!(w.seal(&mgr).unwrap(), 0);
        assert_eq!(mgr.cluster_blocks(c).unwrap(), 0);
    }
}
