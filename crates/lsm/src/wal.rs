//! Write-ahead log with checksummed record framing and replay.
//!
//! Record format: `crc32:u32 | len:u32 | payload`, where the payload is
//! `kind:u8 | seq:u64 | klen:u32 | key | value`. Like RocksDB, the WAL
//! backs the memtable: it is truncated (deleted and recreated) after each
//! successful flush.

use kvcsd_blockfs::{fs::FileId, BlockFs};

use kvcsd_sim::bytes::{crc32, le_u32, le_u64};

use crate::error::LsmError;
use crate::Result;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    Put {
        seq: u64,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    Delete {
        seq: u64,
        key: Vec<u8>,
    },
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let (kind, seq, key, value): (u8, u64, &[u8], &[u8]) = match self {
            WalRecord::Put { seq, key, value } => (1, *seq, key, value),
            WalRecord::Delete { seq, key } => (2, *seq, key, &[]),
        };
        let mut out = Vec::with_capacity(1 + 8 + 4 + key.len() + value.len());
        out.push(kind);
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(value);
        out
    }

    fn decode(payload: &[u8]) -> Result<WalRecord> {
        if payload.len() < 13 {
            return Err(LsmError::Corruption("wal record too short".into()));
        }
        let kind = payload[0];
        let seq = le_u64(payload, 1);
        let klen = le_u32(payload, 9) as usize;
        if payload.len() < 13 + klen {
            return Err(LsmError::Corruption("wal key truncated".into()));
        }
        let key = payload[13..13 + klen].to_vec();
        let value = payload[13 + klen..].to_vec();
        match kind {
            1 => Ok(WalRecord::Put { seq, key, value }),
            2 if value.is_empty() => Ok(WalRecord::Delete { seq, key }),
            _ => Err(LsmError::Corruption(format!("bad wal record kind {kind}"))),
        }
    }
}

/// An open write-ahead log file.
#[derive(Debug)]
pub struct Wal {
    file: FileId,
    path: String,
}

impl Wal {
    /// Create a fresh WAL at `path` (replacing any stale one).
    pub fn create(fs: &BlockFs, path: &str) -> Result<Self> {
        if fs.exists(path) {
            fs.unlink(path)?;
        }
        let file = fs.create(path)?;
        Ok(Self {
            file,
            path: path.to_string(),
        })
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    /// Append one record; optionally fsync.
    pub fn append(&self, fs: &BlockFs, rec: &WalRecord, sync: bool) -> Result<()> {
        let payload = rec.encode();
        let mut framed = Vec::with_capacity(8 + payload.len());
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        fs.append(self.file, &framed)?;
        if sync {
            fs.fsync(self.file)?;
        }
        Ok(())
    }

    /// Delete the log (after a successful memtable flush).
    pub fn remove(self, fs: &BlockFs) -> Result<()> {
        fs.unlink(&self.path)?;
        Ok(())
    }

    /// Replay the WAL at `path`, returning exactly the prefix of records
    /// whose frames are intact. A torn tail (short frame) or a
    /// checksum-mismatching frame — both the signature of a record that
    /// was mid-write at crash time — ends the replay cleanly rather than
    /// failing recovery; every record the store acknowledged before the
    /// crash precedes the damage, so the prefix is the durable state.
    pub fn replay(fs: &BlockFs, path: &str) -> Result<Vec<WalRecord>> {
        let file = fs.open(path)?;
        let size = fs.len(file)?;
        let mut records = Vec::new();
        let mut off = 0u64;
        while off + 8 <= size {
            let header = fs.read_exact_at(file, off, 8)?;
            let crc = le_u32(&header, 0);
            let len = le_u32(&header, 4) as u64;
            if off + 8 + len > size {
                break; // torn tail: record was being written at crash time
            }
            let payload = fs.read_exact_at(file, off + 8, len as usize)?;
            if crc32(&payload) != crc {
                break; // bit damage in the tail: stop at the valid prefix
            }
            records.push(WalRecord::decode(&payload)?);
            off += 8 + len;
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_blockfs::FsConfig;
    use kvcsd_flash::{ConvConfig, ConventionalNamespace, FlashGeometry, NandArray};
    use kvcsd_sim::{config::CostModel, HardwareSpec, IoLedger};
    use std::sync::Arc;

    fn fs() -> BlockFs {
        let geom = FlashGeometry {
            channels: 4,
            blocks_per_channel: 64,
            pages_per_block: 16,
            page_bytes: 512,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        let dev = Arc::new(ConventionalNamespace::new(nand, ConvConfig::default()));
        BlockFs::format(dev, CostModel::default(), FsConfig::default())
    }

    #[test]
    fn append_replay_roundtrip() {
        let fs = fs();
        let wal = Wal::create(&fs, "000001.log").unwrap();
        let records = vec![
            WalRecord::Put {
                seq: 1,
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            },
            WalRecord::Delete {
                seq: 2,
                key: b"a".to_vec(),
            },
            WalRecord::Put {
                seq: 3,
                key: b"bb".to_vec(),
                value: vec![0; 100],
            },
        ];
        for r in &records {
            wal.append(&fs, r, false).unwrap();
        }
        fs.fsync(fs.open("000001.log").unwrap()).unwrap();
        assert_eq!(Wal::replay(&fs, "000001.log").unwrap(), records);
    }

    #[test]
    fn replay_stops_at_torn_tail() {
        let fs = fs();
        let wal = Wal::create(&fs, "wal").unwrap();
        wal.append(
            &fs,
            &WalRecord::Put {
                seq: 1,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            false,
        )
        .unwrap();
        // Simulate a torn write: frame header promising more than exists.
        let f = fs.open("wal").unwrap();
        fs.append(f, &[0u8; 4]).unwrap(); // bogus crc
        fs.append(f, &1000u32.to_le_bytes()).unwrap(); // len > remaining
        let replayed = Wal::replay(&fs, "wal").unwrap();
        assert_eq!(replayed.len(), 1);
    }

    #[test]
    fn replay_stops_at_corrupt_tail_frame() {
        let fs = fs();
        let wal = Wal::create(&fs, "wal").unwrap();
        // One good frame, then a frame whose crc does not match its
        // payload: replay recovers exactly the valid prefix.
        let payload = WalRecord::Put {
            seq: 1,
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        };
        wal.append(&fs, &payload, false).unwrap();
        let f = fs.open("wal").unwrap();
        let mut bad = Vec::new();
        bad.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bad.extend_from_slice(&13u32.to_le_bytes());
        bad.extend_from_slice(&[1u8; 13]);
        fs.append(f, &bad).unwrap();
        assert_eq!(Wal::replay(&fs, "wal").unwrap(), vec![payload]);
    }

    #[test]
    fn create_replaces_stale_log() {
        let fs = fs();
        let wal = Wal::create(&fs, "wal").unwrap();
        wal.append(
            &fs,
            &WalRecord::Delete {
                seq: 9,
                key: b"x".to_vec(),
            },
            false,
        )
        .unwrap();
        let wal2 = Wal::create(&fs, "wal").unwrap();
        let _ = wal2;
        assert_eq!(Wal::replay(&fs, "wal").unwrap(), vec![]);
    }

    #[test]
    fn remove_deletes_file() {
        let fs = fs();
        let wal = Wal::create(&fs, "wal").unwrap();
        wal.remove(&fs).unwrap();
        assert!(!fs.exists("wal"));
    }

    #[test]
    fn sync_writes_pages_immediately() {
        let fs = fs();
        let wal = Wal::create(&fs, "wal").unwrap();
        let before = fs.stats().data_page_writes;
        wal.append(
            &fs,
            &WalRecord::Put {
                seq: 1,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            true,
        )
        .unwrap();
        assert!(
            fs.stats().data_page_writes > before,
            "sync append must hit the device"
        );
    }
}
