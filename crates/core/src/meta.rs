//! The metadata zones: a framed append log of device snapshots.
//!
//! The keyspace manager's "in-memory keyspace table \[is\] backed by a
//! metadata zone in the underlying ZNS SSD for data persistence". Each
//! snapshot is appended as `magic | seq | len | crc | payload`; because
//! zone appends are page-granular, every frame starts on a 4 KiB block
//! boundary.
//!
//! Two reserved zones ping-pong so that a snapshot write is never
//! destructive: appends go to the *active* zone until it fills (or a
//! crash leaves torn debris past its valid frame chain), then the
//! *other* zone is reset and the next snapshot lands there. The zone
//! holding the newest durable generation is never reset before a newer
//! generation is durable elsewhere, so a power cut at any instant —
//! including between the reset and the rewrite — leaves at least one
//! valid generation recoverable. The per-frame sequence number orders
//! generations across the two zones.

use kvcsd_sim::bytes::{le_u32, le_u64};
use std::sync::Arc;

use kvcsd_flash::ZonedNamespace;

use crate::error::DeviceError;
use crate::Result;

const FRAME_MAGIC: u32 = 0x4B56_4D45; // "KVME"
/// `magic | seq:u64 | len:u32 | crc:u32`.
const FRAME_HEADER: usize = 20;

/// CRC-32 (IEEE) for snapshot integrity.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    let mut buf = Vec::with_capacity(12 + payload.len());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    crc32(&buf)
}

/// Where the next snapshot goes, recovered lazily from the zones.
#[derive(Debug, Clone, Copy)]
struct WriteState {
    active: u32,
    /// The active zone's write pointer sits past its valid frame chain
    /// (torn debris from a crashed append); appending there would create
    /// unreachable frames, so the next write must flip zones.
    active_dirty: bool,
    next_seq: u64,
}

/// One zone's scan result: valid frames in append order, plus whether
/// debris follows them.
struct ZoneScan {
    frames: Vec<(u64, Vec<u8>)>,
    dirty: bool,
}

/// Writes and recovers snapshots across two reserved metadata zones.
#[derive(Debug)]
pub struct MetaStore {
    zns: Arc<ZonedNamespace>,
    zone_a: u32,
    zone_b: u32,
    state: Option<WriteState>,
    snapshots: u64,
}

impl MetaStore {
    /// Use `base_zone` and `base_zone + 1` as the ping-pong pair.
    pub fn new(zns: Arc<ZonedNamespace>, base_zone: u32) -> Self {
        Self {
            zns,
            zone_a: base_zone,
            zone_b: base_zone + 1,
            state: None,
            snapshots: 0,
        }
    }

    /// Snapshots written since this handle was created.
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots
    }

    fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&frame_crc(seq, payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Walk one zone's frame chain; stop at the first torn or corrupt
    /// frame (a power cut mid-append can never surface a bad generation).
    fn scan_zone(&self, zone: u32) -> Result<ZoneScan> {
        let info = self.zns.zone_info(zone)?;
        let page_bytes = self.zns.nand().geometry().page_bytes as u64;
        let mut frames = Vec::new();
        let mut page = 0u32;
        while (page as u64) < info.write_pointer_pages as u64 {
            let header = self.zns.read_pages(zone, page, 1)?;
            let magic = le_u32(&header, 0);
            if magic != FRAME_MAGIC {
                break; // end of valid frames
            }
            let seq = le_u64(&header, 4);
            let len = le_u32(&header, 12) as u64;
            let crc = le_u32(&header, 16);
            let total_pages = (FRAME_HEADER as u64 + len).div_ceil(page_bytes) as u32;
            if page as u64 + total_pages as u64 > info.write_pointer_pages as u64 {
                break; // torn frame at the tail
            }
            let raw = self.zns.read_pages(zone, page, total_pages)?;
            let payload = &raw[FRAME_HEADER..FRAME_HEADER + len as usize];
            if frame_crc(seq, payload) != crc {
                break; // corrupt tail
            }
            frames.push((seq, payload.to_vec()));
            page += total_pages;
        }
        Ok(ZoneScan {
            frames,
            dirty: (page as u64) < info.write_pointer_pages as u64,
        })
    }

    /// Recover the write position from both zones: the active zone is the
    /// one holding the newest valid generation.
    fn recover_state(&self) -> Result<WriteState> {
        let a = self.scan_zone(self.zone_a)?;
        let b = self.scan_zone(self.zone_b)?;
        let max_a = a.frames.iter().map(|(s, _)| *s).max();
        let max_b = b.frames.iter().map(|(s, _)| *s).max();
        let (active, dirty) = if max_b > max_a {
            (self.zone_b, b.dirty)
        } else if max_a.is_some() {
            (self.zone_a, a.dirty)
        } else {
            // No valid generation anywhere (fresh device, or a first-ever
            // snapshot that tore): start in zone A, flipping past debris.
            (self.zone_a, a.dirty)
        };
        let next_seq = max_a.max(max_b).map_or(1, |s| s + 1);
        Ok(WriteState {
            active,
            active_dirty: dirty,
            next_seq,
        })
    }

    /// Append a snapshot, flipping to the other zone when the active one
    /// is full or dirty. Crash-safe: the previous generation's zone is
    /// only reset once it is the flip *target*, i.e. after a newer
    /// generation became durable in the other zone.
    pub fn write(&mut self, payload: &[u8]) -> Result<()> {
        let WriteState {
            active,
            active_dirty,
            next_seq,
        } = match self.state {
            Some(s) => s,
            None => {
                let s = self.recover_state()?;
                self.state = Some(s);
                s
            }
        };
        let framed = Self::frame(next_seq, payload);
        if framed.len() as u64 > self.zns.zone_capacity_bytes() {
            return Err(DeviceError::Internal(format!(
                "snapshot of {} bytes exceeds the metadata zone",
                framed.len()
            )));
        }
        let page_bytes = self.zns.nand().geometry().page_bytes as u64;
        let need_pages = (framed.len() as u64).div_ceil(page_bytes);
        let info = self.zns.zone_info(active)?;
        let target = if active_dirty
            || info.write_pointer_pages as u64 + need_pages > info.capacity_pages as u64
        {
            let other = if active == self.zone_a {
                self.zone_b
            } else {
                self.zone_a
            };
            self.zns.reset(other)?;
            other
        } else {
            active
        };
        self.zns.append(target, &framed)?;
        // Only a fully-durable append advances the state; a failed reset
        // or append leaves it unchanged so the next write retries cleanly.
        self.state = Some(WriteState {
            active: target,
            active_dirty: false,
            next_seq: next_seq + 1,
        });
        self.snapshots += 1;
        Ok(())
    }

    /// Return the newest valid snapshot, if any.
    pub fn read_latest(&self) -> Result<Option<Vec<u8>>> {
        Ok(self.read_generations()?.into_iter().next())
    }

    /// True when *both* zones hold debris past their valid frame chains
    /// yet neither holds a single CRC-valid generation. A fresh device
    /// has two clean zones, and a first-ever snapshot that tore dirties
    /// only one — so this state can only be reached by destroying (or
    /// never completing) two generations. Mounting such a store as empty
    /// would silently un-ack whatever those generations held; callers
    /// must fail loudly instead ([`DeviceError::CorruptMetadata`]).
    pub fn is_doubly_corrupt(&self) -> Result<bool> {
        let a = self.scan_zone(self.zone_a)?;
        let b = self.scan_zone(self.zone_b)?;
        Ok(a.frames.is_empty() && b.frames.is_empty() && a.dirty && b.dirty)
    }

    /// Every CRC-valid snapshot across both zones, newest first (by
    /// sequence number). Callers that fail to *decode* the newest
    /// generation (format damage beyond what the CRC covers) fall back to
    /// the next one.
    pub fn read_generations(&self) -> Result<Vec<Vec<u8>>> {
        let mut all = self.scan_zone(self.zone_a)?.frames;
        all.extend(self.scan_zone(self.zone_b)?.frames);
        all.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
        Ok(all.into_iter().map(|(_, p)| p).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_flash::{FlashGeometry, NandArray, ZnsConfig};
    use kvcsd_sim::fault::{FaultInjector, FaultPlan};
    use kvcsd_sim::{HardwareSpec, IoLedger};

    fn store() -> (MetaStore, Arc<ZonedNamespace>) {
        let geom = FlashGeometry {
            channels: 4,
            blocks_per_channel: 16,
            pages_per_block: 4,
            page_bytes: 4096,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        let zns = Arc::new(ZonedNamespace::new(
            nand,
            ZnsConfig {
                zone_blocks: 4,
                max_open_zones: 64,
            },
        ));
        (MetaStore::new(Arc::clone(&zns), 0), zns)
    }

    #[test]
    fn crc_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_zone_has_no_snapshot() {
        let (s, _) = store();
        assert_eq!(s.read_latest().unwrap(), None);
    }

    #[test]
    fn latest_snapshot_wins() {
        let (mut s, _) = store();
        s.write(b"first").unwrap();
        s.write(b"second").unwrap();
        s.write(b"third").unwrap();
        assert_eq!(s.read_latest().unwrap().unwrap(), b"third");
        assert_eq!(s.snapshots_written(), 3);
    }

    #[test]
    fn large_snapshots_span_pages() {
        let (mut s, _) = store();
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        s.write(&big).unwrap();
        assert_eq!(s.read_latest().unwrap().unwrap(), big);
    }

    #[test]
    fn zone_wraps_and_survives() {
        let (mut s, _) = store();
        // Zone = 16 pages of 4 KiB = 64 KiB; 100 x 5 KiB snapshots force
        // many zone flips.
        for i in 0..100u32 {
            let payload = vec![i as u8; 5000];
            s.write(&payload).unwrap();
        }
        assert_eq!(s.read_latest().unwrap().unwrap(), vec![99u8; 5000]);
    }

    #[test]
    fn generations_are_newest_first() {
        let (mut s, _) = store();
        s.write(b"first").unwrap();
        s.write(b"second").unwrap();
        s.write(b"third").unwrap();
        let gens = s.read_generations().unwrap();
        assert_eq!(
            gens,
            vec![b"third".to_vec(), b"second".to_vec(), b"first".to_vec()]
        );
    }

    #[test]
    fn generations_survive_a_zone_flip() {
        let (mut s, _) = store();
        // 3 pages per frame: 5 frames fill the 16-page zone past 15 pages,
        // so the 6th write flips to the other zone.
        for i in 0..6u32 {
            s.write(&vec![i as u8; 10_000]).unwrap();
        }
        let gens = s.read_generations().unwrap();
        assert_eq!(gens[0], vec![5u8; 10_000]);
        // The pre-flip zone still holds the older generations.
        assert!(
            gens.len() >= 2,
            "flip must not destroy the previous generation"
        );
        assert_eq!(gens[1], vec![4u8; 10_000]);
    }

    #[test]
    fn a_torn_snapshot_write_never_loses_the_previous_generation() {
        // The regression this guards: with a single metadata zone, the
        // full-zone reset-and-rewrite destroyed every generation, so a
        // power cut between the reset and the rewrite came back empty.
        let (mut s, zns) = store();
        for i in 0..5u32 {
            s.write(&vec![i as u8; 10_000]).unwrap();
        }
        // Tear the 6th write (which flips zones) at its first NAND program.
        let inj = Arc::new(FaultInjector::new(FaultPlan::power_cut_at(2, 7)));
        zns.nand().set_fault_injector(Some(Arc::clone(&inj)));
        assert!(
            s.write(&vec![5u8; 10_000]).is_err(),
            "cut must fail the write"
        );
        zns.nand().set_fault_injector(None);
        inj.power_restore();
        // A fresh mount still recovers the last durable generation.
        let remounted = MetaStore::new(Arc::clone(&zns), 0);
        assert_eq!(remounted.read_latest().unwrap().unwrap(), vec![4u8; 10_000]);
        // And writing resumes cleanly past the debris.
        let mut s2 = remounted;
        s2.write(b"recovered").unwrap();
        assert_eq!(s2.read_latest().unwrap().unwrap(), b"recovered");
    }

    #[test]
    fn oversized_snapshot_rejected() {
        let (mut s, _) = store();
        assert!(s.write(&vec![0u8; 100_000]).is_err());
    }

    #[test]
    fn both_zones_torn_is_detected_as_doubly_corrupt() {
        let (mut s, zns) = store();
        s.write(b"durable-generation").unwrap();
        // Destroy both generations: reset wipes the valid chains and the
        // garbage appends leave non-frame debris in each zone — the state
        // a doubly-failed ping-pong (or media scribble) leaves behind.
        zns.reset(0).unwrap();
        zns.reset(1).unwrap();
        zns.append(0, &[0xAA; 64]).unwrap();
        zns.append(1, &[0xBB; 64]).unwrap();
        let remounted = MetaStore::new(Arc::clone(&zns), 0);
        assert!(remounted.is_doubly_corrupt().unwrap());
        // No generation is served — the store does not invent an empty one.
        assert_eq!(remounted.read_latest().unwrap(), None);
        assert!(remounted.read_generations().unwrap().is_empty());
    }

    #[test]
    fn a_single_torn_zone_stays_a_legal_fresh_start() {
        // A first-ever snapshot that tore dirties exactly one zone; that
        // must keep mounting as an empty store (nothing was ever durable),
        // not trip the doubly-corrupt detector.
        let (s, zns) = store();
        zns.append(0, &[0xAA; 64]).unwrap();
        assert!(!s.is_doubly_corrupt().unwrap());
        assert_eq!(s.read_latest().unwrap(), None);
    }

    #[test]
    fn a_valid_generation_beside_debris_is_not_doubly_corrupt() {
        let (mut s, zns) = store();
        s.write(b"good").unwrap();
        // Debris in the *other* zone only: the good generation survives.
        zns.append(1, &[0xCC; 64]).unwrap();
        let remounted = MetaStore::new(Arc::clone(&zns), 0);
        assert!(!remounted.is_doubly_corrupt().unwrap());
        assert_eq!(remounted.read_latest().unwrap().unwrap(), b"good");
    }
}
