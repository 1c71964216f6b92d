//! Zoned namespace (ZNS) over the NAND array.
//!
//! Zones follow the NVMe ZNS command-set semantics the paper relies on:
//! only sequential writes at the write pointer, explicit reset to reclaim
//! space (no device-side garbage collection), and a bounded number of
//! simultaneously open zones. Each zone maps to erase blocks of a single
//! NAND channel; cross-channel parallelism is obtained by *striping across
//! zones*, which is exactly the job of the device store's zone clusters.

use std::sync::Arc;

use kvcsd_sim::fault::{FaultDecision, OpClass};
use kvcsd_sim::sync::{Mutex, Shared};
use kvcsd_sim::{Lifecycle, TransitionTable};

use crate::error::FlashError;
use crate::nand::NandArray;
use crate::Result;

/// Configuration of the zoned namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZnsConfig {
    /// Erase blocks per zone (all on one channel).
    pub zone_blocks: u32,
    /// Maximum number of zones simultaneously in the Open state
    /// (NVMe: Maximum Open Resources).
    pub max_open_zones: u32,
}

impl Default for ZnsConfig {
    fn default() -> Self {
        Self {
            zone_blocks: 4,
            max_open_zones: 1024,
        }
    }
}

/// Lifecycle state of a zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneState {
    /// Erased; write pointer at zero.
    Empty,
    /// Opened by a write; write pointer mid-zone.
    Open,
    /// Finished or filled to capacity; read-only until reset.
    Full,
    /// Administratively frozen (NVMe "zone set read only" analog):
    /// appends rejected at any fill level, reads still served; leaves
    /// only through Zone Reset.
    ReadOnly,
}

impl ZoneState {
    /// NVMe-style lowercase state name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            ZoneState::Empty => "empty",
            ZoneState::Open => "open",
            ZoneState::Full => "full",
            ZoneState::ReadOnly => "read-only",
        }
    }
}

/// The legal zone lifecycle, mirroring the NVMe ZNS state machine the
/// paper's device relies on. Self-edges are implicitly legal (idempotent
/// no-ops); every other state change must appear here or the mutation is
/// rejected with [`FlashError::IllegalZoneTransition`]. Notably absent:
/// `Full -> Open` — a Full zone can only be reclaimed through Zone Reset,
/// never reopened for writes.
pub static ZONE_TRANSITIONS: TransitionTable<ZoneState> = TransitionTable {
    machine: "zone",
    // A new namespace's zones are erased.
    initial: ZoneState::Empty,
    edges: &[
        // First append opens the zone.
        (ZoneState::Empty, ZoneState::Open),
        // Zone Finish is valid on an Empty zone (zero-capacity seal).
        (ZoneState::Empty, ZoneState::Full),
        // Filling to capacity or Zone Finish.
        (ZoneState::Open, ZoneState::Full),
        // Zone Reset.
        (ZoneState::Open, ZoneState::Empty),
        (ZoneState::Full, ZoneState::Empty),
        // Administrative freeze at any fill level; only Reset recovers.
        (ZoneState::Open, ZoneState::ReadOnly),
        (ZoneState::Full, ZoneState::ReadOnly),
        (ZoneState::ReadOnly, ZoneState::Empty),
    ],
};

#[derive(Debug)]
struct ZoneMeta {
    state: Lifecycle<ZoneState>,
    /// Write pointer in pages from the zone start.
    wp_pages: u32,
}

impl ZoneMeta {
    /// A checked state change as a [`FlashError`]: an illegal edge is
    /// rejected without moving the state.
    fn transition(&mut self, zone: u32, to: ZoneState) -> Result<()> {
        self.state
            .transition(to)
            .map_err(|_| FlashError::IllegalZoneTransition {
                zone,
                from: self.state.get().name(),
                to: to.name(),
            })
    }
}

/// Public snapshot of one zone's status (NVMe Zone Descriptor analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneInfo {
    pub state: ZoneState,
    pub write_pointer_pages: u32,
    pub capacity_pages: u32,
    pub channel: u32,
}

/// The zoned namespace.
#[derive(Debug)]
pub struct ZonedNamespace {
    nand: Arc<NandArray>,
    cfg: ZnsConfig,
    zones: Vec<Mutex<ZoneMeta>>,
    /// Gauge of zones currently Open. Self-synchronized [`Shared`]
    /// counter so the debug-build race detector observes it; the value is
    /// kept consistent under the per-zone lock of the transitioning zone.
    open_count: Shared<u32>,
}

impl ZonedNamespace {
    /// Create a ZNS view covering the whole NAND array. Blocks that do not
    /// fill a whole zone at the end of each channel are left unused, as on
    /// real devices whose zone capacity is below zone size.
    pub fn new(nand: Arc<NandArray>, cfg: ZnsConfig) -> Self {
        let geom = *nand.geometry();
        let zones_per_channel = geom.blocks_per_channel / cfg.zone_blocks;
        let zone_count = zones_per_channel as usize * geom.channels as usize;
        Self {
            nand,
            cfg,
            zones: (0..zone_count)
                .map(|_| {
                    Mutex::new(ZoneMeta {
                        state: Lifecycle::new(&ZONE_TRANSITIONS),
                        wp_pages: 0,
                    })
                })
                .collect(),
            open_count: Shared::new(0),
        }
    }

    pub fn nand(&self) -> &Arc<NandArray> {
        &self.nand
    }

    pub fn config(&self) -> &ZnsConfig {
        &self.cfg
    }

    /// Number of zones exposed by the namespace.
    pub fn zone_count(&self) -> u32 {
        self.zones.len() as u32
    }

    /// Pages per zone.
    pub fn zone_capacity_pages(&self) -> u32 {
        self.cfg.zone_blocks * self.nand.geometry().pages_per_block
    }

    /// Bytes per zone.
    pub fn zone_capacity_bytes(&self) -> u64 {
        self.zone_capacity_pages() as u64 * self.nand.geometry().page_bytes as u64
    }

    /// Channel a zone's blocks live on.
    pub fn channel_of_zone(&self, zone: u32) -> u32 {
        zone % self.nand.geometry().channels
    }

    fn check_zone(&self, zone: u32) -> Result<()> {
        if zone as usize >= self.zones.len() {
            return Err(FlashError::AddressOutOfRange {
                addr: zone as u64,
                limit: self.zones.len() as u64,
            });
        }
        Ok(())
    }

    /// Erase block backing `page_ix` of `zone` (global block number).
    fn block_of(&self, zone: u32, block_in_zone: u32) -> u64 {
        let geom = self.nand.geometry();
        let channel = zone % geom.channels;
        let zone_in_channel = zone / geom.channels;
        channel as u64
            + geom.channels as u64
                * (zone_in_channel as u64 * self.cfg.zone_blocks as u64 + block_in_zone as u64)
    }

    fn ppa_of(&self, zone: u32, page_ix: u32) -> u64 {
        let geom = self.nand.geometry();
        let block_in_zone = page_ix / geom.pages_per_block;
        let page_in_block = page_ix % geom.pages_per_block;
        self.block_of(zone, block_in_zone) * geom.pages_per_block as u64 + page_in_block as u64
    }

    /// Zone descriptor (state, write pointer, capacity).
    pub fn zone_info(&self, zone: u32) -> Result<ZoneInfo> {
        self.check_zone(zone)?;
        let meta = self.zones[zone as usize].lock();
        Ok(ZoneInfo {
            state: meta.state.get(),
            write_pointer_pages: meta.wp_pages,
            capacity_pages: self.zone_capacity_pages(),
            channel: self.channel_of_zone(zone),
        })
    }

    /// Zone Append: write `data` at the write pointer, zero-padding the
    /// tail of the last page. Returns the starting page index within the
    /// zone. Appending to a Full zone or past capacity is an error.
    ///
    /// When a fault fires mid-stripe, the write pointer is rolled back to
    /// cover exactly the pages that were durably programmed — including a
    /// torn final page on power loss, which then sits *below* the write
    /// pointer as a torn zone tail for the recovery layer to detect.
    pub fn append(&self, zone: u32, data: &[u8]) -> Result<u32> {
        self.check_zone(zone)?;
        if data.is_empty() {
            return Err(FlashError::BadLength {
                len: 0,
                expect: "> 0".into(),
            });
        }
        if let Some(inj) = self.nand.fault_injector() {
            match inj.decide(OpClass::ZnsAppend, data.len()) {
                FaultDecision::Ok => {}
                FaultDecision::Transient => {
                    return Err(FlashError::InjectedTransient { op: "zns-append" })
                }
                FaultDecision::Persistent => {
                    return Err(FlashError::InjectedPersistent { op: "zns-append" })
                }
                FaultDecision::PowerCut { .. } | FaultDecision::PoweredOff => {
                    return Err(FlashError::PowerLoss)
                }
            }
        }
        let page_bytes = self.nand.geometry().page_bytes as usize;
        let pages = data.len().div_ceil(page_bytes) as u32;
        let cap = self.zone_capacity_pages();

        // Reserve the write-pointer range under the zone lock, then program
        // outside it (the NAND layer is internally synchronized). The zone
        // is marked Full only after its last page durably programs: until
        // then the reserved write pointer at capacity already rejects
        // further appends, and keeping the zone Open means a mid-stripe
        // power cut never needs the illegal Full -> Open edge to roll back.
        let start = {
            let mut meta = self.zones[zone as usize].lock();
            match meta.state.get() {
                ZoneState::Full | ZoneState::ReadOnly => {
                    return Err(FlashError::BadZoneState {
                        zone,
                        state: meta.state.get().name(),
                        op: "append",
                    })
                }
                ZoneState::Empty => {
                    let open = self.open_count.update(|c| {
                        *c += 1;
                        *c
                    });
                    if open > self.cfg.max_open_zones {
                        self.open_count.update(|c| *c -= 1);
                        return Err(FlashError::TooManyOpenZones {
                            limit: self.cfg.max_open_zones,
                        });
                    }
                    if let Err(e) = meta.transition(zone, ZoneState::Open) {
                        self.open_count.update(|c| *c -= 1);
                        return Err(e);
                    }
                }
                ZoneState::Open => {}
            }
            if meta.wp_pages + pages > cap {
                return Err(FlashError::NotSequential {
                    zone,
                    write_pointer: meta.wp_pages as u64,
                    offset: (meta.wp_pages + pages) as u64,
                });
            }
            let start = meta.wp_pages;
            meta.wp_pages += pages;
            start
        };

        let mut programmed = 0u32;
        let mut failure = None;
        for (i, chunk) in data.chunks(page_bytes).enumerate() {
            let ppa = self.ppa_of(zone, start + i as u32);
            match self.nand.program(ppa, chunk) {
                Ok(()) => programmed += 1,
                Err(e) => {
                    // A power cut can tear the page: its cells were partly
                    // written, so it counts as programmed and must stay
                    // below the rolled-back write pointer.
                    if e.is_power_loss() && self.nand.is_programmed(ppa) {
                        programmed += 1;
                    }
                    failure = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failure {
            let mut meta = self.zones[zone as usize].lock();
            // Roll back over the pages that never made it — unless a
            // concurrent append already extended the zone past us. The
            // zone was never marked Full, so only the pointer moves.
            if meta.wp_pages == start + pages {
                meta.wp_pages = start + programmed;
            }
            return Err(e);
        }
        if start + pages == cap {
            let mut meta = self.zones[zone as usize].lock();
            if meta.state.get() == ZoneState::Open && meta.wp_pages == cap {
                meta.transition(zone, ZoneState::Full)?;
                self.open_count.update(|c| *c -= 1);
            }
        }
        Ok(start)
    }

    /// Check that pages `page_ix..page_ix + page_count` of `zone` lie
    /// below its write pointer.
    fn check_readable(&self, zone: u32, page_ix: u32, page_count: u32) -> Result<()> {
        self.check_zone(zone)?;
        let wp = self.zones[zone as usize].lock().wp_pages;
        let end = page_ix as u64 + page_count as u64;
        if end > wp as u64 {
            return Err(FlashError::ReadPastWritePointer {
                zone,
                write_pointer: wp as u64,
                end,
            });
        }
        Ok(())
    }

    /// Read page `page_ix` of `zone`: the NAND's stored page, shared
    /// rather than copied (see [`NandArray::read`]).
    pub fn read_page(&self, zone: u32, page_ix: u32) -> Result<Arc<[u8]>> {
        self.check_readable(zone, page_ix, 1)?;
        self.nand.read(self.ppa_of(zone, page_ix))
    }

    /// Read `page_count` pages starting at `page_ix` in `zone` into one
    /// contiguous buffer. Reads must stay below the write pointer.
    pub fn read_pages(&self, zone: u32, page_ix: u32, page_count: u32) -> Result<Vec<u8>> {
        self.check_readable(zone, page_ix, page_count)?;
        let page_bytes = self.nand.geometry().page_bytes as usize;
        let mut out = Vec::with_capacity(page_count as usize * page_bytes);
        for p in page_ix..page_ix + page_count {
            out.extend_from_slice(&self.nand.read(self.ppa_of(zone, p))?);
        }
        Ok(out)
    }

    /// Byte-granularity read: fetches the whole pages covering
    /// `offset..offset+len` (charging their full I/O — this is where read
    /// amplification comes from) and returns just the requested span.
    pub fn read_bytes(&self, zone: u32, offset: u64, len: usize) -> Result<Vec<u8>> {
        let page_bytes = self.nand.geometry().page_bytes as u64;
        let first = (offset / page_bytes) as u32;
        let last = (offset + len as u64).div_ceil(page_bytes) as u32;
        let mut pages = self.read_pages(zone, first, last - first)?;
        let skip = (offset - first as u64 * page_bytes) as usize;
        pages.drain(..skip);
        pages.truncate(len);
        Ok(pages)
    }

    /// Zone Reset: erase the zone's programmed blocks and rewind its write
    /// pointer.
    pub fn reset(&self, zone: u32) -> Result<()> {
        self.check_zone(zone)?;
        let geom = self.nand.geometry();
        let mut meta = self.zones[zone as usize].lock();
        let used_blocks = meta.wp_pages.div_ceil(geom.pages_per_block);
        for b in 0..used_blocks {
            self.nand.erase(self.block_of(zone, b))?;
        }
        // A failed erase leaves the zone as it was, still open if it was.
        if meta.state.get() == ZoneState::Open {
            self.open_count.update(|c| *c -= 1);
        }
        meta.transition(zone, ZoneState::Empty)?;
        meta.wp_pages = 0;
        Ok(())
    }

    /// Zone Finish: transition an Open or Empty zone to Full (read-only).
    pub fn finish(&self, zone: u32) -> Result<()> {
        self.check_zone(zone)?;
        let mut meta = self.zones[zone as usize].lock();
        let was_open = meta.state.get() == ZoneState::Open;
        meta.transition(zone, ZoneState::Full)?;
        if was_open {
            self.open_count.update(|c| *c -= 1);
        }
        Ok(())
    }

    /// Mark a zone read-only (NVMe "set zone read only" analog): appends
    /// are rejected, reads below the write pointer keep working, and only
    /// Zone Reset returns the zone to service. Legal from Open or Full.
    pub fn mark_read_only(&self, zone: u32) -> Result<()> {
        self.check_zone(zone)?;
        let mut meta = self.zones[zone as usize].lock();
        let was_open = meta.state.get() == ZoneState::Open;
        meta.transition(zone, ZoneState::ReadOnly)?;
        if was_open {
            self.open_count.update(|c| *c -= 1);
        }
        Ok(())
    }

    /// Number of zones currently Open.
    pub fn open_zones(&self) -> u32 {
        self.open_count.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;
    use kvcsd_sim::{HardwareSpec, IoLedger};

    fn zns(max_open: u32) -> ZonedNamespace {
        let geom = FlashGeometry {
            channels: 4,
            blocks_per_channel: 8,
            pages_per_block: 4,
            page_bytes: 256,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        ZonedNamespace::new(
            nand,
            ZnsConfig {
                zone_blocks: 2,
                max_open_zones: max_open,
            },
        )
    }

    #[test]
    fn zone_layout() {
        let z = zns(16);
        // 8 blocks/channel, 2 blocks/zone => 4 zones/channel * 4 channels.
        assert_eq!(z.zone_count(), 16);
        assert_eq!(z.zone_capacity_pages(), 8);
        assert_eq!(z.zone_capacity_bytes(), 8 * 256);
        assert_eq!(z.channel_of_zone(0), 0);
        assert_eq!(z.channel_of_zone(5), 1);
    }

    #[test]
    fn append_and_read_roundtrip() {
        let z = zns(16);
        let data: Vec<u8> = (0..512).map(|i| i as u8).collect();
        let start = z.append(3, &data).unwrap();
        assert_eq!(start, 0);
        assert_eq!(z.read_pages(3, 0, 2).unwrap(), data);
        let next = z.append(3, &[0xAB; 100]).unwrap();
        assert_eq!(next, 2);
        let back = z.read_pages(3, 2, 1).unwrap();
        assert_eq!(&back[..100], &[0xAB; 100]);
        assert!(back[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn read_bytes_slices_within_pages() {
        let z = zns(16);
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        z.append(0, &data).unwrap();
        let got = z.read_bytes(0, 300, 400).unwrap();
        assert_eq!(got, &data[300..700]);
    }

    #[test]
    fn read_bytes_charges_whole_pages() {
        let z = zns(16);
        z.append(0, &vec![1u8; 1024]).unwrap();
        let before = z.nand().ledger().snapshot();
        z.read_bytes(0, 10, 16).unwrap(); // 16 bytes, 1 page
        let d = z.nand().ledger().snapshot().since(&before);
        assert_eq!(d.nand_read_pages, 1);
        assert_eq!(d.storage_read_bytes(), 256);
    }

    #[test]
    fn write_pointer_and_states_progress() {
        let z = zns(16);
        assert_eq!(z.zone_info(1).unwrap().state, ZoneState::Empty);
        z.append(1, &[1u8; 256]).unwrap();
        let info = z.zone_info(1).unwrap();
        assert_eq!(info.state, ZoneState::Open);
        assert_eq!(info.write_pointer_pages, 1);
        assert_eq!(z.open_zones(), 1);
        // Fill to capacity -> Full, open count released.
        z.append(1, &vec![2u8; 7 * 256]).unwrap();
        assert_eq!(z.zone_info(1).unwrap().state, ZoneState::Full);
        assert_eq!(z.open_zones(), 0);
    }

    #[test]
    fn append_to_full_zone_fails() {
        let z = zns(16);
        z.append(0, &vec![1u8; 8 * 256]).unwrap();
        let e = z.append(0, &[1]).unwrap_err();
        assert!(matches!(e, FlashError::BadZoneState { .. }));
    }

    #[test]
    fn append_past_capacity_fails_atomically() {
        let z = zns(16);
        z.append(0, &vec![1u8; 7 * 256]).unwrap();
        let e = z.append(0, &vec![1u8; 2 * 256]).unwrap_err();
        assert!(matches!(e, FlashError::NotSequential { .. }));
        // Write pointer unchanged; a fitting append still works.
        assert_eq!(z.zone_info(0).unwrap().write_pointer_pages, 7);
        z.append(0, &[1u8; 256]).unwrap();
    }

    #[test]
    fn read_past_write_pointer_fails() {
        let z = zns(16);
        z.append(0, &[1u8; 256]).unwrap();
        let e = z.read_pages(0, 0, 2).unwrap_err();
        assert!(matches!(e, FlashError::ReadPastWritePointer { .. }));
    }

    #[test]
    fn read_page_checks_the_write_pointer_and_charges_one_read() {
        let z = zns(16);
        z.append(1, &[4u8; 256]).unwrap();
        let before = z.nand().ledger().snapshot();
        assert_eq!(&*z.read_page(1, 0).unwrap(), &[4u8; 256][..]);
        let d = z.nand().ledger().snapshot().since(&before);
        assert_eq!(d.nand_read_pages, 1);
        assert!(matches!(
            z.read_page(1, 1),
            Err(FlashError::ReadPastWritePointer { .. })
        ));
    }

    #[test]
    fn held_page_keeps_its_bytes_across_reset_and_reprogram() {
        let z = zns(16);
        z.append(3, &[0x11; 256]).unwrap();
        let held = z.read_page(3, 0).unwrap();
        z.reset(3).unwrap();
        assert!(matches!(
            z.read_page(3, 0),
            Err(FlashError::ReadPastWritePointer { .. })
        ));
        // Same zone, same page, so the same PPA, now with new bytes.
        z.append(3, &[0x22; 256]).unwrap();
        assert!(held.iter().all(|&b| b == 0x11), "held page changed");
        assert!(z.read_page(3, 0).unwrap().iter().all(|&b| b == 0x22));
    }

    #[test]
    fn reset_rewinds_and_erases() {
        let z = zns(16);
        z.append(2, &vec![9u8; 1024]).unwrap();
        let before = z.nand().ledger().snapshot();
        z.reset(2).unwrap();
        let d = z.nand().ledger().snapshot().since(&before);
        assert_eq!(d.nand_erase_blocks, 1); // only the used block erased
        let info = z.zone_info(2).unwrap();
        assert_eq!(info.state, ZoneState::Empty);
        assert_eq!(info.write_pointer_pages, 0);
        assert_eq!(z.open_zones(), 0);
        // Zone is writable again from the start.
        assert_eq!(z.append(2, &[1u8; 256]).unwrap(), 0);
    }

    #[test]
    fn finish_makes_zone_readonly() {
        let z = zns(16);
        z.append(0, &[1u8; 256]).unwrap();
        z.finish(0).unwrap();
        assert_eq!(z.zone_info(0).unwrap().state, ZoneState::Full);
        assert_eq!(z.open_zones(), 0);
        assert!(z.append(0, &[1]).is_err());
        // Data below the write pointer is still readable.
        assert_eq!(z.read_pages(0, 0, 1).unwrap()[0], 1);
    }

    #[test]
    fn zone_table_read_only_edges() {
        use ZoneState::*;
        for (from, to) in [(Open, ReadOnly), (Full, ReadOnly), (ReadOnly, Empty)] {
            assert!(ZONE_TRANSITIONS.is_legal(from, to), "{from:?}->{to:?}");
        }
        // A frozen zone only leaves through Reset.
        assert!(!ZONE_TRANSITIONS.is_legal(ReadOnly, Open));
        assert!(!ZONE_TRANSITIONS.is_legal(ReadOnly, Full));
        assert!(!ZONE_TRANSITIONS.is_legal(Empty, ReadOnly));
        let err = ZONE_TRANSITIONS.check(ReadOnly, Full).unwrap_err();
        assert_eq!(err.machine, "zone");
        assert_eq!(err.from, "ReadOnly");
        assert_eq!(err.to, "Full");
        assert!(err.to_string().contains("illegal zone transition"));
    }

    #[test]
    fn mark_read_only_freezes_open_zone() {
        let z = zns(16);
        z.append(0, &[1u8; 256]).unwrap();
        assert_eq!(z.open_zones(), 1);
        z.mark_read_only(0).unwrap();
        let info = z.zone_info(0).unwrap();
        assert_eq!(info.state, ZoneState::ReadOnly);
        assert_eq!(z.open_zones(), 0, "freeze must release the open slot");
        // Appends are rejected with the zone's state in the error.
        match z.append(0, &[2u8; 256]).unwrap_err() {
            FlashError::BadZoneState { zone, state, op } => {
                assert_eq!(zone, 0);
                assert_eq!(state, "read-only");
                assert_eq!(op, "append");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // Reads below the write pointer keep working.
        assert_eq!(z.read_pages(0, 0, 1).unwrap()[0], 1);
    }

    #[test]
    fn mark_read_only_from_full_and_reset_recovers() {
        let z = zns(16);
        z.append(1, &vec![7u8; 8 * 256]).unwrap();
        assert_eq!(z.zone_info(1).unwrap().state, ZoneState::Full);
        z.mark_read_only(1).unwrap();
        assert_eq!(z.zone_info(1).unwrap().state, ZoneState::ReadOnly);
        assert_eq!(z.open_zones(), 0);
        // Finish has no edge out of ReadOnly.
        assert!(matches!(
            z.finish(1),
            Err(FlashError::IllegalZoneTransition { .. })
        ));
        // Reset is the only way back to service.
        z.reset(1).unwrap();
        assert_eq!(z.zone_info(1).unwrap().state, ZoneState::Empty);
        assert_eq!(z.append(1, &[1u8; 256]).unwrap(), 0);
    }

    #[test]
    fn mark_read_only_illegal_transitions_name_states() {
        let z = zns(16);
        // Empty -> ReadOnly has no edge.
        match z.mark_read_only(0).unwrap_err() {
            FlashError::IllegalZoneTransition { zone, from, to } => {
                assert_eq!(zone, 0);
                assert_eq!(from, "empty");
                assert_eq!(to, "read-only");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // Self-transitions are idempotent no-ops, and the open-zone slot
        // must not be double-released on a repeated freeze.
        z.append(0, &[1u8; 256]).unwrap();
        z.mark_read_only(0).unwrap();
        assert_eq!(z.open_zones(), 0);
        z.mark_read_only(0).unwrap();
        assert_eq!(z.open_zones(), 0);
        assert_eq!(z.zone_info(0).unwrap().state, ZoneState::ReadOnly);
    }

    #[test]
    fn open_zone_limit_enforced() {
        let z = zns(2);
        z.append(0, &[1u8; 256]).unwrap();
        z.append(1, &[1u8; 256]).unwrap();
        let e = z.append(2, &[1u8; 256]).unwrap_err();
        assert!(matches!(e, FlashError::TooManyOpenZones { limit: 2 }));
        // Resetting one frees a slot.
        z.reset(0).unwrap();
        z.append(2, &[1u8; 256]).unwrap();
    }

    #[test]
    fn zones_on_same_channel_share_busy_accounting() {
        let z = zns(16);
        // Zones 0 and 4 both live on channel 0; zone 1 on channel 1.
        z.append(0, &[1u8; 256]).unwrap();
        z.append(4, &[1u8; 256]).unwrap();
        z.append(1, &[1u8; 256]).unwrap();
        let s = z.nand().ledger().snapshot();
        assert!(s.channel_busy_ns[0] > s.channel_busy_ns[1]);
        assert_eq!(s.channel_busy_ns[2], 0);
    }

    #[test]
    fn distinct_zones_have_distinct_storage() {
        let z = zns(16);
        z.append(0, &[1u8; 256]).unwrap();
        z.append(5, &[2u8; 256]).unwrap();
        assert_eq!(z.read_pages(0, 0, 1).unwrap()[0], 1);
        assert_eq!(z.read_pages(5, 0, 1).unwrap()[0], 2);
    }

    #[test]
    fn empty_append_rejected() {
        let z = zns(16);
        assert!(matches!(
            z.append(0, &[]),
            Err(FlashError::BadLength { .. })
        ));
    }

    fn faulty_zns(plan: kvcsd_sim::FaultPlan) -> ZonedNamespace {
        let geom = FlashGeometry {
            channels: 4,
            blocks_per_channel: 8,
            pages_per_block: 4,
            page_bytes: 256,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let inj = Arc::new(kvcsd_sim::FaultInjector::new(plan));
        let nand = Arc::new(
            NandArray::new(geom, &HardwareSpec::default(), ledger).with_fault_injector(inj),
        );
        ZonedNamespace::new(
            nand,
            ZnsConfig {
                zone_blocks: 2,
                max_open_zones: 16,
            },
        )
    }

    #[test]
    fn mid_stripe_power_cut_leaves_torn_zone_tail() {
        // Cut at the 3rd NAND op: the 4-page append tears on its 3rd page.
        let z = faulty_zns(kvcsd_sim::FaultPlan::power_cut_at(3, 123));
        let data: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        let e = z.append(0, &data).unwrap_err();
        assert!(e.is_power_loss());
        let inj = z.nand().fault_injector().unwrap().clone();
        inj.power_restore();
        // The write pointer covers the two clean pages plus the torn one.
        let wp = z.zone_info(0).unwrap().write_pointer_pages;
        assert_eq!(wp, 3, "wp must cover durable pages incl. the torn tail");
        let back = z.read_pages(0, 0, wp).unwrap();
        assert_eq!(&back[..512], &data[..512], "clean prefix intact");
        assert_ne!(&back[512..768], &data[512..768], "third page is torn");
        // The zone accepts appends again exactly at the rolled-back wp.
        assert_eq!(z.append(0, &[0xEE; 256]).unwrap(), wp);
    }

    #[test]
    fn clean_power_cut_rolls_wp_fully_back() {
        // Cut at op 1 with torn writes disabled: nothing lands.
        let mut plan = kvcsd_sim::FaultPlan::power_cut_at(1, 5);
        plan.torn_writes = false;
        let z = faulty_zns(plan);
        assert!(z.append(0, &[1u8; 512]).unwrap_err().is_power_loss());
        z.nand().fault_injector().unwrap().power_restore();
        assert_eq!(z.zone_info(0).unwrap().write_pointer_pages, 0);
        assert_eq!(z.append(0, &[2u8; 256]).unwrap(), 0);
    }

    #[test]
    fn transient_append_error_is_retryable() {
        let plan = kvcsd_sim::FaultPlan {
            seed: 8,
            ..kvcsd_sim::FaultPlan::none()
        };
        let mut plan = plan.with_error_prob(0.5);
        plan.read_error_prob = 0.0;
        let z = faulty_zns(plan);
        // Retry until one append succeeds; the zone must stay consistent.
        let mut failures = 0;
        loop {
            match z.append(1, &[7u8; 256]) {
                Ok(start) => {
                    let wp = z.zone_info(1).unwrap().write_pointer_pages;
                    assert_eq!(wp, start + 1);
                    break;
                }
                Err(e) => {
                    assert!(e.is_transient(), "unexpected {e:?}");
                    failures += 1;
                    assert!(failures < 200);
                }
            }
        }
        assert!(
            failures > 0,
            "p=0.5 over many tries must fail at least once"
        );
    }

    #[test]
    fn full_to_open_is_an_illegal_transition() {
        // The one edge the lifecycle table rejects: a Full zone can only
        // be reclaimed through Zone Reset, never reopened for writes.
        let err = ZONE_TRANSITIONS
            .check(ZoneState::Full, ZoneState::Open)
            .unwrap_err();
        assert_eq!(err.machine, "zone");
        assert!(err.to_string().contains("illegal zone transition"));
        // Everything the device actually does is legal.
        assert!(ZONE_TRANSITIONS
            .check(ZoneState::Empty, ZoneState::Open)
            .is_ok());
        assert!(ZONE_TRANSITIONS
            .check(ZoneState::Open, ZoneState::Full)
            .is_ok());
        assert!(ZONE_TRANSITIONS
            .check(ZoneState::Full, ZoneState::Empty)
            .is_ok());
        assert!(ZONE_TRANSITIONS
            .check(ZoneState::Full, ZoneState::Full)
            .is_ok());
    }

    #[test]
    fn zone_stays_open_until_fill_completes_durably() {
        // A power cut tearing the capacity-filling append must leave the
        // zone Open (rolled-back write pointer), not Full: the Full state
        // is only entered once every page is durably programmed.
        let z = faulty_zns(kvcsd_sim::FaultPlan::power_cut_at(5, 77));
        let e = z.append(0, &vec![3u8; 8 * 256]).unwrap_err();
        assert!(e.is_power_loss());
        z.nand().fault_injector().unwrap().power_restore();
        let info = z.zone_info(0).unwrap();
        assert_eq!(info.state, ZoneState::Open);
        assert!(info.write_pointer_pages < 8);
    }

    #[test]
    fn bad_zone_ids_rejected() {
        let z = zns(16);
        assert!(z.zone_info(99).is_err());
        assert!(z.append(99, &[1]).is_err());
        assert!(z.reset(99).is_err());
    }
}
