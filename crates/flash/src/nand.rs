//! The raw NAND array: real storage plus NAND-rule enforcement.
//!
//! Three rules of NAND flash are enforced because both namespaces' logic
//! depends on them being real:
//!
//! 1. **program-once** — a page cannot be reprogrammed until its erase
//!    block is erased;
//! 2. **sequential-within-block** — pages of an erase block are programmed
//!    in order (this is what makes ZNS zones natural on flash);
//! 3. **erase granularity** — an erase affects an entire block.
//!
//! Every operation charges the shared [`IoLedger`] with busy time on the
//! channel that served it; the cost model's SSD term is the maximum channel
//! busy time, so striping quality directly shows in simulated results.

use std::collections::HashMap;
use std::sync::Arc;

use kvcsd_sim::fault::{FaultDecision, FaultInjector, OpClass};
use kvcsd_sim::sync::{Mutex, RwLock};
use kvcsd_sim::{HardwareSpec, IoLedger};

use crate::error::FlashError;
use crate::geometry::FlashGeometry;
use crate::Result;

#[derive(Debug, Default)]
struct ChannelState {
    /// Programmed page payloads keyed by PPA. A page is immutable once
    /// programmed, so reads hand out the stored page itself; an erase
    /// drops the array's handle, and a reprogram stores a new page.
    pages: HashMap<u64, Arc<[u8]>>,
    /// Next programmable page index per erase block (sequential rule).
    next_page: HashMap<u64, u32>,
}

/// The simulated NAND array shared by all namespaces on a device.
#[derive(Debug)]
pub struct NandArray {
    geom: FlashGeometry,
    ledger: Arc<IoLedger>,
    channels: Vec<Mutex<ChannelState>>,
    read_busy_ns: u64,
    program_busy_ns: u64,
    erase_busy_ns: u64,
    fault: RwLock<Option<Arc<FaultInjector>>>,
}

impl NandArray {
    /// Build a NAND array. `spec` supplies the timing constants; its
    /// channel count and page size must agree with `geom` (the geometry is
    /// authoritative for layout, the spec for time).
    pub fn new(geom: FlashGeometry, spec: &HardwareSpec, ledger: Arc<IoLedger>) -> Self {
        let per_byte = |bps: f64| (geom.page_bytes as f64 / bps * 1e9) as u64;
        Self {
            geom,
            ledger,
            channels: (0..geom.channels)
                .map(|_| Mutex::new(ChannelState::default()))
                .collect(),
            read_busy_ns: spec.page_op_ns + per_byte(spec.channel_read_bps),
            program_busy_ns: spec.page_op_ns + per_byte(spec.channel_write_bps),
            erase_busy_ns: spec.erase_ns,
            fault: RwLock::new(None),
        }
    }

    /// Attach a fault injector: every read/program/erase consults it
    /// before touching the media.
    pub fn with_fault_injector(self, inj: Arc<FaultInjector>) -> Self {
        *self.fault.write() = Some(inj);
        self
    }

    /// Install or remove the fault injector at runtime. Torture harnesses
    /// use this to arm faults only during specific phases of a run.
    pub fn set_fault_injector(&self, inj: Option<Arc<FaultInjector>>) {
        *self.fault.write() = inj;
    }

    /// The attached fault injector, if any (namespaces stacked on this
    /// array consult it for their own op classes).
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.fault.read().clone()
    }

    /// Consult the injector for a non-program op; returns the error to
    /// surface, if any.
    fn consult(&self, class: OpClass, op: &'static str) -> Result<()> {
        let Some(inj) = self.fault.read().clone() else {
            return Ok(());
        };
        match inj.decide(class, 0) {
            FaultDecision::Ok => Ok(()),
            FaultDecision::Transient => Err(FlashError::InjectedTransient { op }),
            FaultDecision::Persistent => Err(FlashError::InjectedPersistent { op }),
            FaultDecision::PowerCut { .. } | FaultDecision::PoweredOff => {
                Err(FlashError::PowerLoss)
            }
        }
    }

    pub fn geometry(&self) -> &FlashGeometry {
        &self.geom
    }

    pub fn ledger(&self) -> &Arc<IoLedger> {
        &self.ledger
    }

    fn check_ppa(&self, ppa: u64) -> Result<()> {
        let limit = self.geom.total_pages();
        if ppa >= limit {
            return Err(FlashError::AddressOutOfRange { addr: ppa, limit });
        }
        Ok(())
    }

    /// Program one page. `data` may be shorter than the page (it is
    /// zero-padded) but never longer.
    ///
    /// With a fault injector attached, a power cut landing on this op may
    /// leave a *torn* page: a strict prefix of `data` becomes durable, the
    /// page still counts as programmed (its cells were partially written),
    /// and the call returns [`FlashError::PowerLoss`].
    pub fn program(&self, ppa: u64, data: &[u8]) -> Result<()> {
        self.check_ppa(ppa)?;
        let page_bytes = self.geom.page_bytes as usize;
        if data.len() > page_bytes {
            return Err(FlashError::BadLength {
                len: data.len(),
                expect: format!("<= {page_bytes}"),
            });
        }
        let mut durable: &[u8] = data;
        let mut cut = false;
        if let Some(inj) = self.fault.read().clone() {
            match inj.decide(OpClass::NandProgram, data.len()) {
                FaultDecision::Ok => {}
                FaultDecision::Transient => {
                    return Err(FlashError::InjectedTransient { op: "nand-program" })
                }
                FaultDecision::Persistent => {
                    return Err(FlashError::InjectedPersistent { op: "nand-program" })
                }
                FaultDecision::PoweredOff => return Err(FlashError::PowerLoss),
                FaultDecision::PowerCut {
                    torn_prefix_bytes: None,
                } => {
                    // Cut before any cell was written: the op is cleanly lost.
                    return Err(FlashError::PowerLoss);
                }
                FaultDecision::PowerCut {
                    torn_prefix_bytes: Some(n),
                } => {
                    durable = &data[..n.min(data.len())];
                    cut = true;
                }
            }
        }
        let block = self.geom.block_of_ppa(ppa);
        let page_ix = self.geom.page_in_block(ppa);
        let chan = self.geom.channel_of_ppa(ppa);
        {
            let mut st = self.channels[chan as usize].lock();
            let next = st.next_page.entry(block).or_insert(0);
            if page_ix < *next {
                return Err(FlashError::PageAlreadyProgrammed {
                    channel: chan,
                    block,
                    page: page_ix,
                });
            }
            if page_ix != *next {
                // NAND requires in-order programming within a block.
                return Err(FlashError::NotSequential {
                    zone: 0,
                    write_pointer: *next as u64,
                    offset: page_ix as u64,
                });
            }
            *next += 1;
            // One allocation: a zeroed shared page, filled in place.
            let mut page: Arc<[u8]> = std::iter::repeat_n(0, page_bytes).collect();
            // The page has no other handle yet, so this never clones.
            Arc::make_mut(&mut page)[..durable.len()].copy_from_slice(durable);
            st.pages.insert(ppa, page);
        }
        self.ledger.nand_program(chan, 1, self.program_busy_ns);
        if cut {
            return Err(FlashError::PowerLoss);
        }
        Ok(())
    }

    /// Read one page back. Reading a page that was never programmed since
    /// the last erase is an internal error (namespaces guard against it).
    ///
    /// Returns the stored page itself, not a copy. Every read still pays
    /// its `nand_read` charge; a handle held past an erase keeps the bytes
    /// it was read with, like a page buffer already moved off the die.
    pub fn read(&self, ppa: u64) -> Result<Arc<[u8]>> {
        self.check_ppa(ppa)?;
        self.consult(OpClass::NandRead, "nand-read")?;
        let chan = self.geom.channel_of_ppa(ppa);
        let data = {
            let st = self.channels[chan as usize].lock();
            st.pages.get(&ppa).cloned()
        };
        match data {
            Some(d) => {
                self.ledger.nand_read(chan, 1, self.read_busy_ns);
                Ok(d)
            }
            None => Err(FlashError::AddressOutOfRange {
                addr: ppa,
                limit: self.geom.total_pages(),
            }),
        }
    }

    /// True if `ppa` currently holds programmed data.
    ///
    /// A probe touches the page map without moving data, so it charges a
    /// custom counter rather than a `nand_read` (which would distort the
    /// paper-figure NAND read counts); the dedicated counter keeps the
    /// touch observable in the cost model instead of free.
    pub fn is_programmed(&self, ppa: u64) -> bool {
        if self.check_ppa(ppa).is_err() {
            return false;
        }
        self.ledger.bump("nand_page_probes", 1);
        let chan = self.geom.channel_of_ppa(ppa);
        self.channels[chan as usize].lock().pages.contains_key(&ppa)
    }

    /// Erase a whole block, discarding its pages.
    pub fn erase(&self, block: u64) -> Result<()> {
        if block >= self.geom.total_blocks() {
            return Err(FlashError::AddressOutOfRange {
                addr: block,
                limit: self.geom.total_blocks(),
            });
        }
        self.consult(OpClass::NandErase, "nand-erase")?;
        let chan = self.geom.channel_of_block(block);
        {
            let mut st = self.channels[chan as usize].lock();
            let first = self.geom.first_ppa_of_block(block);
            for p in 0..self.geom.pages_per_block as u64 {
                st.pages.remove(&(first + p));
            }
            st.next_page.remove(&block);
        }
        self.ledger.nand_erase(chan, self.erase_busy_ns);
        Ok(())
    }

    /// Number of currently programmed pages (for memory-usage diagnostics).
    pub fn programmed_pages(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.lock().pages.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> NandArray {
        let geom = FlashGeometry {
            channels: 4,
            blocks_per_channel: 8,
            pages_per_block: 4,
            page_bytes: 256,
        };
        let spec = HardwareSpec::default();
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        NandArray::new(geom, &spec, ledger)
    }

    #[test]
    fn program_read_roundtrip() {
        let n = array();
        let data = vec![7u8; 256];
        n.program(0, &data).unwrap();
        assert_eq!(&*n.read(0).unwrap(), &data[..]);
    }

    #[test]
    fn short_payload_is_zero_padded() {
        let n = array();
        n.program(0, &[1, 2, 3]).unwrap();
        let page = n.read(0).unwrap();
        assert_eq!(&page[..3], &[1, 2, 3]);
        assert!(page[3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn oversized_payload_rejected() {
        let n = array();
        let e = n.program(0, &vec![0u8; 257]).unwrap_err();
        assert!(matches!(e, FlashError::BadLength { .. }));
    }

    #[test]
    fn program_once_enforced() {
        let n = array();
        n.program(0, &[1]).unwrap();
        let e = n.program(0, &[2]).unwrap_err();
        assert!(matches!(e, FlashError::PageAlreadyProgrammed { .. }));
    }

    #[test]
    fn sequential_within_block_enforced() {
        let n = array();
        // Block 0 holds ppas 0..4; skipping page 0 is illegal.
        let e = n.program(1, &[1]).unwrap_err();
        assert!(matches!(e, FlashError::NotSequential { .. }));
        n.program(0, &[1]).unwrap();
        n.program(1, &[1]).unwrap();
    }

    #[test]
    fn erase_allows_reprogramming() {
        let n = array();
        n.program(0, &[1]).unwrap();
        n.program(1, &[2]).unwrap();
        n.erase(0).unwrap();
        assert!(!n.is_programmed(0));
        n.program(0, &[3]).unwrap();
        assert_eq!(n.read(0).unwrap()[0], 3);
    }

    #[test]
    fn read_unprogrammed_is_error() {
        let n = array();
        assert!(n.read(2).is_err());
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let n = array();
        let total = n.geometry().total_pages();
        assert!(matches!(
            n.program(total, &[0]),
            Err(FlashError::AddressOutOfRange { .. })
        ));
        assert!(n.read(total).is_err());
        assert!(n.erase(n.geometry().total_blocks()).is_err());
    }

    // The charge pins: privacy keeps the page map inside this file, and
    // these hold each media op to its exact page count and channel time
    // (default spec, 256-byte pages).

    #[test]
    fn ledger_records_channel_busy() {
        let n = array();
        // Block 1 is on channel 1. A short payload still programs (and
        // pays for) a whole page: 8 us op + 256 B at 500 MB/s.
        let ppa = n.geometry().first_ppa_of_block(1);
        n.program(ppa, &[1]).unwrap();
        let s = n.ledger().snapshot();
        assert_eq!(
            (s.nand_program_pages, s.nand_read_pages, s.nand_erase_blocks),
            (1, 0, 0)
        );
        assert_eq!(s.channel_busy_ns, vec![0, 8_512, 0, 0]);
    }

    #[test]
    fn read_charges_ledger() {
        let n = array();
        // Block 3 is on channel 3.
        let first = n.geometry().first_ppa_of_block(3);
        n.program(first, &[1]).unwrap();
        n.program(first + 1, &[2]).unwrap();
        let before = n.ledger().snapshot();
        n.read(first).unwrap();
        n.read(first + 1).unwrap();
        // An unprogrammed page moves no data and charges nothing.
        assert!(n.read(first + 2).is_err());
        let s = n.ledger().snapshot().since(&before);
        assert_eq!(
            (s.nand_program_pages, s.nand_read_pages, s.nand_erase_blocks),
            (0, 2, 0)
        );
        // 8 us op + 256 B at 900 MB/s, per page.
        assert_eq!(s.channel_busy_ns, vec![0, 0, 0, 2 * 8_284]);
    }

    #[test]
    fn erase_charges_ledger() {
        let n = array();
        n.erase(2).unwrap();
        let s = n.ledger().snapshot();
        assert_eq!(
            (s.nand_program_pages, s.nand_read_pages, s.nand_erase_blocks),
            (0, 0, 1)
        );
        assert_eq!(s.channel_busy_ns, vec![0, 0, 2_000_000, 0]);
    }

    fn faulty_array(plan: kvcsd_sim::FaultPlan) -> (NandArray, Arc<FaultInjector>) {
        let geom = FlashGeometry {
            channels: 4,
            blocks_per_channel: 8,
            pages_per_block: 4,
            page_bytes: 256,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let inj = Arc::new(FaultInjector::new(plan));
        let nand = NandArray::new(geom, &HardwareSpec::default(), ledger)
            .with_fault_injector(Arc::clone(&inj));
        (nand, inj)
    }

    #[test]
    fn power_cut_tears_page_and_blocks_further_ops() {
        let (n, inj) = faulty_array(kvcsd_sim::FaultPlan::power_cut_at(2, 77));
        n.program(0, &[0xAA; 256]).unwrap();
        let e = n.program(1, &[0xBB; 256]).unwrap_err();
        assert!(e.is_power_loss());
        // The torn page is programmed: a durable prefix of 0xBB, zeros after.
        assert!(n.is_programmed(1));
        // All ops fail until power is restored.
        assert!(n.read(0).unwrap_err().is_power_loss());
        assert!(n.erase(0).unwrap_err().is_power_loss());
        inj.power_restore();
        let page = n.read(1).unwrap();
        let prefix = page.iter().take_while(|&&b| b == 0xBB).count();
        assert!(prefix < 256, "torn page must be a strict prefix");
        assert!(
            page[prefix..].iter().all(|&b| b == 0),
            "tail must be unwritten"
        );
        // The torn page still obeys program-once; the next page is writable.
        assert!(matches!(
            n.program(1, &[1]),
            Err(FlashError::PageAlreadyProgrammed { .. })
        ));
        n.program(2, &[0xCC; 256]).unwrap();
    }

    #[test]
    fn transient_errors_do_not_mutate_state() {
        let plan = kvcsd_sim::FaultPlan {
            seed: 3,
            ..kvcsd_sim::FaultPlan::none()
        }
        .with_error_prob(1.0);
        let (n, _inj) = faulty_array(plan);
        let e = n.program(0, &[1; 256]).unwrap_err();
        assert!(e.is_transient());
        assert!(!n.is_programmed(0));
        assert_eq!(n.ledger().snapshot().nand_program_pages, 0);
    }

    #[test]
    fn persistent_errors_are_typed() {
        let plan = kvcsd_sim::FaultPlan {
            seed: 3,
            ..kvcsd_sim::FaultPlan::none()
        }
        .with_error_prob(1.0)
        .with_persistent_fraction(1.0);
        let (n, _inj) = faulty_array(plan);
        let e = n.program(0, &[1; 256]).unwrap_err();
        assert!(matches!(e, FlashError::InjectedPersistent { .. }));
        assert!(!e.is_transient());
    }

    #[test]
    fn programmed_page_count_tracks_state() {
        let n = array();
        assert_eq!(n.programmed_pages(), 0);
        n.program(0, &[1]).unwrap();
        n.program(1, &[1]).unwrap();
        assert_eq!(n.programmed_pages(), 2);
        n.erase(0).unwrap();
        assert_eq!(n.programmed_pages(), 0);
    }
}
