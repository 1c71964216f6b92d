//! SoC CPU cost charging.
//!
//! All device-side computation runs on the 4 ARM Cortex-A53 cores, which
//! the cost model rates `soc_slowdown` times slower than a host core.
//! This helper wraps the ledger so call sites stay terse and every charge
//! lands on the *SoC* counter — the whole point of the paper is that this
//! work does not consume host CPU.

use std::sync::Arc;

use kvcsd_sim::config::CostModel;
use kvcsd_sim::ledger::whole_ns;
use kvcsd_sim::IoLedger;

/// Charges SoC CPU time for device-side work.
#[derive(Debug, Clone)]
pub struct SocCharger {
    ledger: Arc<IoLedger>,
    cost: CostModel,
}

impl SocCharger {
    pub fn new(ledger: Arc<IoLedger>, cost: CostModel) -> Self {
        Self { ledger, cost }
    }

    pub fn ledger(&self) -> &Arc<IoLedger> {
        &self.ledger
    }

    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// A tally that books many charges to the ledger at once; see
    /// [`SocTally`].
    pub fn tally(&self) -> SocTally<'_> {
        SocTally { soc: self, ns: 0 }
    }
}

/// SoC charges summed in place and booked to the ledger once, when the
/// tally drops — on every exit path, `?` included. Each charge is rounded
/// to whole nanoseconds on its own ([`whole_ns`]), so a tally books
/// exactly what the same charges made through one tally each would. A
/// bulk PUT charges its pairs through one tally instead of taking the
/// ledger's counter three times per pair.
#[derive(Debug)]
pub struct SocTally<'a> {
    soc: &'a SocCharger,
    ns: u64,
}

impl SocTally<'_> {
    fn charge(&mut self, host_equiv_ns: f64) {
        self.ns += whole_ns(host_equiv_ns * self.soc.cost.soc_slowdown);
    }

    /// `n` key comparisons.
    pub fn cmp(&mut self, n: f64) {
        self.charge(n * self.soc.cost.key_cmp_ns);
    }

    /// `n` single comparisons, each charged as [`SocTally::cmp`]`(1.0)`
    /// would charge it.
    pub fn cmp_each(&mut self, n: usize) {
        self.ns += n as u64 * whole_ns(self.soc.cost.key_cmp_ns * self.soc.cost.soc_slowdown);
    }

    /// Sorting `n` records: n log2 n comparisons plus per-record swaps.
    pub fn sort(&mut self, n: usize) {
        let n = n.max(2) as f64;
        self.charge(n * n.log2() * self.soc.cost.key_cmp_ns);
    }

    /// A k-way merge step over `k` streams.
    pub fn merge_step(&mut self, k: usize) {
        self.charge((k.max(2) as f64).log2() * self.soc.cost.key_cmp_ns);
    }

    /// Moving / encoding / decoding `bytes` of data.
    pub fn bytes(&mut self, bytes: usize) {
        self.charge(bytes as f64 * self.soc.cost.codec_ns_per_byte);
    }

    /// Bulk memory movement of `bytes` (cheaper than codec work).
    pub fn memcpy(&mut self, bytes: usize) {
        self.charge(bytes as f64 * self.soc.cost.memcpy_ns_per_byte);
    }

    /// Fixed per-key-value-pair data-path cost (parsing, framing,
    /// buffer management) on the device.
    pub fn kv_op(&mut self) {
        self.charge(self.soc.cost.kv_op_ns);
    }
}

impl Drop for SocTally<'_> {
    fn drop(&mut self) {
        self.soc.ledger.charge_soc_cpu_ns(self.ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soc() -> SocCharger {
        SocCharger::new(Arc::new(IoLedger::new(4, 4096)), CostModel::default())
    }

    #[test]
    fn charges_land_on_soc_counter() {
        let s = soc();
        let mut t = s.tally();
        t.cmp(100.0);
        t.bytes(1000);
        drop(t);
        let snap = s.ledger().snapshot();
        assert!(snap.soc_cpu_ns > 0);
        assert_eq!(
            snap.host_cpu_ns, 0,
            "device work must never hit the host CPU"
        );
    }

    #[test]
    fn slowdown_factor_applies() {
        let s = soc();
        s.tally().cmp(1.0);
        let expect = CostModel::default().key_cmp_ns * CostModel::default().soc_slowdown;
        assert_eq!(s.ledger().snapshot().soc_cpu_ns, expect as u64);
    }

    #[test]
    fn sort_cost_is_superlinear() {
        let a = soc();
        a.tally().sort(1000);
        let b = soc();
        b.tally().sort(2000);
        let ca = a.ledger().snapshot().soc_cpu_ns;
        let cb = b.ledger().snapshot().soc_cpu_ns;
        assert!(
            cb as f64 > 2.0 * ca as f64,
            "2x records must cost more than 2x"
        );
    }

    #[test]
    fn a_tally_books_what_charging_one_by_one_books() {
        let one_by_one = soc();
        let tallied = soc();
        {
            let mut t = tallied.tally();
            for n in 1..50 {
                one_by_one.tally().bytes(n);
                one_by_one.tally().memcpy(n * 3);
                one_by_one.tally().kv_op();
                (0..n).for_each(|_| one_by_one.tally().cmp(1.0));
                t.bytes(n);
                t.memcpy(n * 3);
                t.kv_op();
                t.cmp_each(n);
            }
            assert_eq!(
                tallied.ledger().snapshot().soc_cpu_ns,
                0,
                "nothing is booked before the tally drops"
            );
        }
        assert_eq!(
            tallied.ledger().snapshot(),
            one_by_one.ledger().snapshot(),
            "every charge is rounded on its own, then summed"
        );
    }
}
