//! The replication bus: a ledger-charged fabric resource.
//!
//! A sharded KV-CSD fleet ships sealed index/block artifacts from each
//! primary to its replica peer over an RDMA-class fabric (Vardoulakis et
//! al.: replicate the *built* indexes, not the write stream). Like every
//! other resource in the simulation, the fabric is modeled by cost, not
//! by threads: a transfer charges its bytes, one message round trip and
//! the occupancy time implied by the configured bandwidth to the shared
//! [`IoLedger`], and accumulates the channel's busy time in a
//! [`Shared`] cell so tests can assert replication cost without any
//! wall-clock coupling.
//!
//! The bus deliberately does **not** advance any device's virtual clock:
//! artifact shipping is background work that overlaps foreground command
//! processing (the same latency-hiding argument as deferred compaction).
//! Foreground protocols that want to *wait* for a transfer add the
//! returned nanoseconds to their own clock explicitly.

use std::sync::Arc;

use crate::fault::{BusFault, FaultInjector};
use crate::ledger::IoLedger;
use crate::sync::Shared;

/// Fabric constants for one replication channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusConfig {
    /// Sustained fabric bandwidth in bytes per second (default 25 GbE-ish
    /// RDMA: ~3 GiB/s of goodput).
    pub bytes_per_sec: f64,
    /// Fixed per-message overhead (setup + completion), nanoseconds.
    pub msg_overhead_ns: u64,
}

impl Default for BusConfig {
    fn default() -> Self {
        Self {
            bytes_per_sec: 3.0 * (1u64 << 30) as f64,
            msg_overhead_ns: 5_000,
        }
    }
}

/// Outcome of one fault-aware message attempt ([`BusResource::xmit`]).
/// Every variant that put bytes on the wire reports the occupancy `ns`
/// already charged to the ledger; the *sender* decides what the outcome
/// means for its protocol (ack, timeout, retransmit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusXmit {
    /// Delivered and acked within the sender's timeout. `copies` > 1 is
    /// network duplication: the receiver must treat the extras
    /// idempotently, and each copy occupied (and was charged to) the
    /// fabric.
    Delivered { ns: u64, copies: u32 },
    /// Delivered (all `copies`), but the ack missed the sender's timeout
    /// window — the reorder/late fault. The receiver has the message; the
    /// sender will retransmit and the retransmit races the late original.
    Late { ns: u64, copies: u32 },
    /// Lost on the wire after occupying it: charged, not delivered.
    Dropped { ns: u64 },
    /// The link is partitioned; nothing left the NIC and nothing was
    /// charged.
    Partitioned,
}

/// One replication channel between a primary and its designated peer.
#[derive(Debug)]
pub struct BusResource {
    cfg: BusConfig,
    ledger: Arc<IoLedger>,
    busy_ns: Shared<u64>,
    /// Link-lane fault source; `None` means a perfect network and `xmit`
    /// degenerates to a single charged `transfer`.
    injector: Option<Arc<FaultInjector>>,
}

impl BusResource {
    pub fn new(cfg: BusConfig, ledger: Arc<IoLedger>) -> Self {
        Self {
            cfg,
            ledger,
            busy_ns: Shared::new(0),
            injector: None,
        }
    }

    /// Attach a link-lane fault source (see `FaultInjector::decide_bus`);
    /// the channel consults it on every `xmit`.
    pub fn with_faults(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The ledger this channel charges.
    pub fn ledger(&self) -> &Arc<IoLedger> {
        &self.ledger
    }

    /// True while the channel's link is inside a partition window.
    pub fn is_partitioned(&self) -> bool {
        self.injector.as_ref().is_some_and(|i| i.is_partitioned())
    }

    /// Ship `bytes` over the channel; returns the simulated transfer time
    /// in nanoseconds. Charges `bus_bytes`, `bus_msgs` and `bus_busy_ns`
    /// to the ledger and accumulates the channel's busy time. A charged
    /// wait: debug builds panic if a shim guard is held across it
    /// (`DESIGN.md` §13).
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn transfer(&self, bytes: u64) -> u64 {
        crate::sync::charged_wait("BusResource::transfer");
        let ns = self
            .cfg
            .msg_overhead_ns
            .saturating_add((bytes as f64 / self.cfg.bytes_per_sec * 1e9) as u64);
        self.ledger.bump("bus_bytes", bytes);
        self.ledger.bump("bus_msgs", 1);
        self.ledger.bump("bus_busy_ns", ns);
        self.busy_ns.update(|b| *b += ns);
        ns
    }

    /// One *unreliable* message attempt: consult the link lane, then
    /// charge a `transfer` for every copy that actually occupied the
    /// fabric (duplicates and dropped messages both did; a partitioned
    /// link charges nothing). Delay faults add their latency to the
    /// returned occupancy. This is the only send primitive replication
    /// protocols should use — `transfer` alone models a perfect wire.
    /// A charged wait, like `transfer`.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn xmit(&self, bytes: u64) -> BusXmit {
        crate::sync::charged_wait("BusResource::xmit");
        let fault = match &self.injector {
            None => BusFault::Deliver {
                copies: 1,
                delay_ns: 0,
            },
            Some(inj) => inj.decide_bus(),
        };
        match fault {
            BusFault::Partitioned => BusXmit::Partitioned,
            BusFault::Drop => BusXmit::Dropped {
                ns: self.transfer(bytes),
            },
            BusFault::Late { copies } => {
                let mut ns = 0u64;
                for _ in 0..copies {
                    ns = ns.saturating_add(self.transfer(bytes));
                }
                BusXmit::Late { ns, copies }
            }
            BusFault::Deliver { copies, delay_ns } => {
                let mut ns = delay_ns;
                for _ in 0..copies {
                    ns = ns.saturating_add(self.transfer(bytes));
                }
                BusXmit::Delivered { ns, copies }
            }
        }
    }

    /// Total simulated nanoseconds this channel has spent transferring.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(cfg: BusConfig) -> BusResource {
        BusResource::new(cfg, Arc::new(IoLedger::new(8, 4096)))
    }

    #[test]
    fn transfer_charges_bytes_messages_and_time() {
        let b = bus(BusConfig {
            bytes_per_sec: 1e9, // 1 byte per ns: easy arithmetic
            msg_overhead_ns: 100,
        });
        let ns = b.transfer(4096);
        assert_eq!(ns, 100 + 4096);
        assert_eq!(b.ledger().custom("bus_bytes"), 4096);
        assert_eq!(b.ledger().custom("bus_msgs"), 1);
        assert_eq!(b.ledger().custom("bus_busy_ns"), ns);
        assert_eq!(b.busy_ns(), ns);
    }

    #[test]
    fn busy_time_accumulates_across_transfers() {
        let b = bus(BusConfig {
            bytes_per_sec: 1e9,
            msg_overhead_ns: 10,
        });
        let total: u64 = (0..5).map(|_| b.transfer(1000)).sum();
        assert_eq!(b.busy_ns(), total);
        assert_eq!(b.ledger().custom("bus_msgs"), 5);
        assert_eq!(b.ledger().custom("bus_bytes"), 5000);
    }

    #[test]
    fn zero_byte_ship_still_pays_the_message_overhead() {
        let b = bus(BusConfig::default());
        let ns = b.transfer(0);
        assert_eq!(ns, BusConfig::default().msg_overhead_ns);
        assert_eq!(b.ledger().custom("bus_msgs"), 1);
    }

    #[test]
    fn xmit_without_an_injector_is_a_single_charged_delivery() {
        let b = bus(BusConfig {
            bytes_per_sec: 1e9,
            msg_overhead_ns: 100,
        });
        assert_eq!(
            b.xmit(1000),
            BusXmit::Delivered {
                ns: 1100,
                copies: 1
            }
        );
        assert_eq!(b.ledger().custom("bus_msgs"), 1);
        assert_eq!(b.ledger().custom("bus_bytes"), 1000);
    }

    #[test]
    fn duplicated_and_dropped_xmits_still_occupy_the_fabric() {
        use crate::fault::FaultPlan;
        // dup_prob = 1.0: every attempt delivers two charged copies.
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::none().with_link_faults(0.0, 1.0, 0.0, 0.0),
        ));
        let b = bus(BusConfig {
            bytes_per_sec: 1e9,
            msg_overhead_ns: 10,
        })
        .with_faults(inj);
        assert_eq!(b.xmit(100), BusXmit::Delivered { ns: 220, copies: 2 });
        assert_eq!(b.ledger().custom("bus_msgs"), 2);
        assert_eq!(b.ledger().custom("bus_bytes"), 200);
        // drop_prob = 1.0: charged, never delivered.
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::none().with_link_faults(1.0, 0.0, 0.0, 0.0),
        ));
        let b = bus(BusConfig {
            bytes_per_sec: 1e9,
            msg_overhead_ns: 10,
        })
        .with_faults(inj);
        assert_eq!(b.xmit(100), BusXmit::Dropped { ns: 110 });
        assert_eq!(b.ledger().custom("bus_msgs"), 1);
    }

    #[test]
    fn partitioned_xmit_charges_nothing_until_heal() {
        use crate::fault::FaultPlan;
        let inj = Arc::new(FaultInjector::new(FaultPlan::none()));
        let b = bus(BusConfig::default()).with_faults(inj.clone());
        inj.partition_now();
        assert!(b.is_partitioned());
        assert_eq!(b.xmit(4096), BusXmit::Partitioned);
        assert_eq!(b.ledger().custom("bus_msgs"), 0);
        inj.heal_link_now();
        assert!(matches!(b.xmit(4096), BusXmit::Delivered { .. }));
        assert_eq!(b.ledger().custom("bus_msgs"), 1);
    }
}
