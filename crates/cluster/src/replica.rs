//! The sealed-artifact replication channel — the *fenced send path*.
//!
//! A primary never streams raw writes to its replica. Following the
//! index-shipping replication model, it ships the *finished products* —
//! sealed KLOG/VLOG pairs and compacted PIDX/SORTED_VALUES/SIDX
//! clusters — as [`KeyspaceArtifacts`] wrapped in a [`ReplicaShip`]
//! envelope. Promotion is then artifact installation, not log replay:
//! the replica never re-sorts or re-indexes anything that was already
//! compacted on the primary.
//!
//! Since the bus can drop, duplicate, delay and partition (see
//! `FaultInjector::decide_bus`), shipping is a stop-and-wait protocol:
//! every envelope carries a monotonic sequence number and the sender's
//! fencing epoch, the sender retries on ack timeout with capped
//! exponential backoff charged to a virtual clock, and the receiver
//! applies idempotently — duplicates and late retransmits are absorbed
//! by a per-keyspace newest-`seq` check, and any ship below the highest
//! epoch the replica has accepted is rejected at the fence (a deposed
//! primary cannot overwrite its successor's state).
//!
//! Every message crosses the fabric through [`BusResource::xmit`], which
//! charges wire bytes, message overhead and busy time for *every copy
//! that occupied the wire* — duplicated and dropped messages are never
//! free. This module's two sends are the only calls of the bus send
//! primitives outside `kvcsd-sim`: the root `clippy.toml` bans them
//! everywhere else.

use std::collections::HashMap;
use std::sync::Arc;

use kvcsd_core::KeyspaceArtifacts;
use kvcsd_proto::{ReplicaShip, ShardId, ShipKind, SHIP_HEADER_BYTES};
use kvcsd_sim::clock::doubling_backoff_ns;
use kvcsd_sim::sync::{Mutex, Shared};
use kvcsd_sim::{BusResource, BusXmit, VirtualClock};

/// Wire bytes of one entry in an anti-entropy generation digest:
/// keyspace-name hash (8), newest seq (8), payload length (8), pair
/// count (8).
pub const GEN_ENTRY_BYTES: u64 = 32;

/// One keyspace's generation: `(keyspace, kind, payload bytes, pairs,
/// seq)`, `seq` being its newest accepted ship's.
pub type Generation = (String, ShipKind, u64, u64, u64);

/// Retry discipline for one ship over the unreliable bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShipPolicy {
    /// Total send attempts (first try included) before the link is
    /// declared down.
    pub max_attempts: u32,
    /// Virtual nanoseconds the sender waits for an ack before
    /// retransmitting; charged to the channel clock on every timeout.
    pub timeout_ns: u64,
    /// First retransmit backoff; doubles per attempt.
    pub base_backoff_ns: u64,
    /// Backoff cap.
    pub max_backoff_ns: u64,
}

impl Default for ShipPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            timeout_ns: 50_000,
            base_backoff_ns: 100_000,
            max_backoff_ns: 5_000_000,
        }
    }
}

impl ShipPolicy {
    /// Backoff before the `attempt`-th retransmit (1-based), doubling
    /// from the base and capped.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        doubling_backoff_ns(self.base_backoff_ns, self.max_backoff_ns, attempt)
    }
}

/// A ship that was acked by the replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipOutcome {
    /// Sequence number the envelope carried.
    pub seq: u64,
    /// Send attempts spent (1 = first try acked).
    pub attempts: u32,
    /// Fabric nanoseconds all attempts occupied.
    pub fabric_ns: u64,
}

/// A ship the sender gave up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipError {
    /// Every attempt timed out (dropped, late, or partitioned): the link
    /// is down as far as this primary can tell. The artifact may or may
    /// not have reached the replica — anti-entropy reconciliation closes
    /// the gap after heal.
    LinkDown { attempts: u32 },
}

#[derive(Debug, Default)]
struct ReplicaState {
    /// Newest accepted ship per keyspace — the replica's durable state.
    applied: HashMap<String, (ReplicaShip, KeyspaceArtifacts)>,
    /// Ships that installed new state.
    accepted: u64,
    /// Deliveries absorbed by the idempotency check (duplicates and
    /// stale retransmits).
    duplicates: u64,
    /// Deliveries rejected at the epoch fence.
    fenced: u64,
}

/// The per-shard replication channel plus the replica's artifact store.
pub struct ReplicaLog {
    shard: ShardId,
    bus: BusResource,
    clock: Arc<VirtualClock>,
    policy: ShipPolicy,
    seq: Shared<u64>,
    /// Highest epoch the replica has accepted a ship from; the fence.
    applied_epoch: Shared<u64>,
    state: Mutex<ReplicaState>,
}

impl ReplicaLog {
    pub fn new(shard: ShardId, bus: BusResource, clock: Arc<VirtualClock>) -> Self {
        Self::with_policy(shard, bus, clock, ShipPolicy::default())
    }

    pub fn with_policy(
        shard: ShardId,
        bus: BusResource,
        clock: Arc<VirtualClock>,
        policy: ShipPolicy,
    ) -> Self {
        Self {
            shard,
            bus,
            clock,
            policy,
            seq: Shared::new(0),
            applied_epoch: Shared::new(0),
            state: Mutex::new(ReplicaState::default()),
        }
    }

    /// The newest seq this channel has stamped (0 before the first).
    pub fn last_seq(&self) -> u64 {
        self.seq.get()
    }

    /// The virtual clock ack timeouts and retransmit backoff are charged
    /// to.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    fn envelope(&self, keyspace: &str, art: &KeyspaceArtifacts, epoch: u64) -> ReplicaShip {
        let seq = self.seq.update(|s| {
            *s += 1;
            *s
        });
        ReplicaShip {
            seq,
            epoch,
            shard: self.shard,
            keyspace: keyspace.to_string(),
            kind: art.ship_kind(),
            payload_bytes: art.wire_bytes(),
        }
    }

    /// Ship one keyspace's artifacts across the unreliable bus, stamped
    /// with the sender's fencing `epoch`. Stop-and-wait: retransmit on
    /// ack timeout up to the policy budget, charging each timeout plus a
    /// capped doubling backoff to the channel clock. `Ok` means the
    /// replica acked; `Err(LinkDown)` means every attempt timed out and
    /// anti-entropy must close the gap after heal.
    pub fn ship(
        &self,
        keyspace: &str,
        art: KeyspaceArtifacts,
        epoch: u64,
    ) -> Result<ShipOutcome, ShipError> {
        let ship = self.envelope(keyspace, &art, epoch);
        let seq = ship.seq;
        let wire = ship.wire_size();
        let mut fabric_ns = 0u64;
        for attempt in 1..=self.policy.max_attempts {
            #[expect(
                clippy::disallowed_methods,
                reason = "the fenced send: epoch-stamped, sequence-numbered stop-and-wait"
            )]
            let sent = self.bus.xmit(wire);
            match sent {
                BusXmit::Delivered { ns, copies } => {
                    fabric_ns = fabric_ns.saturating_add(ns);
                    // No retransmit follows: the last copy takes the
                    // artifacts themselves instead of a deep clone.
                    for _ in 1..copies {
                        self.apply(ship.clone(), art.clone());
                    }
                    if copies > 0 {
                        self.apply(ship, art);
                    }
                    return Ok(ShipOutcome {
                        seq,
                        attempts: attempt,
                        fabric_ns,
                    });
                }
                BusXmit::Late { ns, copies } => {
                    // The replica receives every copy, but the ack misses
                    // the timeout window: the sender retransmits and the
                    // idempotency check absorbs the overlap.
                    fabric_ns = fabric_ns.saturating_add(ns);
                    for _ in 0..copies {
                        self.apply(ship.clone(), art.clone());
                    }
                }
                BusXmit::Dropped { ns } => {
                    fabric_ns = fabric_ns.saturating_add(ns);
                }
                BusXmit::Partitioned => {}
            }
            self.clock.advance(self.policy.timeout_ns);
            if attempt < self.policy.max_attempts {
                self.clock.advance(self.policy.backoff_ns(attempt));
            }
        }
        Err(ShipError::LinkDown {
            attempts: self.policy.max_attempts,
        })
    }

    /// Install artifacts locally without crossing the bus — used by a
    /// freshly promoted primary to re-seed the channel from its own
    /// replayed state (the data is already on this side of any
    /// partition, so no wire cost and no fault exposure).
    pub fn reseed(&self, keyspace: &str, art: KeyspaceArtifacts, epoch: u64) {
        let ship = self.envelope(keyspace, &art, epoch);
        self.apply(ship, art);
    }

    /// Receiver-side delivery of one envelope: fence stale epochs, absorb
    /// duplicates and stale retransmits, install anything newer.
    fn apply(&self, ship: ReplicaShip, art: KeyspaceArtifacts) {
        let epoch_ok = self.applied_epoch.update(|e| {
            if ship.epoch < *e {
                false
            } else {
                *e = ship.epoch;
                true
            }
        });
        let mut st = self.state.lock();
        if !epoch_ok {
            st.fenced += 1;
            return;
        }
        match st.applied.get(&ship.keyspace) {
            Some((have, _)) if have.seq >= ship.seq => st.duplicates += 1,
            _ => {
                st.accepted += 1;
                st.applied.insert(ship.keyspace.clone(), (ship, art));
            }
        }
    }

    /// The newest accepted ship per keyspace, in `seq` order — what
    /// promotion replays. A later ship for a keyspace superseded the
    /// earlier one at apply time (a compacted payload replaces the sealed
    /// logs it was built from), so this installs exactly one artifact set
    /// per keyspace.
    pub fn latest_per_keyspace(&self) -> Vec<(ReplicaShip, KeyspaceArtifacts)> {
        let st = self.state.lock();
        let mut out: Vec<(ReplicaShip, KeyspaceArtifacts)> = st.applied.values().cloned().collect();
        out.sort_by_key(|(s, _)| s.seq);
        out
    }

    /// The replica's per-keyspace artifact generations, sorted by name —
    /// one side of the anti-entropy exchange.
    pub fn generations(&self) -> Vec<Generation> {
        let st = self.state.lock();
        let mut out: Vec<_> = st
            .applied
            .values()
            .map(|(s, a)| (s.keyspace.clone(), s.kind, s.payload_bytes, a.pairs, s.seq))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The anti-entropy generation exchange: ship the digest request and
    /// the replica's answer over the (still unreliable) bus, then return
    /// the generations. `None` means the exchange itself was lost —
    /// reconciliation retries on a later pass.
    pub fn exchange_generations(&self) -> Option<Vec<Generation>> {
        let gens = self.generations();
        let digest = SHIP_HEADER_BYTES + GEN_ENTRY_BYTES * gens.len() as u64;
        #[expect(
            clippy::disallowed_methods,
            reason = "the generation exchange carries no artifact, so it needs no fence"
        )]
        let sent = self.bus.xmit(digest);
        match sent {
            BusXmit::Delivered { .. } => Some(gens),
            BusXmit::Late { .. } | BusXmit::Dropped { .. } | BusXmit::Partitioned => None,
        }
    }

    /// Distinct keyspaces with installed artifacts.
    pub fn len(&self) -> usize {
        self.state.lock().applied.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ships that installed new state.
    pub fn accepted(&self) -> u64 {
        self.state.lock().accepted
    }

    /// Deliveries absorbed by the idempotency check.
    pub fn duplicates(&self) -> u64 {
        self.state.lock().duplicates
    }

    /// Deliveries rejected at the epoch fence.
    pub fn fenced(&self) -> u64 {
        self.state.lock().fenced
    }

    /// Highest epoch the replica has accepted a ship from.
    pub fn applied_epoch(&self) -> u64 {
        self.applied_epoch.get()
    }

    /// Raise the receive fence to `epoch` without shipping anything.
    /// Called at promotion: the deposed primary must be fenced even
    /// before the successor ships (or reseeds) its first artifact —
    /// otherwise a shard whose replica log was empty at deposition would
    /// accept stale-epoch ships. The fence never regresses.
    pub fn advance_epoch(&self, epoch: u64) {
        self.applied_epoch.update(|e| *e = (*e).max(epoch));
    }

    /// Drop the installed artifacts — used when a freshly promoted
    /// primary re-seeds the channel from scratch. The epoch fence and the
    /// diagnostic counters survive: a deposed primary stays fenced across
    /// the re-seed.
    pub fn clear(&self) {
        self.state.lock().applied.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_core::ArtifactPayload;
    use kvcsd_sim::{BusConfig, FaultInjector, FaultPlan, IoLedger};

    fn sealed(pairs: u64) -> KeyspaceArtifacts {
        KeyspaceArtifacts {
            name: "t".into(),
            pairs,
            data_bytes: pairs * 16,
            min_key: Some(vec![0]),
            max_key: Some(vec![0xFF]),
            payload: ArtifactPayload::SealedLogs {
                klog: vec![0u8; 64],
                vlog: vec![0u8; 128],
            },
        }
    }

    fn bus() -> (BusResource, Arc<IoLedger>) {
        let ledger = Arc::new(IoLedger::new(1, 4096));
        (
            BusResource::new(BusConfig::default(), Arc::clone(&ledger)),
            ledger,
        )
    }

    fn faulty_bus(plan: FaultPlan) -> (BusResource, Arc<IoLedger>, Arc<FaultInjector>) {
        let ledger = Arc::new(IoLedger::new(1, 4096));
        let inj = Arc::new(FaultInjector::new(plan));
        (
            BusResource::new(BusConfig::default(), Arc::clone(&ledger)).with_faults(inj.clone()),
            ledger,
            inj,
        )
    }

    #[test]
    fn ships_are_sequenced_and_charged_to_the_fabric_ledger() {
        let (bus, ledger) = bus();
        let log = ReplicaLog::new(2, bus, Arc::new(VirtualClock::new()));
        let s1 = log.ship("t", sealed(10), 1).unwrap();
        let s2 = log.ship("t", sealed(20), 1).unwrap();
        assert_eq!((s1.seq, s2.seq), (1, 2));
        assert_eq!((s1.attempts, s2.attempts), (1, 1));
        assert!(s1.fabric_ns > 0, "a ship must occupy the fabric");
        assert_eq!(ledger.custom("bus_msgs"), 2);
        assert!(ledger.custom("bus_bytes") > 0);
        // A clean first-attempt ack charges no timeout to the clock.
        assert_eq!(log.clock().now_ns(), 0);
    }

    #[test]
    fn replay_set_keeps_only_the_newest_ship_per_keyspace() {
        let (bus, _ledger) = bus();
        let log = ReplicaLog::new(0, bus, Arc::new(VirtualClock::new()));
        log.ship("a", sealed(1), 1).unwrap();
        log.ship("b", sealed(2), 1).unwrap();
        log.ship("a", sealed(3), 1).unwrap();
        let latest = log.latest_per_keyspace();
        assert_eq!(latest.len(), 2);
        let a = latest.iter().find(|(s, _)| s.keyspace == "a").unwrap();
        assert_eq!(a.1.pairs, 3, "newer ship for 'a' supersedes the first");
        assert_eq!(a.0.seq, 3);
    }

    #[test]
    fn duplicate_delivery_is_idempotent_but_charged() {
        // Satellite: dup_prob = 1.0 delivers every artifact twice. The
        // replica must install exactly one copy while the ledger charges
        // both — duplicates occupied the fabric.
        let (bus, ledger, _) = faulty_bus(FaultPlan::none().with_link_faults(0.0, 1.0, 0.0, 0.0));
        let log = ReplicaLog::new(1, bus, Arc::new(VirtualClock::new()));
        let out = log.ship("t", sealed(10), 1).unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.accepted(), 1);
        assert_eq!(log.duplicates(), 1, "second copy absorbed, not installed");
        assert_eq!(ledger.custom("bus_msgs"), 2, "both copies charged");
        let wire = log.latest_per_keyspace()[0].0.wire_size();
        assert_eq!(ledger.custom("bus_bytes"), 2 * wire);
        // A second identical-content ship (new seq) installs normally.
        log.ship("t", sealed(10), 1).unwrap();
        assert_eq!(log.accepted(), 2);
        assert_eq!(log.duplicates(), 2);
    }

    #[test]
    fn drops_exhaust_the_retry_budget_with_charged_timeouts() {
        // drop_prob = 1.0: every attempt is lost, the sender burns its
        // whole budget, and each timeout + capped backoff lands on the
        // channel clock while each attempt still occupied the fabric.
        let (bus, ledger, _inj) =
            faulty_bus(FaultPlan::none().with_link_faults(1.0, 0.0, 0.0, 0.0));
        let log = ReplicaLog::new(1, bus, Arc::new(VirtualClock::new()));
        let err = log.ship("t", sealed(1), 1).unwrap_err();
        let policy = ShipPolicy::default();
        assert_eq!(
            err,
            ShipError::LinkDown {
                attempts: policy.max_attempts
            }
        );
        assert_eq!(log.len(), 0, "nothing delivered");
        assert_eq!(
            ledger.custom("bus_msgs"),
            policy.max_attempts as u64,
            "every dropped attempt occupied the fabric"
        );
        let timeouts = policy.timeout_ns * policy.max_attempts as u64;
        let backoffs: u64 = (1..policy.max_attempts).map(|a| policy.backoff_ns(a)).sum();
        assert_eq!(log.clock().now_ns(), timeouts + backoffs);
    }

    #[test]
    fn scheduled_partition_times_out_then_heals_and_ships() {
        // Partition opens at attempt 2 and heals after the retry budget
        // of the first ship burns through it.
        let plan = FaultPlan::none().with_partition_at(2, Some(3));
        let (bus, ledger, inj) = faulty_bus(plan);
        let log = ReplicaLog::new(1, bus, Arc::new(VirtualClock::new()));
        log.ship("a", sealed(1), 1).unwrap(); // bus op 1: clean
                                              // Bus ops 2-4 partitioned; the heal fires at op 5 and the fourth
                                              // attempt of this ship delivers.
        let out = log.ship("b", sealed(2), 1).unwrap();
        assert_eq!(out.attempts, 4);
        assert!(!inj.is_partitioned());
        assert_eq!(log.len(), 2);
        // Partitioned attempts never occupied the fabric.
        assert_eq!(ledger.custom("bus_msgs"), 2);
    }

    #[test]
    fn late_delivery_installs_once_despite_the_retransmit() {
        // reorder_prob = 1.0 on the first draw only is not expressible
        // with one probability, so drive the protocol by hand: a Late
        // outcome applies the message, the sender retransmits, and the
        // duplicate is absorbed. With reorder always on, every attempt
        // applies — the budget exhausts but the replica converged.
        let (bus, _ledger, _) = faulty_bus(FaultPlan::none().with_link_faults(0.0, 0.0, 1.0, 0.0));
        let log = ReplicaLog::new(1, bus, Arc::new(VirtualClock::new()));
        let err = log.ship("t", sealed(5), 1).unwrap_err();
        assert!(matches!(err, ShipError::LinkDown { .. }));
        assert_eq!(log.len(), 1, "the late originals all arrived");
        assert_eq!(log.accepted(), 1);
        assert_eq!(
            log.duplicates(),
            ShipPolicy::default().max_attempts as u64 - 1,
            "every retransmit after the first was absorbed"
        );
    }

    #[test]
    fn stale_epoch_ships_are_fenced_and_do_not_overwrite() {
        let (bus, _ledger) = bus();
        let log = ReplicaLog::new(1, bus, Arc::new(VirtualClock::new()));
        log.ship("t", sealed(10), 2).unwrap();
        assert_eq!(log.applied_epoch(), 2);
        // A deposed primary (epoch 1) ships: delivered, but rejected.
        log.ship("t", sealed(99), 1).unwrap();
        assert_eq!(log.fenced(), 1);
        assert_eq!(log.latest_per_keyspace()[0].1.pairs, 10);
        // The fence survives a promotion re-seed.
        log.clear();
        log.reseed("t", sealed(11), 3);
        log.ship("t", sealed(99), 1).unwrap();
        assert_eq!(log.fenced(), 2);
        assert_eq!(log.latest_per_keyspace()[0].1.pairs, 11);
    }

    #[test]
    fn promotion_raises_the_fence_even_with_nothing_to_reseed() {
        let (bus, _ledger) = bus();
        let log = ReplicaLog::new(1, bus, Arc::new(VirtualClock::new()));
        log.advance_epoch(2);
        log.ship("t", sealed(9), 1).unwrap();
        assert_eq!(log.fenced(), 1, "stale ship rejected on an empty log");
        assert!(log.is_empty());
        log.advance_epoch(1);
        assert_eq!(log.applied_epoch(), 2, "the fence never regresses");
    }

    #[test]
    fn generation_exchange_reports_sorted_generations() {
        let (bus, ledger) = bus();
        let log = ReplicaLog::new(1, bus, Arc::new(VirtualClock::new()));
        log.ship("b", sealed(2), 1).unwrap();
        log.ship("a", sealed(1), 1).unwrap();
        let before = ledger.custom("bus_msgs");
        let gens = log.exchange_generations().unwrap();
        assert_eq!(ledger.custom("bus_msgs"), before + 1, "digest is charged");
        assert_eq!(gens.len(), 2);
        assert_eq!(gens[0].0, "a");
        assert_eq!(gens[1].0, "b");
        assert_eq!(gens[0].3, 1);
    }
}
