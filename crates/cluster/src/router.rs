//! The host-side cluster router.
//!
//! [`ClusterRouter`] owns N [`ShardInstance`]s and implements
//! [`DeviceHandler`], so an unmodified `kvcsd-client` session drives the
//! whole fleet through one queue pair ("routed sessions"). Every
//! cluster-level keyspace exists on every shard under the same name; the
//! [`crate::ShardStrategy`] decides which shard owns each key.
//!
//! * Point ops (`Put`, `Get`) go to the owning shard only.
//! * `Range` / `SidxRange` / `SidxGet` scatter to the covering shards and
//!   the router merges the per-shard result sets back into global
//!   (secondary-)key order.
//! * `Compact` fans out to every shard; right after each shard's
//!   synchronous seal the router exports the sealed-log artifacts and
//!   ships them to the shard's replica log. When deferred jobs finish
//!   (`run_background`), anti-entropy ships the built indexes: the
//!   replica's generations say which keyspaces changed.
//! * A primary that dies (fault-injector power cut — detected either as a
//!   `PowerLoss` response or by the injector's powered-off latch) is
//!   promoted from its replica log: artifacts are installed on a fresh
//!   instance, sealed-log installs are re-compacted through the checked
//!   DEGRADED → COMPACTING edge, and the route table is repointed. While
//!   that runs, commands bounce with the *retryable*
//!   `FailoverInProgress`; the client's fail-fast resend lands on the
//!   promoted replica.
//!
//! Backpressure composes per shard: each device keeps its own
//! `AdmissionGate`, ledger and virtual clock, so a stalled or dead shard
//! charges stall time only to commands routed at its keys — never to the
//! rest of the fleet.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use kvcsd_core::{KeyspaceArtifacts, KvCsdDevice};
use kvcsd_proto::{
    Bound, DeviceHandler, JobId, JobState, KeyspaceDesc, KeyspaceStat, KeyspaceState, KvCommand,
    KvResponse, KvStatus, SecondaryIndexSpec, ShardId, ShipKind,
};
use kvcsd_sim::sync::{waits_under, Mutex, RwLock, Shared};
use kvcsd_sim::{BusResource, FaultInjector, FaultPlan, IoLedger, VirtualClock};

use crate::merge::merge;
use crate::replica::{ReplicaLog, ShipError, ShipOutcome};
use crate::shard::{HealthCell, ShardHealth, ShardInstance};
use crate::ClusterConfig;

/// What one export step took from a shard instance, to ship after the
/// caller's guard drops.
struct Export {
    /// `(keyspace name, artifacts)` in ship order.
    arts: Vec<(String, KeyspaceArtifacts)>,
    /// The exporting instance's epoch. Every ship of these artifacts
    /// carries it: a promotion landing between export and ship must not
    /// stamp the deposed instance's state with its successor's epoch.
    epoch: u64,
    /// The instance's injector powered off mid-export.
    died: bool,
}

/// One completed promotion, for reproducibility auditing: the torture
/// suite asserts that the same seed yields the identical event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    pub shard: ShardId,
    /// 1-based promotion count on this shard.
    pub generation: u32,
    /// Artifact sets installed from the replica log.
    pub replayed_artifacts: u32,
    /// Of those, sealed-log installs that were re-compacted during
    /// promotion (the mid-compaction death case).
    pub recompacted: u32,
    /// `true` when the old primary was deposed on *suspicion* (its
    /// replication link looked down) rather than observed dead. A
    /// suspected primary is kept around, fenced at the old epoch — the
    /// split-brain case the partition torture suite drives directly.
    pub suspected: bool,
}

/// Disposition of a shard-level error during cluster fan-out / polling;
/// see [`ClusterRouter::classify_shard_error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardErrorClass {
    /// The shard is mid-promotion: bounce to the client as retryable.
    Failover,
    /// The shard already applied this fan-out step (idempotent resend).
    AlreadyApplied,
    /// Transient overload: keep polling / resending.
    Transient,
    /// Permanent for this command.
    Permanent,
}

/// Which cluster-level job a client job id maps to.
#[derive(Debug, Clone)]
enum JobKind {
    Compact,
    Sidx(String),
}

#[derive(Debug, Clone)]
struct JobTarget {
    ks: u32,
    kind: JobKind,
}

/// One cluster-level keyspace and its per-shard local ids. The route
/// table shares each one behind an `Arc`, so a routed command borrows
/// its route instead of copying it; the rare writers (promotion, a new
/// index spec) copy on write.
#[derive(Debug, Clone)]
struct ClusterKeyspace {
    id: u32,
    name: String,
    /// `local[i]` is the keyspace id on shard `i`'s current primary;
    /// repointed on promotion.
    local: Vec<u32>,
    /// Secondary-index specs seen so far, recorded for merge ordering.
    specs: Vec<SecondaryIndexSpec>,
    /// `created[i]` is shard `i`'s replica-log seq at CREATE. A ship at
    /// or below it came from a deleted keyspace of the same name.
    created: Vec<u64>,
}

#[derive(Default)]
struct RouteTable {
    next_ks: u32,
    next_job: u64,
    keyspaces: HashMap<u32, Arc<ClusterKeyspace>>,
    by_name: HashMap<String, u32>,
    jobs: HashMap<u64, JobTarget>,
}

struct ShardState {
    id: ShardId,
    primary: RwLock<ShardInstance>,
    /// The previous primary after a *suspected* deposition (partition
    /// failover). It still executes commands — that is the point: its
    /// acks and ships must be rejected at the epoch fence, never by
    /// making the instance magically unreachable.
    deposed: Mutex<Option<ShardInstance>>,
    replica: ReplicaLog,
    /// This shard's replication-link fault injector. It belongs to the
    /// *link*, not the primary, so it survives promotions: a new primary
    /// inherits the same (possibly still partitioned) network.
    link: Arc<FaultInjector>,
    /// Current fencing epoch; minted (`+1`) at every promotion.
    epoch: Shared<u64>,
    /// Set when a ship gave up on a down link or a background job
    /// finished: the primary may hold artifacts the replica never saw.
    /// Cleared by a successful anti-entropy pass.
    needs_reconcile: Shared<bool>,
    health: HealthCell,
}

/// The router: N shards, a route table and a failover event log.
pub struct ClusterRouter {
    cfg: ClusterConfig,
    shards: Vec<ShardState>,
    fabric: Arc<IoLedger>,
    /// Router-side virtual time: every fan-out advances it by the
    /// *slowest* shard's busy delta, never the sum — the host drives all
    /// shards' queues concurrently (see [`ClusterRouter::drive_concurrent`]).
    host_clock: Arc<VirtualClock>,
    routes: Mutex<RouteTable>,
    events: Mutex<Vec<FailoverEvent>>,
}

impl ClusterRouter {
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.shards > 0, "a cluster needs at least one shard");
        if let crate::ShardStrategy::RangeKeys { boundaries } = &cfg.strategy {
            assert_eq!(
                boundaries.len() + 1,
                cfg.shards as usize,
                "range sharding needs exactly shards-1 boundaries"
            );
        }
        // One fabric ledger shared by every shard's bus, so aggregate
        // replication traffic is observable in one place.
        let fabric = Arc::new(IoLedger::new(cfg.shards, 4096));
        let shards = (0..cfg.shards)
            .map(|id| {
                // The link's fault lane is keyed per link id and draws
                // from its own generator, so the same fleet seed yields
                // the same device schedules with or without link faults.
                let link = Arc::new(FaultInjector::new(cfg.fault_plan.clone().for_link(id)));
                let bus =
                    BusResource::new(cfg.bus, Arc::clone(&fabric)).with_faults(Arc::clone(&link));
                ShardState {
                    id,
                    primary: RwLock::new(ShardInstance::build(&cfg, id, cfg.fault_plan.clone(), 1)),
                    deposed: Mutex::new(None),
                    replica: ReplicaLog::with_policy(
                        id,
                        bus,
                        Arc::new(VirtualClock::new()),
                        cfg.ship,
                    ),
                    link,
                    epoch: Shared::new(1),
                    needs_reconcile: Shared::new(false),
                    health: HealthCell::new(),
                }
            })
            .collect();
        Self {
            cfg,
            shards,
            fabric,
            host_clock: Arc::new(VirtualClock::new()),
            routes: Mutex::new(RouteTable::default()),
            events: Mutex::new(Vec::new()),
        }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Aggregate replication-fabric accounting (bus_bytes / bus_msgs /
    /// bus_busy_ns across every shard's channel).
    pub fn fabric_ledger(&self) -> &Arc<IoLedger> {
        &self.fabric
    }

    /// The router's own virtual clock. Each fan-out advances it by the
    /// slowest shard's busy-time delta, so it reads as the wall time of
    /// a host driving every shard's queue concurrently. A pipelined
    /// [`kvcsd_proto::QueuePair`] over the router uses it as its
    /// execution probe (`crates/bench/src/bin/ingest.rs`).
    pub fn host_clock(&self) -> &Arc<VirtualClock> {
        &self.host_clock
    }

    pub fn shard_health(&self, ix: u32) -> ShardHealth {
        self.shards[ix as usize].health.get()
    }

    /// The current primary's private virtual clock for shard `ix`.
    pub fn shard_clock(&self, ix: u32) -> Arc<VirtualClock> {
        Arc::clone(self.shards[ix as usize].primary.read().clock())
    }

    /// The current primary's I/O ledger for shard `ix`.
    pub fn shard_ledger(&self, ix: u32) -> Arc<IoLedger> {
        Arc::clone(self.shards[ix as usize].primary.read().ledger())
    }

    /// Ships currently held in shard `ix`'s replica log.
    pub fn replica_depth(&self, ix: u32) -> usize {
        self.shards[ix as usize].replica.len()
    }

    /// Shard `ix`'s replication channel — counters (`accepted` /
    /// `duplicates` / `fenced`), generations and the channel clock that
    /// ack timeouts are charged to.
    pub fn replica_log(&self, ix: u32) -> &ReplicaLog {
        &self.shards[ix as usize].replica
    }

    /// Shard `ix`'s current fencing epoch.
    pub fn shard_epoch(&self, ix: u32) -> u64 {
        self.shards[ix as usize].epoch.get()
    }

    /// The fault injector on shard `ix`'s replication link. Torture
    /// harness hook: partition (`partition_now`) / heal (`heal_link_now`)
    /// the link directly, or read its event log for determinism audits.
    pub fn shard_link(&self, ix: u32) -> Arc<FaultInjector> {
        Arc::clone(&self.shards[ix as usize].link)
    }

    /// Completed promotions, in order.
    pub fn events(&self) -> Vec<FailoverEvent> {
        self.events.lock().clone()
    }

    /// Run every healthy shard's deferred jobs; anti-entropy then ships
    /// what they built to the replica logs. Returns the number of jobs run.
    /// Models the device fleet's background processing; the router also
    /// grants background time on every `PollJob`, so a polling client
    /// makes progress without an external driver.
    pub fn run_background(&self) -> usize {
        self.drive_concurrent(&self.all_shards(), |ix| self.run_shard_background(ix))
            .into_iter()
            .sum()
    }

    /// Total busy virtual time shard `ix` has accumulated so far:
    /// device-side compute and transfer from the primary's ledger, its
    /// private clock, and the replication channel clock. Only *deltas*
    /// of this metric are meaningful — see [`ClusterRouter::drive_concurrent`].
    fn shard_busy_ns(&self, ix: usize) -> u64 {
        let st = &self.shards[ix];
        let inst_ns = {
            let inst = st.primary.read();
            let ledger = inst.ledger();
            inst.clock().now_ns() + ledger.host_cpu_ns() + ledger.device_busy_ns()
        };
        inst_ns + st.replica.clock().now_ns()
    }

    /// Run `f` once per shard in `shards` (in order, so results and
    /// errors keep shard-order semantics), then advance the router clock
    /// by the *maximum* per-shard busy delta: the host drives every
    /// shard's queue concurrently, so a fan-out costs the slowest
    /// shard's time, not the sum of all shards'.
    fn drive_concurrent<R>(&self, shards: &[usize], mut f: impl FnMut(usize) -> R) -> Vec<R> {
        let before: Vec<u64> = shards.iter().map(|&ix| self.shard_busy_ns(ix)).collect();
        let out: Vec<R> = shards.iter().map(|&ix| f(ix)).collect();
        let worst = shards
            .iter()
            .zip(&before)
            .map(|(&ix, &b)| self.shard_busy_ns(ix).saturating_sub(b))
            .max()
            .unwrap_or(0);
        self.host_clock.advance(worst);
        out
    }

    fn run_shard_background(&self, ix: usize) -> usize {
        let st = &self.shards[ix];
        if st.health.get() != ShardHealth::Healthy {
            return 0;
        }
        let (ran, died) = {
            let inst = st.primary.read();
            let ran = if inst.device().pending_jobs() > 0 {
                inst.device().run_pending_jobs()
            } else {
                0
            };
            (ran, inst.injector().is_powered_off())
        };
        // The guard is dropped before promotion: the RwLock shim is not
        // reentrant and failover takes the write side.
        if died {
            self.failover(ix, false);
        } else if ran > 0 && self.cfg.replicate {
            // Anti-entropy below ships what the job built.
            st.needs_reconcile.set(true);
        }
        // Anti-entropy rides on background time: a polling client probes
        // a downed link and, once it is back, drives the replica into
        // convergence without any external daemon.
        if st.needs_reconcile.get() {
            self.reconcile_shard(ix);
        }
        ran
    }

    /// Anti-entropy for every shard: exchange per-keyspace artifact
    /// generations with each replica and re-ship only the gaps. Returns
    /// the number of artifacts re-shipped. A shard whose link is down
    /// loses its exchange — a later pass retries it.
    pub fn reconcile(&self) -> usize {
        let mut shipped = 0;
        for ix in 0..self.shards.len() {
            shipped += self.reconcile_shard(ix);
        }
        shipped
    }

    fn reconcile_shard(&self, ix: usize) -> usize {
        let st = &self.shards[ix];
        if !self.cfg.replicate || st.health.get() != ShardHealth::Healthy {
            return 0;
        }
        let Some(export) = self.replica_gaps(ix, self.keyspaces_on(ix)) else {
            return 0;
        };
        // A death is left for the next routed command to find.
        match self.ship_exports(st, export) {
            Ok(shipped) => {
                st.needs_reconcile.set(false);
                shipped
            }
            // The link went down again mid-pass: the flag stays set and
            // a later pass retries.
            Err(shipped) => shipped,
        }
    }

    /// Anti-entropy's check: exchange generations with shard `ix`'s
    /// replica and export those of `targets` (name to local id and
    /// creation seq) whose artifact fingerprint the replica lacks. `None`
    /// means the exchange was lost, and the shard stays flagged for a
    /// later pass.
    fn replica_gaps(&self, ix: usize, targets: BTreeMap<String, (u32, u64)>) -> Option<Export> {
        let st = &self.shards[ix];
        // The generation digest itself crosses the (still unreliable)
        // bus; a lost exchange just means a later pass retries. It is
        // also the probe of a partitioned link: the attempt counts
        // toward a scheduled heal, so background passes end the window
        // even when nothing else is sent.
        let Some(mut gens) = st.replica.exchange_generations() else {
            st.needs_reconcile.set(true);
            return None;
        };
        // A generation shipped before its keyspace's creation is absent.
        gens.retain(|g| targets.get(&g.0).is_some_and(|&(_, c)| g.4 > c));
        let locals = targets.into_iter().map(|(n, (l, _))| (n, l));
        let mut export = Self::export(&st.primary.read(), locals);
        // Compare the primary's artifact fingerprint against the
        // replica's generation; only mismatches re-ship.
        export.arts.retain(|(name, art)| {
            let have = gens.iter().find(|g| &g.0 == name).map(|g| (g.1, g.2, g.3));
            have != Some((art.ship_kind(), art.wire_bytes(), art.pairs))
        });
        Some(export)
    }

    /// Ship one keyspace's sealed logs right after a successful seal.
    /// This gates the compaction ack: `Ok` means the artifacts are in the
    /// replica log (or replication is off); an `Err` is always retryable
    /// and means the caller must NOT ack durability to the client.
    fn ship_sealed(&self, ix: usize, name: &str, local: u32) -> Result<(), KvStatus> {
        if !self.cfg.replicate {
            return Ok(());
        }
        // An empty keyspace seals to nothing exportable; that is not a
        // death, just nothing to ship.
        let export = Self::export(&self.shards[ix].primary.read(), [(name.to_string(), local)]);
        self.gate_on_ship(ix, export)
    }

    /// The seal-time ship for a resent COMPACT the shard had already
    /// sealed: the first attempt's ship may have been lost, so ship the
    /// keyspace if the replica lacks its generation. It is anti-entropy's
    /// check, so nothing ships twice. A lost exchange proves nothing
    /// either way, so it bounces the ack without deposing: the primary
    /// may be one promoted from the very replica it cannot reach.
    fn reship_sealed(&self, ix: usize, ck: &ClusterKeyspace) -> Result<(), KvStatus> {
        if !self.cfg.replicate {
            return Ok(());
        }
        let target = BTreeMap::from([(ck.name.clone(), (ck.local[ix], ck.created[ix]))]);
        match self.replica_gaps(ix, target) {
            Some(export) => self.gate_on_ship(ix, export),
            None => Err(KvStatus::TransientDeviceError(format!(
                "shard {}: replication link down, seal not confirmed",
                self.shards[ix].id
            ))),
        }
    }

    /// Ship `export` and turn the outcome into the compaction ack's
    /// verdict.
    fn gate_on_ship(&self, ix: usize, export: Export) -> Result<(), KvStatus> {
        let st = &self.shards[ix];
        if export.died {
            self.failover(ix, false);
            return Err(KvStatus::FailoverInProgress { shard: st.id });
        }
        if self.ship_exports(st, export).is_ok() {
            return Ok(());
        }
        if self.cfg.partition_failover {
            // The primary cannot prove durability across the partition.
            // Depose it on suspicion and promote the replica side under a
            // new fencing epoch; the client's resend lands on the new
            // primary.
            self.failover(ix, true);
            return Err(KvStatus::FailoverInProgress { shard: st.id });
        }
        // Availability mode: keep the primary, bounce the ack as
        // retryable. Anti-entropy re-ships after heal.
        Err(KvStatus::TransientDeviceError(format!(
            "shard {}: replication link down, seal not replicated",
            st.id
        )))
    }

    /// Every cluster keyspace on shard `ix` by name, with its local id
    /// and creation seq. Name order: the link lane draws faults per bus
    /// op, so the ship order must not depend on hash-map iteration order.
    fn keyspaces_on(&self, ix: usize) -> BTreeMap<String, (u32, u64)> {
        let routes = self.routes.lock();
        routes
            .keyspaces
            .values()
            .map(|ck| (ck.name.clone(), (ck.local[ix], ck.created[ix])))
            .collect()
    }

    /// The export step: export `targets` from `inst` in order, under
    /// whichever guard the caller holds on it (a `primary.read()` passed
    /// in as a temporary drops at the end of the caller's statement,
    /// before any ship). A keyspace with nothing to export is skipped; an
    /// export that fails on a powered-off injector ends the pass as a
    /// death.
    fn export(inst: &ShardInstance, targets: impl IntoIterator<Item = (String, u32)>) -> Export {
        let mut export = Export {
            arts: Vec::new(),
            epoch: inst.epoch(),
            died: false,
        };
        for (name, local) in targets {
            match inst.device().export_keyspace_artifacts(local) {
                Ok(art) => export.arts.push((name, art)),
                Err(_) if inst.injector().is_powered_off() => {
                    export.died = true;
                    break;
                }
                Err(_) => {}
            }
        }
        export
    }

    /// The ship step, run after the exporting guard dropped — a ship
    /// occupies the fabric bus (a charged wait), and holding the shard
    /// lock across it would stall every command routed at this shard.
    /// Ships each export in order under the exporter's epoch and stops at
    /// the first `LinkDown`, flagging the gap for anti-entropy. Returns
    /// how many shipped: `Ok` when all did, `Err` when the link went down.
    fn ship_exports(&self, st: &ShardState, export: Export) -> Result<usize, usize> {
        let total = export.arts.len();
        for (shipped, (name, art)) in export.arts.into_iter().enumerate() {
            if let Err(ShipError::LinkDown { .. }) = st.replica.ship(&name, art, export.epoch) {
                st.needs_reconcile.set(true);
                return Err(shipped);
            }
        }
        Ok(total)
    }

    /// Promote shard `ix`'s replica under a freshly minted fencing epoch.
    /// Exactly one caller wins the CAS; the rest observe `FailingOver`
    /// and bounce their commands. `suspected` marks a partition
    /// deposition: the old primary is not dead, so it is kept around
    /// (fenced at its stale epoch) instead of dropped.
    fn failover(&self, ix: usize, suspected: bool) {
        let st = &self.shards[ix];
        if !st.health.begin_failover() {
            return;
        }
        if !self.cfg.replicate {
            st.health.set(ShardHealth::Dead);
            return;
        }
        // Mint the successor epoch *before* building the successor: from
        // here on, every ack and ship from the old primary is fenced.
        let epoch = st.epoch.update(|e| {
            *e += 1;
            *e
        });
        // Raise the replica's receive fence immediately: even if nothing
        // reseeds below (empty log at deposition), the old primary's
        // ships must already be stale.
        st.replica.advance_epoch(epoch);
        // The dead hardware is replaced, so the promoted instance runs a
        // clean fault plan: the fleet schedule kills each primary once.
        // The replication *link* keeps its injector — a new device does
        // not repair the network.
        let fresh = ShardInstance::build(&self.cfg, st.id, FaultPlan::none(), epoch);
        let mut replayed = 0u32;
        let mut recompacted = 0u32;
        let mut installed: BTreeMap<String, u32> = BTreeMap::new();
        let routed = self.keyspaces_on(ix);
        for (ship, art) in st.replica.latest_per_keyspace() {
            // A deleted keyspace's ships stay in the log until the reseed
            // below; they must not come back under a re-created name.
            match routed.get(&ship.keyspace) {
                Some(&(_, created)) if ship.seq > created => {}
                _ => continue,
            }
            let Ok(local) = fresh.device().import_keyspace_artifacts(&art) else {
                continue;
            };
            replayed += 1;
            installed.insert(art.name.clone(), local);
            if matches!(ship.kind, ShipKind::SealedLogs) {
                // Sealed logs install DEGRADED; promotion re-runs the
                // compaction through the checked DEGRADED -> COMPACTING
                // edge so the shard comes back queryable.
                if let KvResponse::JobStarted { .. } =
                    fresh.device().handle(KvCommand::Compact { ks: local })
                {
                    fresh.device().run_pending_jobs();
                    recompacted += 1;
                }
            }
        }
        // Keyspaces that never shipped anything come back empty: their
        // acked PUTs were device-buffered only, which is exactly the
        // single-device (no-WAL) durability contract.
        for name in routed.into_keys() {
            if let Entry::Vacant(slot) = installed.entry(name) {
                let name = slot.key().clone();
                if let KvResponse::Created { ks } =
                    fresh.device().handle(KvCommand::CreateKeyspace { name })
                {
                    slot.insert(ks);
                }
            }
        }
        // Re-seed the replica log from the promoted primary so a second
        // death on this shard still has artifacts to replay. This is a
        // *local* install at the new epoch — the promoted primary is on
        // the replica's side of any partition, so no wire crossing and no
        // fault exposure. The fence itself survives the clear, keeping
        // the deposed primary's ships rejected.
        st.replica.clear();
        let reseed = Self::export(&fresh, installed.iter().map(|(n, l)| (n.clone(), *l)));
        for (name, art) in reseed.arts {
            st.replica.reseed(&name, art, reseed.epoch);
        }
        {
            let mut routes = self.routes.lock();
            for ck in routes.keyspaces.values_mut() {
                if let Some(local) = installed.get(&ck.name) {
                    Arc::make_mut(ck).local[ix] = *local;
                }
            }
        }
        let old = std::mem::replace(&mut *st.primary.write(), fresh);
        // A suspected primary is alive on the far side of the partition;
        // keep it so tests (and honesty) can drive the split-brain case.
        // A dead one is gone hardware.
        *st.deposed.lock() = if suspected { Some(old) } else { None };
        let generation = st.health.bump_generation();
        self.events.lock().push(FailoverEvent {
            shard: st.id,
            generation,
            replayed_artifacts: replayed,
            recompacted,
            suspected,
        });
        st.health.set(ShardHealth::Healthy);
    }

    /// Execute one command on shard `ix`, translating shard death into
    /// the cluster-level statuses.
    fn exec_on(&self, ix: usize, cmd: KvCommand) -> Result<KvResponse, KvStatus> {
        let st = &self.shards[ix];
        match st.health.get() {
            ShardHealth::Healthy => {}
            ShardHealth::FailingOver => {
                return Err(KvStatus::FailoverInProgress { shard: st.id });
            }
            ShardHealth::Dead => return Err(KvStatus::ShardUnavailable { shard: st.id }),
        }
        let inst = st.primary.read();
        let (resp, died) = waits_under(
            "a failover's write lock waits for the commands in flight on the primary",
            || Self::handle_fenced(st, &inst, cmd),
        );
        drop(inst);
        if died {
            self.failover(ix, false);
            return Err(if self.cfg.replicate {
                KvStatus::FailoverInProgress { shard: st.id }
            } else {
                KvStatus::ShardUnavailable { shard: st.id }
            });
        }
        resp
    }

    /// Execute `cmd` on `inst` (shard `st`'s primary, or its deposed
    /// ex-primary) and apply the ack fence: the command executed, but if
    /// a promotion minted a newer epoch meanwhile, this instance is
    /// deposed and its ack must not reach the client. Also reports
    /// whether the instance died.
    fn handle_fenced(
        st: &ShardState,
        inst: &ShardInstance,
        cmd: KvCommand,
    ) -> (Result<KvResponse, KvStatus>, bool) {
        let resp = inst.device().handle(cmd);
        let died = matches!(resp, KvResponse::Err(KvStatus::PowerLoss))
            || inst.injector().is_powered_off();
        if inst.epoch() != st.epoch.get() {
            return (Err(KvStatus::EpochFenced { shard: st.id }), died);
        }
        (resp.into_result(), died)
    }

    fn shard_count(&self) -> u32 {
        self.cfg.shards
    }

    fn all_shards(&self) -> Vec<usize> {
        (0..self.shards.len()).collect()
    }

    /// How a shard-level status error affects a cluster-level fan-out or
    /// job poll. The match is deliberately exhaustive *by name* over
    /// every [`KvStatus`] variant (rustc rejects a missing one; the
    /// denied `clippy::wildcard_enum_match_arm` rejects a `_` or binding
    /// catch-all): a new wire status must be placed here consciously,
    /// not fall into a catch-all arm that silently retries or fails it.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn classify_shard_error(e: &KvStatus) -> ShardErrorClass {
        match e {
            // Mid-promotion (or a stale-epoch ack rejected at the
            // fence): surface immediately so the client's fail-fast
            // resend lands on the current-epoch primary.
            KvStatus::FailoverInProgress { .. } | KvStatus::EpochFenced { .. } => {
                ShardErrorClass::Failover
            }
            // Re-submission after a mid-fanout failover: the shard
            // already applied this step (sealed, or built the index), so
            // the fan-out may treat it as done.
            KvStatus::BadKeyspaceState { .. } | KvStatus::IndexExists => {
                ShardErrorClass::AlreadyApplied
            }
            // Transient overload/backoff signals: the work is not lost,
            // the next poll or resend may find it finished.
            KvStatus::Busy | KvStatus::Stalled | KvStatus::TransientDeviceError(_) => {
                ShardErrorClass::Transient
            }
            // Everything else is permanent for this command.
            KvStatus::KeyspaceNotFound
            | KvStatus::KeyspaceExists
            | KvStatus::KeyNotFound
            | KvStatus::BadKey
            | KvStatus::BadValue
            | KvStatus::IndexNotFound
            | KvStatus::BadIndexSpec
            | KvStatus::JobNotFound
            | KvStatus::DeviceFull
            | KvStatus::DeadlineExceeded
            | KvStatus::MediaError(_)
            | KvStatus::PowerLoss
            | KvStatus::ShardUnavailable { .. }
            | KvStatus::Internal(_) => ShardErrorClass::Permanent,
        }
    }

    fn lookup(&self, ks: u32) -> Result<Arc<ClusterKeyspace>, KvStatus> {
        self.routes
            .lock()
            .keyspaces
            .get(&ks)
            .map(Arc::clone)
            .ok_or(KvStatus::KeyspaceNotFound)
    }

    /// Shards whose key span can intersect `[lo, hi]`. Hash sharding
    /// scatters everywhere; range sharding prunes non-covering shards so
    /// a stalled shard never sees (or stalls) other key ranges' queries.
    fn shards_for_range(&self, lo: &Bound, hi: &Bound) -> Vec<usize> {
        let n = self.shard_count() as usize;
        match &self.cfg.strategy {
            crate::ShardStrategy::HashKeys => self.all_shards(),
            crate::ShardStrategy::RangeKeys { boundaries } => (0..n)
                .filter(|&i| {
                    // Shard i spans [boundaries[i-1], boundaries[i]).
                    let disjoint_above = i > 0 && !hi.admits_from_above(&boundaries[i - 1]);
                    let disjoint_below = i < n - 1
                        && match lo {
                            Bound::Unbounded => false,
                            Bound::Included(k) | Bound::Excluded(k) => k >= &boundaries[i],
                        };
                    !disjoint_above && !disjoint_below
                })
                .collect(),
        }
    }

    fn agg_state(states: &[KeyspaceState]) -> KeyspaceState {
        // Worst-first: a cluster keyspace is only as healthy as its most
        // troubled shard, and only writable/queryable if all shards are.
        let rank = |s: &KeyspaceState| match s {
            KeyspaceState::Degraded => 0,
            KeyspaceState::ReadOnly => 1,
            KeyspaceState::Compacting => 2,
            KeyspaceState::Writable => 3,
            KeyspaceState::Compacted => 4,
            KeyspaceState::Empty => 5,
        };
        states
            .iter()
            .min_by_key(|s| rank(s))
            .copied()
            .unwrap_or(KeyspaceState::Empty)
    }

    fn wrap(deadline_ns: Option<u64>, cmd: KvCommand) -> KvCommand {
        match deadline_ns {
            Some(deadline_ns) => KvCommand::WithDeadline {
                deadline_ns,
                cmd: Box::new(cmd),
            },
            None => cmd,
        }
    }

    // ---- command implementations ------------------------------------------

    fn do_create(&self, name: &str) -> Result<KvResponse, KvStatus> {
        if self.routes.lock().by_name.contains_key(name) {
            return Err(KvStatus::KeyspaceExists);
        }
        let mut local = Vec::with_capacity(self.shard_count() as usize);
        for ix in 0..self.shard_count() as usize {
            let id = match self.exec_on(
                ix,
                KvCommand::CreateKeyspace {
                    name: name.to_string(),
                },
            ) {
                Ok(KvResponse::Created { ks }) => ks,
                // A retry after a partial failure finds the keyspace
                // already present on early shards: recover its id and
                // keep going — cluster-level creation is idempotent.
                Err(KvStatus::KeyspaceExists) => match self.exec_on(
                    ix,
                    KvCommand::OpenKeyspace {
                        name: name.to_string(),
                    },
                )? {
                    KvResponse::Opened { ks, .. } => ks,
                    other => return Err(unexpected(&other)),
                },
                Ok(other) => return Err(unexpected(&other)),
                Err(e) => return Err(e),
            };
            local.push(id);
        }
        let created = self.shards.iter().map(|st| st.replica.last_seq()).collect();
        let mut routes = self.routes.lock();
        let id = routes.next_ks;
        routes.next_ks += 1;
        routes.by_name.insert(name.to_string(), id);
        routes.keyspaces.insert(
            id,
            Arc::new(ClusterKeyspace {
                id,
                name: name.to_string(),
                local,
                specs: Vec::new(),
                created,
            }),
        );
        Ok(KvResponse::Created { ks: id })
    }

    fn do_open(&self, name: &str) -> Result<KvResponse, KvStatus> {
        let id = {
            let routes = self.routes.lock();
            *routes.by_name.get(name).ok_or(KvStatus::KeyspaceNotFound)?
        };
        let stat = self.do_stat(id)?;
        match stat {
            KvResponse::Stat(s) => Ok(KvResponse::Opened {
                ks: id,
                state: s.state,
            }),
            other => Err(unexpected(&other)),
        }
    }

    fn do_delete_ks(&self, ks: u32) -> Result<KvResponse, KvStatus> {
        let ck = self.lookup(ks)?;
        for ix in 0..self.shard_count() as usize {
            match self.exec_on(ix, KvCommand::DeleteKeyspace { ks: ck.local[ix] }) {
                Ok(_) | Err(KvStatus::KeyspaceNotFound) => {}
                Err(e) => return Err(e),
            }
        }
        let mut routes = self.routes.lock();
        routes.by_name.remove(&ck.name);
        routes.keyspaces.remove(&ks);
        Ok(KvResponse::Deleted)
    }

    fn do_list(&self) -> Result<KvResponse, KvStatus> {
        let mut cks: Vec<Arc<ClusterKeyspace>> =
            self.routes.lock().keyspaces.values().cloned().collect();
        cks.sort_unstable_by_key(|ck| ck.id);
        let mut out = Vec::with_capacity(cks.len());
        for ck in cks {
            let mut states = Vec::new();
            for ix in 0..self.shard_count() as usize {
                if let Ok(KvResponse::Stat(s)) =
                    self.exec_on(ix, KvCommand::Stat { ks: ck.local[ix] })
                {
                    states.push(s.state);
                }
            }
            out.push(KeyspaceDesc {
                id: ck.id,
                name: ck.name.clone(),
                state: Self::agg_state(&states),
            });
        }
        Ok(KvResponse::Keyspaces(out))
    }

    fn do_bulk_put(
        &self,
        deadline_ns: Option<u64>,
        ck: &ClusterKeyspace,
        payload: kvcsd_proto::BulkPayload,
    ) -> Result<KvResponse, KvStatus> {
        let n = self.shard_count();
        let mut per_shard: Vec<Vec<(&[u8], &[u8])>> = vec![Vec::new(); n as usize];
        for (k, v) in payload.iter() {
            let ix = self.cfg.strategy.shard_for(k, n) as usize;
            per_shard[ix].push((k, v));
        }
        // Scatter to every covered shard concurrently — the write costs
        // the slowest shard's time — then gather counts (first error in
        // shard order wins).
        let covered: Vec<usize> = (0..n as usize)
            .filter(|&ix| !per_shard[ix].is_empty())
            .collect();
        let results = self.drive_concurrent(&covered, |ix| -> Result<u64, KvStatus> {
            let pairs = std::mem::take(&mut per_shard[ix]);
            let mut sent = 0u64;
            let mut b = kvcsd_proto::BulkBuilder::default_size();
            for (k, v) in pairs {
                if !b.push(k, v) {
                    // Sub-message full: flush it and continue packing.
                    sent += self.send_bulk(deadline_ns, ix, ck.local[ix], b)?;
                    b = kvcsd_proto::BulkBuilder::default_size();
                    if !b.push(k, v) {
                        return Err(KvStatus::BadValue);
                    }
                }
            }
            sent += self.send_bulk(deadline_ns, ix, ck.local[ix], b)?;
            Ok(sent)
        });
        let mut inserted = 0u64;
        for sent in results {
            inserted += sent?;
        }
        Ok(KvResponse::BulkPutOk { inserted })
    }

    fn send_bulk(
        &self,
        deadline_ns: Option<u64>,
        ix: usize,
        local: u32,
        b: kvcsd_proto::BulkBuilder,
    ) -> Result<u64, KvStatus> {
        if b.is_empty() {
            return Ok(0);
        }
        match self.exec_on(
            ix,
            Self::wrap(
                deadline_ns,
                KvCommand::BulkPut {
                    ks: local,
                    payload: b.finish(),
                },
            ),
        )? {
            KvResponse::BulkPutOk { inserted } => Ok(inserted),
            other => Err(unexpected(&other)),
        }
    }

    /// Fan a job-starting command out to every shard, ship the sealed
    /// artifacts, and hand back one cluster-level job id.
    fn do_cluster_job(
        &self,
        deadline_ns: Option<u64>,
        ks: u32,
        kind: JobKind,
        make: impl Fn(u32) -> KvCommand,
        ship_after: bool,
    ) -> Result<KvResponse, KvStatus> {
        let ck = self.lookup(ks)?;
        for ix in 0..self.shard_count() as usize {
            match self.exec_on(ix, Self::wrap(deadline_ns, make(ck.local[ix]))) {
                Ok(KvResponse::JobStarted { .. }) => {
                    // The seal-time ship gates the ack: a client must
                    // never see this job as started-and-durable unless
                    // the sealed artifacts reached the replica log.
                    if ship_after {
                        self.ship_sealed(ix, &ck.name, ck.local[ix])?;
                    }
                }
                // The job-state poll is derived from keyspace states, so
                // treating an already-applied resend as started is safe
                // and idempotent.
                Ok(_) => {}
                Err(e) => match Self::classify_shard_error(&e) {
                    // A resend: the seal ran, but its ship may not have.
                    ShardErrorClass::AlreadyApplied if ship_after => self.reship_sealed(ix, &ck)?,
                    ShardErrorClass::AlreadyApplied => {}
                    ShardErrorClass::Failover
                    | ShardErrorClass::Transient
                    | ShardErrorClass::Permanent => return Err(e),
                },
            }
        }
        let mut routes = self.routes.lock();
        routes.next_job += 1;
        let id = routes.next_job;
        routes.jobs.insert(id, JobTarget { ks, kind });
        Ok(KvResponse::JobStarted { job: JobId(id) })
    }

    /// Cluster jobs are polled by *deriving* progress from per-shard
    /// keyspace states instead of tracking per-device job ids — device
    /// job tables die with their primary, keyspace states survive
    /// promotion. Each poll also grants the fleet background time, so a
    /// polling client drives its own jobs to completion.
    fn do_poll(&self, job: u64) -> Result<KvResponse, KvStatus> {
        let target = self
            .routes
            .lock()
            .jobs
            .get(&job)
            .cloned()
            .ok_or(KvStatus::JobNotFound)?;
        self.run_background();
        let ck = self.lookup(target.ks)?;
        let mut worst: Option<KvStatus> = None;
        let mut running = false;
        let mut missing_index = false;
        let results = self.drive_concurrent(&self.all_shards(), |ix| {
            self.exec_on(ix, KvCommand::Stat { ks: ck.local[ix] })
        });
        for (ix, resp) in results.into_iter().enumerate() {
            let stat = match resp {
                Ok(KvResponse::Stat(s)) => s,
                Ok(other) => return Err(unexpected(&other)),
                Err(e) => match Self::classify_shard_error(&e) {
                    ShardErrorClass::Failover => return Err(e),
                    // A transiently overloaded shard has not failed the
                    // job — the next poll re-examines it.
                    ShardErrorClass::Transient => {
                        running = true;
                        continue;
                    }
                    ShardErrorClass::AlreadyApplied | ShardErrorClass::Permanent => {
                        worst = Some(e);
                        continue;
                    }
                },
            };
            match stat.state {
                KeyspaceState::Degraded => {
                    worst = Some(KvStatus::MediaError(format!(
                        "shard {ix}: compaction left keyspace degraded"
                    )));
                }
                KeyspaceState::ReadOnly => {
                    worst = Some(KvStatus::DeviceFull);
                }
                KeyspaceState::Compacting | KeyspaceState::Writable => running = true,
                KeyspaceState::Compacted | KeyspaceState::Empty => {
                    if let JobKind::Sidx(name) = &target.kind {
                        if stat.state == KeyspaceState::Compacted
                            && !stat.secondary_indexes.iter().any(|n| n == name)
                        {
                            missing_index = true;
                        }
                    }
                }
            }
        }
        let state = if let Some(e) = worst {
            JobState::Failed(e)
        } else if running || missing_index {
            JobState::Running
        } else {
            JobState::Done
        };
        Ok(KvResponse::Job { state })
    }

    /// Scatter an entry query to `shards` and [`merge`] the answers in
    /// `order`, keeping the first `limit`.
    fn do_scatter_entries(
        &self,
        ck: &ClusterKeyspace,
        shards: &[usize],
        order: Option<&SecondaryIndexSpec>,
        limit: Option<u64>,
        make: impl Fn(u32) -> KvCommand,
    ) -> Result<KvResponse, KvStatus> {
        // Every covering shard is driven concurrently (router time is
        // the slowest shard's); errors still surface in shard order.
        let results = self.drive_concurrent(shards, |ix| self.exec_on(ix, make(ck.local[ix])));
        let mut parts = Vec::with_capacity(results.len());
        for resp in results {
            match resp? {
                KvResponse::Entries(es) => parts.push(es),
                other => return Err(unexpected(&other)),
            }
        }
        Ok(KvResponse::Entries(merge(parts, order, limit)))
    }

    /// Route a point command to the shard owning `key`.
    fn exec_point(
        &self,
        deadline_ns: Option<u64>,
        ks: u32,
        key: Vec<u8>,
        make: impl FnOnce(u32, Vec<u8>) -> KvCommand,
    ) -> Result<KvResponse, KvStatus> {
        let ck = self.lookup(ks)?;
        let ix = self.cfg.strategy.shard_for(&key, self.shard_count()) as usize;
        self.exec_on(ix, Self::wrap(deadline_ns, make(ck.local[ix], key)))
    }

    /// Record `specs` on cluster keyspace `ks`, for merge ordering.
    fn record_specs(&self, ks: u32, specs: &[SecondaryIndexSpec]) {
        let mut routes = self.routes.lock();
        if let Some(ck) = routes.keyspaces.get_mut(&ks) {
            for spec in specs {
                if !ck.specs.iter().any(|s| s.name == spec.name) {
                    Arc::make_mut(ck).specs.push(spec.clone());
                }
            }
        }
    }

    fn do_stat(&self, ks: u32) -> Result<KvResponse, KvStatus> {
        let ck = self.lookup(ks)?;
        let mut states = Vec::new();
        let mut num_pairs = 0u64;
        let mut data_bytes = 0u64;
        let mut min_key: Option<Vec<u8>> = None;
        let mut max_key: Option<Vec<u8>> = None;
        let mut secondary: Vec<String> = Vec::new();
        let results = self.drive_concurrent(&self.all_shards(), |ix| {
            self.exec_on(ix, KvCommand::Stat { ks: ck.local[ix] })
        });
        for resp in results {
            let s = match resp? {
                KvResponse::Stat(s) => s,
                other => return Err(unexpected(&other)),
            };
            states.push(s.state);
            num_pairs += s.num_pairs;
            data_bytes += s.data_bytes;
            min_key = match (min_key, s.min_key) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            max_key = match (max_key, s.max_key) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            for n in s.secondary_indexes {
                if !secondary.contains(&n) {
                    secondary.push(n);
                }
            }
        }
        secondary.sort_unstable();
        Ok(KvResponse::Stat(KeyspaceStat {
            id: ck.id,
            name: ck.name.clone(),
            state: Self::agg_state(&states),
            num_pairs,
            min_key,
            max_key,
            secondary_indexes: secondary,
            data_bytes,
        }))
    }

    fn dispatch(&self, cmd: KvCommand) -> Result<KvResponse, KvStatus> {
        let (deadline_ns, cmd) = cmd.unwrap_deadline();
        match cmd {
            KvCommand::CreateKeyspace { name } => self.do_create(&name),
            KvCommand::OpenKeyspace { name } => self.do_open(&name),
            KvCommand::ListKeyspaces => self.do_list(),
            KvCommand::DeleteKeyspace { ks } => self.do_delete_ks(ks),
            KvCommand::Put { ks, key, value } => {
                self.exec_point(deadline_ns, ks, key, |ks, key| KvCommand::Put {
                    ks,
                    key,
                    value,
                })
            }
            KvCommand::BulkPut { ks, payload } => {
                let ck = self.lookup(ks)?;
                self.do_bulk_put(deadline_ns, &ck, payload)
            }
            KvCommand::Flush { ks } => {
                let ck = self.lookup(ks)?;
                for ix in 0..self.shards.len() {
                    self.exec_on(
                        ix,
                        Self::wrap(deadline_ns, KvCommand::Flush { ks: ck.local[ix] }),
                    )?;
                }
                Ok(KvResponse::Flushed)
            }
            KvCommand::Compact { ks } => self.do_cluster_job(
                deadline_ns,
                ks,
                JobKind::Compact,
                |local| KvCommand::Compact { ks: local },
                true,
            ),
            KvCommand::CompactAndIndex { ks, specs } => {
                self.record_specs(ks, &specs);
                self.do_cluster_job(
                    deadline_ns,
                    ks,
                    JobKind::Compact,
                    move |local| KvCommand::CompactAndIndex {
                        ks: local,
                        specs: specs.clone(),
                    },
                    true,
                )
            }
            KvCommand::BuildSecondaryIndex { ks, spec } => {
                self.record_specs(ks, std::slice::from_ref(&spec));
                self.do_cluster_job(
                    deadline_ns,
                    ks,
                    JobKind::Sidx(spec.name.clone()),
                    move |local| KvCommand::BuildSecondaryIndex {
                        ks: local,
                        spec: spec.clone(),
                    },
                    false,
                )
            }
            KvCommand::PollJob { job } => self.do_poll(job.0),
            KvCommand::Get { ks, key } => {
                self.exec_point(deadline_ns, ks, key, |ks, key| KvCommand::Get { ks, key })
            }
            KvCommand::Range { ks, lo, hi, limit } => {
                let ck = self.lookup(ks)?;
                let shards = self.shards_for_range(&lo, &hi);
                self.do_scatter_entries(&ck, &shards, None, limit, |local| {
                    Self::wrap(
                        deadline_ns,
                        KvCommand::Range {
                            ks: local,
                            lo: lo.clone(),
                            hi: hi.clone(),
                            limit,
                        },
                    )
                })
            }
            KvCommand::SidxGet { ks, index, key } => {
                let ck = self.lookup(ks)?;
                let spec = ck.specs.iter().find(|s| s.name == index);
                self.do_scatter_entries(&ck, &self.all_shards(), spec, None, |local| {
                    Self::wrap(
                        deadline_ns,
                        KvCommand::SidxGet {
                            ks: local,
                            index: index.clone(),
                            key: key.clone(),
                        },
                    )
                })
            }
            KvCommand::SidxRange {
                ks,
                index,
                lo,
                hi,
                limit,
            } => {
                let ck = self.lookup(ks)?;
                let spec = ck.specs.iter().find(|s| s.name == index);
                // Secondary keys are unrelated to the primary sharding
                // axis, so a secondary query always scatters everywhere.
                self.do_scatter_entries(&ck, &self.all_shards(), spec, limit, |local| {
                    Self::wrap(
                        deadline_ns,
                        KvCommand::SidxRange {
                            ks: local,
                            index: index.clone(),
                            lo: lo.clone(),
                            hi: hi.clone(),
                            limit,
                        },
                    )
                })
            }
            KvCommand::Stat { ks } => self.do_stat(ks),
            KvCommand::WithDeadline { .. } => {
                unreachable!("unwrap_deadline flattens nesting")
            }
        }
    }
}

fn unexpected(resp: &KvResponse) -> KvStatus {
    KvStatus::Internal(format!("unexpected shard response: {resp:?}"))
}

impl DeviceHandler for ClusterRouter {
    fn handle(&self, cmd: KvCommand) -> KvResponse {
        match self.dispatch(cmd) {
            Ok(resp) => resp,
            Err(e) => KvResponse::Err(e),
        }
    }
}

// Promoted devices are reachable through the router only; tests reach a
// shard's device directly to assert internals.
impl ClusterRouter {
    /// Test/inspection handle on shard `ix`'s current primary device.
    pub fn with_shard_device<R>(&self, ix: u32, f: impl FnOnce(&KvCsdDevice) -> R) -> R {
        let inst = self.shards[ix as usize].primary.read();
        f(inst.device())
    }

    /// The fault injector attached to shard `ix`'s current primary.
    /// Torture harness hook: lets a test cut power directly and watch the
    /// router discover the death on the next routed command.
    pub fn shard_injector(&self, ix: u32) -> Arc<kvcsd_sim::FaultInjector> {
        Arc::clone(self.shards[ix as usize].primary.read().injector())
    }

    /// Cut power to shard `ix`'s primary at its next flash operation.
    /// Torture harness hook: deterministic alternative to probability
    /// plans when a test wants to kill a specific shard at a specific
    /// point.
    pub fn kill_shard(&self, ix: u32) {
        // A plan-driven injector may already have powered off; either
        // way this call observes the death.
        let st = &self.shards[ix as usize];
        st.primary.read().injector().power_off_now();
        self.failover(ix as usize, false);
    }

    /// Whether shard `ix` currently holds a deposed (suspected, fenced)
    /// ex-primary.
    pub fn has_deposed(&self, ix: u32) -> bool {
        self.shards[ix as usize].deposed.lock().is_some()
    }

    /// Test/inspection handle on shard `ix`'s deposed ex-primary.
    pub fn with_deposed_device<R>(&self, ix: u32, f: impl FnOnce(&KvCsdDevice) -> R) -> Option<R> {
        let deposed = self.shards[ix as usize].deposed.lock();
        deposed.as_ref().map(|inst| f(inst.device()))
    }

    /// Execute one *local* command on shard `ix`'s deposed ex-primary —
    /// the split-brain probe. The command really executes (the deposed
    /// device is alive on the far side of the partition), but the ack is
    /// rejected at the epoch fence: at most one primary acks per epoch.
    pub fn exec_on_deposed(&self, ix: u32, cmd: KvCommand) -> Result<KvResponse, KvStatus> {
        let st = &self.shards[ix as usize];
        let deposed = st.deposed.lock();
        let inst = deposed
            .as_ref()
            .ok_or_else(|| KvStatus::Internal(format!("shard {}: no deposed primary", st.id)))?;
        Self::handle_fenced(st, inst, cmd).0
    }

    /// Have shard `ix`'s deposed ex-primary ship keyspace `name` to the
    /// replica log, stamped with its stale epoch. The receive fence must
    /// reject it — the companion probe to [`Self::exec_on_deposed`].
    /// `None` when there is no deposed primary, it does not hold `name`,
    /// or `name` has nothing to export.
    pub fn ship_from_deposed(&self, ix: u32, name: &str) -> Option<Result<ShipOutcome, ShipError>> {
        let st = &self.shards[ix as usize];
        let mut export = {
            let deposed = st.deposed.lock();
            let inst = deposed.as_ref()?;
            let keyspaces = inst.device().keyspaces().list();
            let (local, _, _) = keyspaces.iter().find(|(_, n, _)| n == name)?;
            Self::export(inst, [(name.to_string(), *local)])
        };
        let (name, art) = export.arts.pop()?;
        Some(st.replica.ship(&name, art, export.epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardStrategy;
    use kvcsd_proto::{SecondaryKeyType, SidxKey};

    fn router(shards: u32) -> ClusterRouter {
        ClusterRouter::new(ClusterConfig {
            shards,
            ..ClusterConfig::default()
        })
    }

    fn ok(resp: KvResponse) -> KvResponse {
        match resp {
            KvResponse::Err(e) => panic!("unexpected error: {e}"),
            r => r,
        }
    }

    fn create(r: &ClusterRouter, name: &str) -> u32 {
        match ok(r.handle(KvCommand::CreateKeyspace { name: name.into() })) {
            KvResponse::Created { ks } => ks,
            r => panic!("{r:?}"),
        }
    }

    fn put(r: &ClusterRouter, ks: u32, k: &[u8], v: &[u8]) {
        ok(r.handle(KvCommand::Put {
            ks,
            key: k.to_vec(),
            value: v.to_vec(),
        }));
    }

    fn compact(r: &ClusterRouter, ks: u32) {
        let job = match ok(r.handle(KvCommand::Compact { ks })) {
            KvResponse::JobStarted { job } => job,
            r => panic!("{r:?}"),
        };
        for _ in 0..16 {
            match ok(r.handle(KvCommand::PollJob { job })) {
                KvResponse::Job {
                    state: JobState::Done,
                } => return,
                KvResponse::Job { .. } => {}
                r => panic!("{r:?}"),
            }
        }
        panic!("compaction did not finish");
    }

    /// The same busy metric `drive_concurrent` uses, reconstructed from
    /// the public accessors.
    fn busy(r: &ClusterRouter, ix: u32) -> u64 {
        let s = r.shard_ledger(ix).snapshot();
        r.shard_clock(ix).now_ns()
            + s.host_cpu_ns
            + s.soc_cpu_ns
            + s.bridge_busy_ns
            + s.max_channel_busy_ns()
            + r.replica_log(ix).clock().now_ns()
    }

    #[test]
    fn fan_out_charges_the_slowest_shard_not_the_sum() {
        let r = router(2);
        let ks = create(&r, "t");
        let b0 = [busy(&r, 0), busy(&r, 1)];
        let h0 = r.host_clock().now_ns();
        let mut b = kvcsd_proto::BulkBuilder::default_size();
        for i in 0..400u32 {
            assert!(b.push(format!("k{i:05}").as_bytes(), &[9u8; 32]));
        }
        ok(r.handle(KvCommand::BulkPut {
            ks,
            payload: b.finish(),
        }));
        let d = [busy(&r, 0) - b0[0], busy(&r, 1) - b0[1]];
        let h = r.host_clock().now_ns() - h0;
        assert!(d[0] > 0 && d[1] > 0, "both shards did work: {d:?}");
        assert_eq!(h, d[0].max(d[1]), "router time is the slowest shard's");
        assert!(h < d[0] + d[1], "fan-out must not serialize shard time");
    }

    #[test]
    fn puts_spread_across_shards_and_range_merges_in_key_order() {
        let r = router(3);
        let ks = create(&r, "orders");
        for i in 0..120u32 {
            let k = format!("k{i:05}");
            put(&r, ks, k.as_bytes(), &i.to_be_bytes());
        }
        compact(&r, ks);
        // Every shard must actually hold a slice of the keyspace.
        for ix in 0..3 {
            let pairs = r.with_shard_device(ix, |d| {
                d.keyspaces()
                    .list()
                    .iter()
                    .map(|(id, _, _)| *id)
                    .next()
                    .map(|id| d.keyspaces().with(id, |k| Ok(k.pairs)).unwrap())
                    .unwrap_or(0)
            });
            assert!(pairs > 0, "shard {ix} holds no keys");
        }
        let es = match ok(r.handle(KvCommand::Range {
            ks,
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            limit: None,
        })) {
            KvResponse::Entries(es) => es,
            r => panic!("{r:?}"),
        };
        assert_eq!(es.len(), 120);
        assert!(
            es.windows(2).all(|w| w[0].0 < w[1].0),
            "merged range must be strictly key-ordered"
        );
        let limited = match ok(r.handle(KvCommand::Range {
            ks,
            lo: Bound::Included(b"k00010".to_vec()),
            hi: Bound::Unbounded,
            limit: Some(7),
        })) {
            KvResponse::Entries(es) => es,
            r => panic!("{r:?}"),
        };
        let want: Vec<Vec<u8>> = (10..17).map(|i| format!("k{i:05}").into_bytes()).collect();
        assert_eq!(
            limited.iter().map(|e| e.0.clone()).collect::<Vec<_>>(),
            want
        );
    }

    #[test]
    fn sidx_query_scatter_gathers_in_secondary_key_order() {
        let r = router(3);
        let ks = create(&r, "sensors");
        // value = 4-byte BE reading; sidx over it. Readings descend as
        // keys ascend, so secondary order must differ from primary order.
        for i in 0..90u32 {
            let k = format!("s{i:05}");
            put(&r, ks, k.as_bytes(), &(1_000 - i).to_be_bytes());
        }
        let spec = SecondaryIndexSpec {
            name: "reading".into(),
            value_offset: 0,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        };
        let job = match ok(r.handle(KvCommand::CompactAndIndex {
            ks,
            specs: vec![spec],
        })) {
            KvResponse::JobStarted { job } => job,
            r => panic!("{r:?}"),
        };
        loop {
            match ok(r.handle(KvCommand::PollJob { job })) {
                KvResponse::Job {
                    state: JobState::Done,
                } => break,
                KvResponse::Job {
                    state: JobState::Failed(e),
                } => panic!("job failed: {e}"),
                _ => {}
            }
        }
        let es = match ok(r.handle(KvCommand::SidxRange {
            ks,
            index: "reading".into(),
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            limit: Some(10),
        })) {
            KvResponse::Entries(es) => es,
            r => panic!("{r:?}"),
        };
        assert_eq!(es.len(), 10);
        // Lowest readings first => highest key indices first.
        let want: Vec<Vec<u8>> = (0..10)
            .map(|i| format!("s{:05}", 89 - i).into_bytes())
            .collect();
        assert_eq!(es.iter().map(|e| e.0.clone()).collect::<Vec<_>>(), want);
    }

    /// Run `cmd` against `h` and return its entries.
    fn entries(h: &dyn DeviceHandler, cmd: KvCommand) -> Vec<(Vec<u8>, Vec<u8>)> {
        match ok(h.handle(cmd)) {
            KvResponse::Entries(es) => es,
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn four_shard_scatter_queries_answer_as_one_device_does() {
        // F32 readings at offset 2, with few distinct values, so equal
        // secondary keys land on different shards and inside one.
        let spec = SecondaryIndexSpec {
            name: "reading".into(),
            value_offset: 2,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        };
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..300u32)
            .map(|i| {
                let reading = ((i * 37) % 11) as f32 * 0.5 - 2.0;
                let mut v = vec![b'v', i as u8];
                v.extend_from_slice(&reading.to_le_bytes());
                (format!("k{i:04}").into_bytes(), v)
            })
            .collect();
        let cfg = ClusterConfig::default();
        let single = ShardInstance::build(&cfg, 0, FaultPlan::none(), 1);
        let dev = single.device();
        let ks1 = match ok(dev.handle(KvCommand::CreateKeyspace { name: "t".into() })) {
            KvResponse::Created { ks } => ks,
            r => panic!("{r:?}"),
        };
        for (k, v) in &pairs {
            ok(dev.handle(KvCommand::Put {
                ks: ks1,
                key: k.clone(),
                value: v.clone(),
            }));
        }
        ok(dev.handle(KvCommand::CompactAndIndex {
            ks: ks1,
            specs: vec![spec.clone()],
        }));
        dev.run_pending_jobs();
        let reading = |x: f32| SidxKey::F32(x).encode();
        let queries = |ks: u32| {
            let mut qs = Vec::new();
            for limit in [None, Some(0), Some(1), Some(13), Some(300), Some(1000)] {
                for (lo, hi) in [
                    (Bound::Unbounded, Bound::Unbounded),
                    (
                        Bound::Included(b"k0042".to_vec()),
                        Bound::Excluded(b"k0251".to_vec()),
                    ),
                ] {
                    qs.push(KvCommand::Range { ks, lo, hi, limit });
                }
                for (lo, hi) in [
                    (Bound::Unbounded, Bound::Unbounded),
                    (
                        Bound::Excluded(reading(-1.0)),
                        Bound::Included(reading(1.5)),
                    ),
                ] {
                    qs.push(KvCommand::SidxRange {
                        ks,
                        index: "reading".into(),
                        lo,
                        hi,
                        limit,
                    });
                }
            }
            qs.push(KvCommand::SidxGet {
                ks,
                index: "reading".into(),
                key: SidxKey::F32(0.5),
            });
            qs
        };
        let strategies = [
            ShardStrategy::HashKeys,
            ShardStrategy::RangeKeys {
                boundaries: vec![b"k0075".to_vec(), b"k0150".to_vec(), b"k0225".to_vec()],
            },
        ];
        for strategy in strategies {
            let r = ClusterRouter::new(ClusterConfig {
                shards: 4,
                strategy: strategy.clone(),
                ..ClusterConfig::default()
            });
            let ks = create(&r, "t");
            for (k, v) in &pairs {
                put(&r, ks, k, v);
            }
            let job = match ok(r.handle(KvCommand::CompactAndIndex {
                ks,
                specs: vec![spec.clone()],
            })) {
                KvResponse::JobStarted { job } => job,
                r => panic!("{r:?}"),
            };
            while !matches!(
                ok(r.handle(KvCommand::PollJob { job })),
                KvResponse::Job {
                    state: JobState::Done
                }
            ) {}
            for (routed, direct) in queries(ks).into_iter().zip(queries(ks1)) {
                let want = entries(dev.as_ref(), direct);
                // An answer holds at most `limit` entries: none at 0.
                if let KvCommand::Range { limit, .. } | KvCommand::SidxRange { limit, .. } = routed
                {
                    assert!(limit.is_none_or(|l| want.len() as u64 <= l), "{routed:?}");
                }
                assert_eq!(
                    entries(&r, routed.clone()),
                    want,
                    "{strategy:?}: {routed:?}"
                );
            }
        }
    }

    #[test]
    fn killed_primary_fails_over_and_acked_sealed_writes_survive() {
        let r = router(2);
        let ks = create(&r, "t");
        for i in 0..80u32 {
            let k = format!("k{i:04}");
            put(&r, ks, k.as_bytes(), &i.to_be_bytes());
        }
        compact(&r, ks);
        assert!(r.replica_depth(0) > 0, "seal must have shipped artifacts");
        r.kill_shard(0);
        assert_eq!(r.shard_health(0), ShardHealth::Healthy, "promotion done");
        let events = r.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].shard, 0);
        assert_eq!(events[0].generation, 1);
        assert!(events[0].replayed_artifacts >= 1);
        // Every sealed (compacted) write is still readable post-promotion.
        for i in 0..80u32 {
            let k = format!("k{i:04}");
            match ok(r.handle(KvCommand::Get {
                ks,
                key: k.as_bytes().to_vec(),
            })) {
                KvResponse::Value(v) => assert_eq!(v, i.to_be_bytes()),
                r => panic!("{r:?}"),
            }
        }
    }

    #[test]
    fn link_down_seal_deposes_the_primary_and_fences_its_acks() {
        // One shard, link partitioned from the first bus op: the
        // seal-time ship burns its retry budget, the router deposes the
        // primary on suspicion, and the deposed instance keeps executing
        // but never acks.
        let r = ClusterRouter::new(ClusterConfig {
            shards: 1,
            fault_plan: FaultPlan::none().with_partition_at(1, None),
            ..ClusterConfig::default()
        });
        let ks = create(&r, "t");
        put(&r, ks, b"k1", b"v1");
        let resp = r.handle(KvCommand::Compact { ks });
        assert!(
            matches!(
                resp,
                KvResponse::Err(KvStatus::FailoverInProgress { shard: 0 })
            ),
            "a seal that cannot reach the replica must not ack: {resp:?}"
        );
        let events = r.events();
        assert_eq!(events.len(), 1);
        assert!(events[0].suspected, "deposed on suspicion, not death");
        assert_eq!(r.shard_epoch(0), 2);
        assert!(r.has_deposed(0));
        // The deposed ex-primary still executes, but the ack is fenced.
        let local = r
            .with_deposed_device(0, |d| {
                d.keyspaces()
                    .list()
                    .iter()
                    .find(|(_, n, _)| n == "t")
                    .map(|(id, _, _)| *id)
                    .unwrap()
            })
            .unwrap();
        let err = r
            .exec_on_deposed(
                0,
                KvCommand::Put {
                    ks: local,
                    key: b"k2".to_vec(),
                    value: b"v2".to_vec(),
                },
            )
            .unwrap_err();
        assert_eq!(err, KvStatus::EpochFenced { shard: 0 });
        // ...and after the partition heals, its ships are rejected at the
        // replica's receive fence.
        let fenced_before = r.replica_log(0).fenced();
        r.shard_link(0).heal_link_now();
        r.ship_from_deposed(0, "t")
            .expect("the deposed primary holds sealed logs for t")
            .unwrap();
        assert_eq!(r.replica_log(0).fenced(), fenced_before + 1);
        assert!(r.ship_from_deposed(0, "missing").is_none());
    }

    #[test]
    fn background_job_across_a_partition_leaves_the_gap_to_anti_entropy() {
        let r = router(1);
        let ks = create(&r, "t");
        for i in 0..30u32 {
            put(&r, ks, format!("k{i:03}").as_bytes(), &i.to_be_bytes());
        }
        // The seal ships before the cut; the compacted form waits for
        // anti-entropy, whose exchange a partitioned link loses.
        match ok(r.handle(KvCommand::Compact { ks })) {
            KvResponse::JobStarted { .. } => {}
            other => panic!("{other:?}"),
        }
        let kind = |r: &ClusterRouter| {
            r.replica_log(0)
                .generations()
                .into_iter()
                .find(|g| g.0 == "t")
                .map(|g| g.1)
        };
        assert_eq!(kind(&r), Some(ShipKind::SealedLogs));
        r.shard_link(0).partition_now();
        assert_eq!(r.run_background(), 1, "the compaction job ran");
        assert!(r.events().is_empty(), "a background pass never deposes");
        assert!(r.ship_from_deposed(0, "t").is_none(), "no deposed primary");
        assert_eq!(kind(&r), Some(ShipKind::SealedLogs), "the gap is open");
        r.shard_link(0).heal_link_now();
        r.run_background();
        assert_eq!(
            kind(&r),
            Some(ShipKind::Compacted),
            "anti-entropy closed it"
        );
    }

    #[test]
    fn each_compaction_ships_only_its_own_keyspace() {
        // A compaction costs two accepted ships: its sealed logs at seal
        // time and its compacted form by anti-entropy. Keyspaces
        // compacted earlier do not ship again.
        let r = router(1);
        let mut accepted = Vec::new();
        for name in ["a", "b", "c"] {
            let ks = create(&r, name);
            for i in 0..20u32 {
                put(&r, ks, format!("k{i:03}").as_bytes(), b"v");
            }
            compact(&r, ks);
            accepted.push(r.replica_log(0).accepted());
        }
        assert_eq!(accepted, [2, 4, 6]);
    }

    #[test]
    fn deleted_keyspace_stays_deleted_across_failover() {
        // Both orders: the name is re-created after the kill, or
        // re-created and written before it. A live compacted keyspace
        // `u` replays either way; the deleted `t` never does.
        for recreate_first in [false, true] {
            let r = router(2);
            let u = create(&r, "u");
            let t = create(&r, "t");
            for i in 0..80u32 {
                let k = format!("k{i:04}");
                put(&r, u, k.as_bytes(), &i.to_be_bytes());
                put(&r, t, k.as_bytes(), &i.to_be_bytes());
            }
            compact(&r, u);
            compact(&r, t);
            ok(r.handle(KvCommand::DeleteKeyspace { ks: t }));
            let recreated = recreate_first.then(|| {
                let t = create(&r, "t");
                put(&r, t, b"n0001", b"new");
                t
            });
            r.kill_shard(0);
            r.kill_shard(1);
            let t = recreated.unwrap_or_else(|| create(&r, "t"));
            let events = r.events();
            assert_eq!(events.len(), 2, "{recreate_first}");
            for ev in &events {
                assert_eq!(ev.replayed_artifacts, 1, "{recreate_first}: only `u`");
            }
            match ok(r.handle(KvCommand::Stat { ks: t })) {
                KvResponse::Stat(s) => {
                    assert_ne!(s.state, KeyspaceState::Compacted, "{recreate_first}");
                    assert_eq!(s.num_pairs, 0, "{recreate_first}");
                }
                other => panic!("{other:?}"),
            }
            // The new incarnation takes writes and compacts to just them.
            for i in 0..20u32 {
                put(&r, t, format!("n{i:04}").as_bytes(), b"fresh");
            }
            compact(&r, t);
            match ok(r.handle(KvCommand::Stat { ks: t })) {
                KvResponse::Stat(s) => assert_eq!(s.num_pairs, 20, "{recreate_first}"),
                other => panic!("{other:?}"),
            }
            let old = r.handle(KvCommand::Get {
                ks: t,
                key: b"k0001".to_vec(),
            });
            assert!(
                matches!(old, KvResponse::Err(KvStatus::KeyNotFound)),
                "{recreate_first}: the deleted value came back: {old:?}"
            );
            match ok(r.handle(KvCommand::Get {
                ks: u,
                key: b"k0001".to_vec(),
            })) {
                KvResponse::Value(v) => assert_eq!(v, 1u32.to_be_bytes()),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn anti_entropy_reships_a_recreated_keyspace_the_replica_held_before() {
        // The replica still holds the deleted `t`'s compacted form when
        // an identical `t` compacts behind a partition. Same fingerprint,
        // older incarnation: anti-entropy must ship the new one, or the
        // acked compaction would not survive promotion.
        let r = ClusterRouter::new(ClusterConfig {
            shards: 1,
            partition_failover: false,
            ..ClusterConfig::default()
        });
        let load = |r: &ClusterRouter| {
            let ks = create(r, "t");
            for i in 0..30u32 {
                put(r, ks, format!("k{i:03}").as_bytes(), &i.to_be_bytes());
            }
            ks
        };
        let old = load(&r);
        compact(&r, old);
        ok(r.handle(KvCommand::DeleteKeyspace { ks: old }));
        let ks = load(&r);
        r.shard_link(0).partition_now();
        let resp = r.handle(KvCommand::Compact { ks });
        assert!(
            matches!(resp, KvResponse::Err(KvStatus::TransientDeviceError(_))),
            "{resp:?}"
        );
        r.shard_link(0).heal_link_now();
        compact(&r, ks);
        r.kill_shard(0);
        assert_eq!(r.events()[0].replayed_artifacts, 1);
        match ok(r.handle(KvCommand::Get {
            ks,
            key: b"k007".to_vec(),
        })) {
            KvResponse::Value(v) => assert_eq!(v, 7u32.to_be_bytes()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn anti_entropy_reconcile_closes_the_gap_after_heal() {
        // Availability mode: the primary survives the partition with
        // unreplicated artifacts; reconcile() re-ships exactly the gap.
        let r = ClusterRouter::new(ClusterConfig {
            shards: 1,
            partition_failover: false,
            ..ClusterConfig::default()
        });
        let ks = create(&r, "t");
        for i in 0..30u32 {
            put(&r, ks, format!("k{i:03}").as_bytes(), &i.to_be_bytes());
        }
        r.shard_link(0).partition_now();
        let resp = r.handle(KvCommand::Compact { ks });
        assert!(
            matches!(resp, KvResponse::Err(KvStatus::TransientDeviceError(_))),
            "seal across a partition must bounce retryably: {resp:?}"
        );
        assert_eq!(r.events().len(), 0, "availability mode never deposes");
        assert_eq!(r.replica_depth(0), 0, "nothing crossed the partition");
        assert_eq!(r.reconcile(), 0, "reconcile skips partitioned links");
        r.shard_link(0).heal_link_now();
        assert_eq!(r.reconcile(), 1, "exactly the gap re-ships");
        assert_eq!(r.replica_depth(0), 1);
        // The retried compact now seals-and-ships cleanly.
        compact(&r, ks);
        assert_eq!(r.reconcile(), 0, "replica already converged");
    }

    #[test]
    fn a_resent_compact_ships_what_the_bounced_seal_did_not() {
        // Availability mode: the first COMPACT seals but its ship is
        // lost, so the resend finds the keyspace COMPACTING. It must not
        // ack until the replica holds the sealed logs.
        let r = ClusterRouter::new(ClusterConfig {
            shards: 1,
            partition_failover: false,
            ..ClusterConfig::default()
        });
        let ks = create(&r, "t");
        for i in 0..30u32 {
            put(&r, ks, format!("k{i:03}").as_bytes(), &i.to_be_bytes());
        }
        r.shard_link(0).partition_now();
        for attempt in 0..2 {
            let resp = r.handle(KvCommand::Compact { ks });
            assert!(
                matches!(resp, KvResponse::Err(KvStatus::TransientDeviceError(_))),
                "attempt {attempt} across a partition must bounce: {resp:?}"
            );
        }
        assert_eq!(r.replica_depth(0), 0, "nothing crossed the partition");
        r.shard_link(0).heal_link_now();
        compact(&r, ks);
        assert_eq!(r.events().len(), 0, "availability mode never deposes");
        r.kill_shard(0);
        for i in 0..30u32 {
            match ok(r.handle(KvCommand::Get {
                ks,
                key: format!("k{i:03}").into_bytes(),
            })) {
                KvResponse::Value(v) => assert_eq!(v, i.to_be_bytes()),
                other => panic!("k{i:03}: {other:?}"),
            }
        }
    }

    #[test]
    fn unreplicated_cluster_reports_dead_shards_as_unavailable() {
        let r = ClusterRouter::new(ClusterConfig {
            shards: 2,
            replicate: false,
            ..ClusterConfig::default()
        });
        let ks = create(&r, "t");
        for i in 0..40u32 {
            let k = format!("k{i:04}");
            put(&r, ks, k.as_bytes(), b"v");
        }
        r.kill_shard(1);
        assert_eq!(r.shard_health(1), ShardHealth::Dead);
        // Keys on shard 0 still work; keys on shard 1 are unavailable.
        let (mut live, mut dead) = (0, 0);
        for i in 0..40u32 {
            let k = format!("k{i:04}");
            match r.handle(KvCommand::Get {
                ks,
                key: k.as_bytes().to_vec(),
            }) {
                KvResponse::Err(KvStatus::ShardUnavailable { shard: 1 }) => dead += 1,
                KvResponse::Err(KvStatus::KeyNotFound) | KvResponse::Err(_) => live += 1,
                _ => live += 1,
            }
        }
        assert!(dead > 0, "some keys must map to the dead shard");
        assert!(live > 0, "healthy shard must keep serving");
    }

    #[test]
    fn range_sharding_prunes_scatter_to_covering_shards() {
        let r = ClusterRouter::new(ClusterConfig {
            shards: 3,
            strategy: ShardStrategy::RangeKeys {
                boundaries: vec![b"h".to_vec(), b"q".to_vec()],
            },
            ..ClusterConfig::default()
        });
        let shards = r.shards_for_range(
            &Bound::Included(b"a".to_vec()),
            &Bound::Excluded(b"c".to_vec()),
        );
        assert_eq!(shards, vec![0]);
        let shards = r.shards_for_range(&Bound::Included(b"j".to_vec()), &Bound::Unbounded);
        assert_eq!(shards, vec![1, 2]);
        let all = r.shards_for_range(&Bound::Unbounded, &Bound::Unbounded);
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn stat_aggregates_across_the_fleet() {
        let r = router(3);
        let ks = create(&r, "agg");
        for i in 0..60u32 {
            let k = format!("k{i:04}");
            put(&r, ks, k.as_bytes(), b"value!");
        }
        compact(&r, ks);
        match ok(r.handle(KvCommand::Stat { ks })) {
            KvResponse::Stat(s) => {
                assert_eq!(s.num_pairs, 60);
                assert_eq!(s.state, KeyspaceState::Compacted);
                assert_eq!(s.min_key.as_deref(), Some(&b"k0000"[..]));
                assert_eq!(s.max_key.as_deref(), Some(&b"k0059"[..]));
            }
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn pruned_range_queries_never_touch_non_covering_shards() {
        let r = ClusterRouter::new(ClusterConfig {
            shards: 2,
            strategy: ShardStrategy::RangeKeys {
                boundaries: vec![b"m".to_vec()],
            },
            ..ClusterConfig::default()
        });
        let ks = create(&r, "t");
        for i in 0..40u32 {
            put(&r, ks, format!("a{i:04}").as_bytes(), b"v");
            put(&r, ks, format!("z{i:04}").as_bytes(), b"v");
        }
        compact(&r, ks);
        let ranges_before = r.shard_ledger(1).custom("dev_ranges");
        let clock_before = r.shard_clock(1).now_ns();
        let es = match ok(r.handle(KvCommand::Range {
            ks,
            lo: Bound::Included(b"a".to_vec()),
            hi: Bound::Excluded(b"b".to_vec()),
            limit: None,
        })) {
            KvResponse::Entries(es) => es,
            r => panic!("{r:?}"),
        };
        assert_eq!(es.len(), 40);
        // Shard 1 covers [m, inf): the query must not have reached it, so
        // it can neither serve it nor charge stall time to it.
        assert_eq!(r.shard_ledger(1).custom("dev_ranges"), ranges_before);
        assert_eq!(r.shard_clock(1).now_ns(), clock_before);
    }
}
