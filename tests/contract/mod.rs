//! The client contract as one executable reference model, shared by the
//! fault harnesses (`mod contract;`).
//!
//! A harness tells the [`Contract`] what the client was told, and hands
//! it what the store shows back. The model files every pair of every
//! keyspace in one of three classes:
//!
//! * **acked** — the put (or the accelerator put) returned `Ok`;
//! * **durable** — a durability point covered the pair: `fsync` `Ok`
//!   (after an accelerator `flush` where one is used), an acked
//!   COMPACT, or the READ_ONLY freeze;
//! * **maybe** — the pair was acked when [`Contract::power_cut`] ran,
//!   or its write failed in flight.
//!
//! Every visible pair must be byte-exact and written to that keyspace;
//! every durable pair must be visible, and so must every acked one while
//! no cut has happened; a scan must be strictly key-ordered. A duplicate
//! identical pair is allowed only once the client ledger recorded a
//! retried write: a retried put whose WAL record landed twice shows twice.
//!
//! The model's self-tests live in `tests/model_selftest.rs`.

#![allow(dead_code)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use kvcsd::cluster::{ClusterConfig, ClusterRouter, FailoverEvent, ShardHealth};
use kvcsd::device::{DeviceConfig, DeviceStack};
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::{
    Bound, DeviceHandler, JobState, KeyspaceState, KvCommand, KvResponse, KvStatus,
    SecondaryIndexSpec, SecondaryKeyType,
};
use kvcsd::sim::{FaultInjector, FaultPlan, IoLedger};
use kvcsd_client::{ClientError, Keyspace, KvCsd};

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the FNV-1a hash `x`.
pub fn fnv1a(x: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(x, |x, &b| {
        (x ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The value stored under `key`: `len` bytes of its FNV-1a hash, the
/// last four of them an `f32` for the secondary index when `len >= 32`
/// (see [`tail_index`]). Any torn or misplaced value fails to recompute.
pub fn value_for(key: &[u8], len: usize) -> Vec<u8> {
    let x = fnv1a(FNV_OFFSET, key);
    let body = if len >= 32 { len - 4 } else { len };
    let mut v: Vec<u8> = (0..body)
        .map(|i| ((x >> ((i % 8) * 8)) as u8).wrapping_add(i as u8))
        .collect();
    if len >= 32 {
        v.extend_from_slice(&(((x >> 17) & 0xFFFF) as f32).to_le_bytes());
    }
    v
}

/// The secondary index over [`value_for`]'s trailing `f32`.
pub fn tail_index(len: usize) -> SecondaryIndexSpec {
    SecondaryIndexSpec {
        name: "tail".into(),
        value_offset: len - 4,
        value_len: 4,
        key_type: SecondaryKeyType::F32,
    }
}

/// A client get's answer as the model reads it: `Ok(None)` for
/// KEY_NOT_FOUND, so the model, not the caller, judges a missing key.
pub fn found(got: Result<Vec<u8>, ClientError>) -> Result<Option<Vec<u8>>, ClientError> {
    match got {
        Err(e) if e.is_not_found() => Ok(None),
        got => got.map(Some),
    }
}

/// A client of `stack`'s device, charging its ledger.
pub fn connect(stack: &DeviceStack) -> KvCsd {
    KvCsd::connect(
        Arc::clone(stack.device()) as Arc<dyn DeviceHandler>,
        Arc::clone(stack.ledger()),
    )
}

fn show(key: &[u8]) -> String {
    String::from_utf8_lossy(key).into_owned()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Acked,
    Durable,
    Maybe,
}

#[derive(Clone, Default)]
struct Space {
    pairs: BTreeMap<Vec<u8>, (Vec<u8>, Class)>,
    /// The state the keyspace must reopen in: COMPACTED once a COMPACT
    /// was acked (it is immutable from then on), READ_ONLY once frozen.
    pinned: Option<KeyspaceState>,
}

impl Space {
    /// The keys the store must show: acked and not yet cut, or durable.
    fn owed(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.pairs
            .iter()
            .filter(|(_, (_, c))| *c != Class::Maybe)
            .map(|(k, _)| k)
    }
}

/// The reference model: what the client was told, per keyspace name.
#[derive(Clone, Default)]
pub struct Contract {
    spaces: BTreeMap<String, Space>,
    /// The client ledger whose `client_retries` says whether a write was
    /// ever retried.
    ledger: Option<Arc<IoLedger>>,
}

impl Contract {
    /// A model that allows duplicate identical pairs once `ledger`
    /// records a retried client write.
    pub fn watching(ledger: Arc<IoLedger>) -> Self {
        Self {
            ledger: Some(ledger),
            ..Self::default()
        }
    }

    fn space(&mut self, ks: &str) -> &mut Space {
        self.spaces.entry(ks.to_string()).or_default()
    }

    fn record(&mut self, ks: &str, key: &[u8], value: &[u8], class: Class) {
        let slot = self.space(ks).pairs.entry(key.to_vec());
        let (v, c) = slot.or_insert_with(|| (value.to_vec(), class));
        assert_eq!(v, value, "{ks}: the model holds one value per key");
        if *c != Class::Durable {
            *c = class;
        }
    }

    /// Creating `ks` returned `Ok`: the keyspace exists from here on.
    pub fn create(&mut self, ks: &str) {
        self.space(ks);
    }

    /// A put of `key` returned `Ok`.
    pub fn put(&mut self, ks: &str, key: &[u8], value: &[u8]) {
        self.record(ks, key, value, Class::Acked);
    }

    /// A put of `key` failed mid-flight: it may or may not have landed.
    pub fn in_flight(&mut self, ks: &str, key: &[u8], value: &[u8]) {
        self.record(ks, key, value, Class::Maybe);
    }

    /// A durability point (`fsync` `Ok`) covered every acked pair of `ks`.
    pub fn sync(&mut self, ks: &str) {
        for (_, c) in self.space(ks).pairs.values_mut() {
            if *c == Class::Acked {
                *c = Class::Durable;
            }
        }
    }

    /// A COMPACT of `ks` was acked: a durability point, after which the
    /// keyspace stays COMPACTED.
    pub fn seal(&mut self, ks: &str) {
        self.sync(ks);
        self.space(ks).pinned = Some(KeyspaceState::Compacted);
    }

    /// `ks` froze to READ_ONLY: the freeze persists every acked pair.
    pub fn freeze(&mut self, ks: &str) {
        self.sync(ks);
        self.space(ks).pinned = Some(KeyspaceState::ReadOnly);
    }

    /// Power was cut: every acked pair no durability point covered may
    /// now be lost.
    pub fn power_cut(&mut self) {
        for space in self.spaces.values_mut() {
            for (_, c) in space.pairs.values_mut() {
                if *c == Class::Acked {
                    *c = Class::Maybe;
                }
            }
        }
    }

    /// Take over every keyspace `other` holds.
    pub fn adopt(&mut self, other: Contract) {
        self.spaces.extend(other.spaces);
    }

    /// `ks` was deleted.
    pub fn delete(&mut self, ks: &str) {
        self.spaces.remove(ks);
    }

    /// Every keyspace the model holds, by name.
    pub fn keyspaces(&self) -> Vec<String> {
        self.spaces.keys().cloned().collect()
    }

    /// The durable keys of `ks`, in key order.
    pub fn durable(&self, ks: &str) -> Vec<Vec<u8>> {
        let pairs = self.spaces.get(ks).map(|s| &s.pairs).into_iter().flatten();
        let durable = pairs.filter(|(_, (_, c))| *c == Class::Durable);
        durable.map(|(k, _)| k.clone()).collect()
    }

    /// Check the state `ks` opened in (`None`: not found). A created
    /// keyspace never vanishes, a pinned one reopens in its pinned state,
    /// and one the store owes pairs never comes back EMPTY.
    pub fn check_state(&self, ks: &str, state: Option<KeyspaceState>) {
        let Some(space) = self.spaces.get(ks) else {
            return;
        };
        let state = state.unwrap_or_else(|| panic!("{ks}: created keyspace vanished"));
        if let Some(pinned) = space.pinned {
            assert_eq!(state, pinned, "{ks}: pinned keyspace changed state");
        } else if space.owed().next().is_some() {
            assert_ne!(state, KeyspaceState::Empty, "{ks}: owed pairs lost");
        }
    }

    /// Check one visible pair: written to `ks`, byte-exact. A COMPACTED
    /// keyspace is immutable, so what it shows stays visible: durable.
    fn check_visible(&mut self, ks: &str, key: &[u8], value: &[u8]) {
        let space = self.space(ks);
        let sealed = space.pinned == Some(KeyspaceState::Compacted);
        let Some((want, class)) = space.pairs.get_mut(key) else {
            panic!("{ks}: foreign key {} visible", show(key));
        };
        assert!(want == value, "{ks}: torn value under {}", show(key));
        if sealed {
            *class = Class::Durable;
        }
    }

    /// Check a point get of `key` (`got`: `None` for KEY_NOT_FOUND).
    /// Returns whether the key was visible.
    pub fn check_get(&mut self, ks: &str, key: &[u8], got: Option<&[u8]>) -> bool {
        match got {
            Some(value) => self.check_visible(ks, key, value),
            None => {
                if let Some((_, class)) = self.space(ks).pairs.get(key) {
                    let k = show(key);
                    assert!(*class == Class::Maybe, "{ks}: {class:?} pair {k} lost");
                }
            }
        }
        got.is_some()
    }

    /// Check every durable pair of `ks` through `handle` by point get,
    /// then a full scan.
    pub fn check_all(&mut self, ks: &str, handle: &Keyspace) {
        for k in self.durable(ks) {
            let got = found(handle.get(&k)).unwrap();
            self.check_get(ks, &k, got.as_deref());
        }
        let scan = handle.range(Bound::Unbounded, Bound::Unbounded, None);
        self.check_scan(ks, &scan.expect("range"));
    }

    /// Check a full primary-key scan of `ks`.
    pub fn check_scan(&mut self, ks: &str, scan: &[(Vec<u8>, Vec<u8>)]) {
        self.check_range(ks, &Bound::Unbounded, &Bound::Unbounded, None, scan);
    }

    /// Check a scan of `ks` between `lo` and `hi` capped at `limit`
    /// entries: key-ordered, every pair inside the bounds and allowed to
    /// be visible, and no owed pair missing up to where the scan ends.
    pub fn check_range(
        &mut self,
        ks: &str,
        lo: &Bound,
        hi: &Bound,
        limit: Option<u64>,
        scan: &[(Vec<u8>, Vec<u8>)],
    ) {
        let retried = self
            .ledger
            .as_ref()
            .is_some_and(|l| l.custom("client_retries") > 0);
        for w in scan.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.0 == b.0 {
                let k = show(&a.0);
                assert!(
                    retried && a == b,
                    "{ks}: duplicate key {k} with no retried write"
                );
            } else {
                assert!(a.0 < b.0, "{ks}: scan out of key order at {}", show(&b.0));
            }
        }
        for (k, v) in scan {
            let inside = lo.admits_from_below(k) && hi.admits_from_above(k);
            assert!(inside, "{ks}: {} outside the scanned range", show(k));
            self.check_visible(ks, k, v);
        }
        assert!(
            limit.is_none_or(|l| scan.len() as u64 <= l),
            "{ks}: over limit"
        );
        // A scan that filled its limit owes only what sorts up to its
        // last entry; a limit of 0 owes nothing.
        let end = match scan.last() {
            Some((last, _)) if limit == Some(scan.len() as u64) => Bound::Included(last.clone()),
            None if limit == Some(0) => return,
            _ => hi.clone(),
        };
        let space = self.space(ks);
        for k in space.owed() {
            if lo.admits_from_below(k) && end.admits_from_above(k) {
                let seen = scan.binary_search_by(|(s, _)| s.cmp(k)).is_ok();
                let class = space.pairs[k].1;
                assert!(seen, "{ks}: {class:?} pair {} lost", show(k));
            }
        }
    }
}

/// The crash-test rig: one WAL-on device stood up through `DeviceStack`
/// with a fault plan armed, a client, and the model of what that client
/// was told.
pub struct CrashBed {
    pub stack: DeviceStack,
    pub inj: Arc<FaultInjector>,
    pub client: KvCsd,
    pub model: Contract,
    /// Power cycles so far.
    pub crashes: u64,
}

impl CrashBed {
    pub fn new(plan: FaultPlan) -> Self {
        let mut stack = DeviceStack::new(
            FlashGeometry {
                channels: 8,
                blocks_per_channel: 256,
                pages_per_block: 16,
                page_bytes: 4096,
            },
            ZnsConfig {
                zone_blocks: 1,
                max_open_zones: 1 << 16,
            },
            DeviceConfig {
                cluster_width: 8,
                soc_dram_bytes: 8 << 20,
                seed: 11,
                wal: true,
                ..DeviceConfig::default()
            },
        );
        let client = connect(&stack);
        let inj = stack.arm(plan);
        let model = Contract::watching(Arc::clone(stack.ledger()));
        Self {
            stack,
            inj,
            client,
            model,
            crashes: 0,
        }
    }

    /// Handle an error from a client call. Under a pure power-cut plan
    /// the only expected failure is power loss; transient-noise plans may
    /// also exhaust the client's retry budget. Either way it is a crash.
    pub fn crash(&mut self, err: &ClientError) {
        let expected = self.inj.is_powered_off()
            || matches!(err, ClientError::Device(KvStatus::PowerLoss))
            || matches!(err, ClientError::RetriesExhausted { .. });
        assert!(expected, "unexpected error under a fault plan: {err:?}");
        self.recover();
    }

    /// Power-cycle: the model loses every unsynced ack, the device
    /// reopens from flash with faults disarmed (recovery itself must
    /// succeed) and runs its re-enqueued jobs, and the client reconnects.
    pub fn recover(&mut self) {
        self.crashes += 1;
        self.model.power_cut();
        self.stack
            .power_cycle()
            .expect("fault-free recovery must succeed");
        self.stack.device().run_pending_jobs();
        self.client = connect(&self.stack);
    }

    /// After a crash, open `ks`, check the state it came back in and
    /// compact whatever survived, fault-free. `None` when there is
    /// nothing to query: the keyspace is gone, or came back EMPTY (it is
    /// deleted).
    pub fn settle(&mut self, ks: &str) -> Option<Keyspace> {
        let opened = self.client.open_keyspace(ks).ok();
        self.model.check_state(ks, opened.as_ref().map(|(_, s)| *s));
        let (handle, state) = opened?;
        match state {
            KeyspaceState::Compacted => {}
            KeyspaceState::Empty => {
                handle.delete().expect("delete an EMPTY keyspace");
                self.model.delete(ks);
                return None;
            }
            _ => {
                let job = handle.compact().expect("fault-free compact");
                self.stack.device().run_pending_jobs();
                assert_eq!(job.poll().unwrap(), JobState::Done, "{ks} from {state:?}");
                self.model.seal(ks);
            }
        }
        Some(handle)
    }
}

/// The replication side of a fleet run: a ship added, dropped or
/// reordered moves the link lane's fault draws, so it shows here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationTrace {
    pub events: Vec<FailoverEvent>,
    /// Fencing epoch per shard.
    pub epochs: Vec<u64>,
    pub bus_msgs: u64,
    pub bus_bytes: u64,
    /// Fault events per replication link.
    pub link_events: Vec<usize>,
    /// `(accepted, duplicates, fenced)` per replica log.
    pub replicas: Vec<(u64, u64, u64)>,
}

/// The cluster rig: a router, the model of what its callers were told,
/// and the shape of the batches the harness commits.
pub struct Fleet {
    pub router: Arc<ClusterRouter>,
    pub model: Contract,
    /// Key prefix, pair count and value length of one committed batch.
    prefix: char,
    pairs: u32,
    value_len: usize,
    ids: BTreeMap<String, u32>,
    /// Failovers the model has seen.
    failovers: usize,
    fenced: Cell<u64>,
}

impl Fleet {
    pub fn new(cfg: ClusterConfig, prefix: char, pairs: u32, value_len: usize) -> Self {
        Self {
            router: Arc::new(ClusterRouter::new(cfg)),
            model: Contract::default(),
            prefix,
            pairs,
            value_len,
            ids: BTreeMap::new(),
            failovers: 0,
            fenced: Cell::new(0),
        }
    }

    /// Drive one command through the router, absorbing the two retryable
    /// fencing bounces the way the client's fail-fast redirect does:
    /// `FailoverInProgress` while a promotion swaps the primary, and
    /// `EpochFenced` when the command raced the swap onto the deposed one
    /// (counted: see [`Fleet::fenced`]).
    pub fn drive(&self, mut make: impl FnMut() -> KvCommand) -> Result<KvResponse, KvStatus> {
        for _ in 0..24 {
            match self.router.handle(make()) {
                KvResponse::Err(KvStatus::FailoverInProgress { .. }) => {}
                KvResponse::Err(KvStatus::EpochFenced { .. }) => {
                    self.fenced.set(self.fenced.get() + 1);
                }
                KvResponse::Err(e) => return Err(e),
                resp => return Ok(resp),
            }
        }
        panic!("command did not settle after 24 fencing redirects");
    }

    /// `EpochFenced` bounces [`Fleet::drive`] absorbed. Power cuts alone
    /// never fence: only a partition deposes a live primary.
    pub fn fenced(&self) -> u64 {
        self.fenced.get()
    }

    /// A failover the model has not seen yet is a power cut to it.
    fn observe_failovers(&mut self) {
        let failovers = self.router.events().len();
        if failovers > self.failovers {
            self.failovers = failovers;
            self.model.power_cut();
        }
    }

    pub fn create(&mut self, name: &str) -> u32 {
        let ks = match self.drive(|| KvCommand::CreateKeyspace { name: name.into() }) {
            Ok(KvResponse::Created { ks }) => ks,
            other => panic!("create {name}: {other:?}"),
        };
        self.model.create(name);
        self.ids.insert(name.to_string(), ks);
        ks
    }

    pub fn put(&mut self, name: &str, key: &[u8]) -> Result<(), KvStatus> {
        let (ks, value) = (self.ids[name], value_for(key, self.value_len));
        let (key, v) = (key.to_vec(), value.clone());
        self.drive(|| KvCommand::Put {
            ks,
            key: key.clone(),
            value: v.clone(),
        })?;
        self.model.put(name, &key, &value);
        Ok(())
    }

    /// Get `key` and check it against the model; whether it was visible.
    pub fn get(&mut self, name: &str, key: &[u8]) -> bool {
        let (ks, key) = (self.ids[name], key.to_vec());
        let got = match self.drive(|| KvCommand::Get {
            ks,
            key: key.clone(),
        }) {
            Ok(KvResponse::Value(v)) => Some(v),
            Err(KvStatus::KeyNotFound) => None,
            other => panic!("{name}: get {}: {other:?}", show(&key)),
        };
        self.model.check_get(name, &key, got.as_deref())
    }

    /// Submit COMPACT and poll to a terminal state; `true` once it is
    /// acked, which seals `name` in the model — after any failover since
    /// the attempt began counts as a power cut: the puts it hit may be gone.
    pub fn compact_to_done(&mut self, name: &str) -> bool {
        let ks = self.ids[name];
        let Ok(KvResponse::JobStarted { job }) = self.drive(|| KvCommand::Compact { ks }) else {
            return false;
        };
        for _ in 0..64 {
            match self.drive(|| KvCommand::PollJob { job }) {
                Ok(KvResponse::Job {
                    state: JobState::Done,
                }) => {
                    self.observe_failovers();
                    self.model.seal(name);
                    return true;
                }
                Ok(KvResponse::Job {
                    state: JobState::Failed(_),
                })
                | Err(_) => return false,
                Ok(_) => {}
            }
        }
        false
    }

    /// Commit batches `0..n`, each into a fresh keyspace compacted to the
    /// sealed and shipped (cluster-durable) state. A primary death before
    /// the seal shipped may eat the volatile puts — by contract — so an
    /// attempt counts only once every pair reads back; otherwise it is
    /// deleted and redone under a new name.
    pub fn commit_batches(&mut self, n: usize) {
        self.commit_batches_until(n, |_| false);
    }

    /// [`Fleet::commit_batches`], stopping after the first attempt —
    /// committed or abandoned — at which `stop` holds for the router.
    /// Returns how many batches committed.
    pub fn commit_batches_until(
        &mut self,
        n: usize,
        stop: impl Fn(&ClusterRouter) -> bool,
    ) -> usize {
        let p = self.prefix;
        'batch: for batch in 0..n {
            for attempt in 0..8u32 {
                let name = format!("{p}{batch}-try{attempt}");
                self.observe_failovers();
                let ks = self.create(&name);
                let keys: Vec<Vec<u8>> = (0..self.pairs)
                    .map(|i| format!("{p}{batch}a{attempt:02}k{i:05}").into_bytes())
                    .collect();
                // A put can race the promotion of a keyspace that lost its
                // volatile data; the attempt is abandoned.
                let committed = keys.iter().all(|k| self.put(&name, k).is_ok())
                    && self.compact_to_done(&name)
                    && keys.iter().all(|k| self.get(&name, k));
                if !committed {
                    let _ = self.drive(|| KvCommand::DeleteKeyspace { ks });
                    self.model.delete(&name);
                    self.ids.remove(&name);
                }
                if stop(&self.router) {
                    return batch + usize::from(committed);
                }
                if committed {
                    continue 'batch;
                }
            }
            panic!("batch {batch} did not commit in 8 attempts");
        }
        n
    }

    /// Check every keyspace the model holds: each durable pair by point
    /// get, then a scatter-gather scan of the whole keyspace.
    pub fn verify_committed(&mut self) {
        for name in self.model.keyspaces() {
            for k in self.model.durable(&name) {
                self.get(&name, &k);
            }
            let (ks, lo, hi) = (self.ids[&name], Bound::Unbounded, Bound::Unbounded);
            let range = || KvCommand::Range {
                ks,
                lo: lo.clone(),
                hi: hi.clone(),
                limit: None,
            };
            match self.drive(range) {
                Ok(KvResponse::Entries(es)) => self.model.check_scan(&name, &es),
                other => panic!("{name}: range: {other:?}"),
            }
        }
    }

    /// What the replication side of this run did, for determinism pins.
    pub fn replication_trace(&self) -> ReplicationTrace {
        let r = &self.router;
        let shards = 0..r.config().shards;
        ReplicationTrace {
            events: r.events(),
            epochs: shards.clone().map(|ix| r.shard_epoch(ix)).collect(),
            bus_msgs: r.fabric_ledger().custom("bus_msgs"),
            bus_bytes: r.fabric_ledger().custom("bus_bytes"),
            link_events: shards
                .clone()
                .map(|ix| r.shard_link(ix).link_events().len())
                .collect(),
            replicas: shards
                .map(|ix| {
                    let log = r.replica_log(ix);
                    (log.accepted(), log.duplicates(), log.fenced())
                })
                .collect(),
        }
    }

    /// Kill every shard's primary, asserting each promotes back healthy.
    pub fn kill_all_primaries(&self) {
        for ix in 0..self.router.config().shards {
            self.router.kill_shard(ix);
            let health = self.router.shard_health(ix);
            assert_eq!(health, ShardHealth::Healthy, "shard {ix} after promotion");
        }
    }
}
