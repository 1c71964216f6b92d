//! [`KvCsdDevice`]: the on-SoC command processor.
//!
//! Implements [`DeviceHandler`], turning protocol commands into keyspace,
//! zone and index operations. Compaction and secondary-index construction
//! are *deferred*: the command enqueues a job on the device's job queue
//! (`jobs.rs`) and completes immediately;
//! [`KvCsdDevice::run_pending_jobs`] executes the queue. Benchmark
//! harnesses call that inside a *background* phase — the virtual clock the
//! host application sees does not advance, which is precisely the
//! latency-hiding the paper claims. A host that chooses to block (e.g.
//! `kvcsd_client`'s `wait_for`) polls the job and triggers execution,
//! paying the time in its own foreground phase instead.

use std::sync::Arc;

use kvcsd_flash::ZonedNamespace;
use kvcsd_proto::{
    DeviceHandler, JobId, KeyspaceDesc, KeyspaceStat, KeyspaceState, KvCommand, KvResponse,
    KvStatus, SecondaryIndexSpec,
};
use kvcsd_sim::config::CostModel;
use kvcsd_sim::sync::Mutex;
use kvcsd_sim::VirtualClock;

use crate::admission::{AdmissionConfig, AdmissionGate, Deadline, Decision, PressureSample};
use crate::artifact::{ArtifactPayload, IndexArtifact, KeyspaceArtifacts, SidxArtifact};
use crate::dram::{DramBudget, DramReservation};
use crate::error::DeviceError;
use crate::index::{BlockIndex, Sketch};
use crate::ingest::WriteLog;
use crate::jobs::{Job, JobQueue};
use crate::keyspace::{Keyspace, KeyspaceManager, KsStorage, SecondaryIndex};
use crate::meta::MetaStore;
use crate::query;
use crate::snapshot;
use crate::soc::SocCharger;
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;
use crate::{BLOCK_BYTES, INGEST_BUFFER_BYTES};

/// Device construction parameters.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Zones per cluster (stripe width). Defaults to the channel count so
    /// a single keyspace already uses the SSD's full parallelism.
    pub cluster_width: u32,
    /// SoC DRAM budget in bytes.
    pub soc_dram_bytes: u64,
    /// Seed for the zone manager's randomized stripe offsets.
    pub seed: u64,
    /// Write-ahead-log buffered writes for crash durability. Off by
    /// default: "we expect production applications to frequently disable
    /// write-ahead-logging ... because many use checkpointing-restart".
    pub wal: bool,
    /// Overload-control watermarks and charges (see [`crate::admission`]).
    pub admission: AdmissionConfig,
    /// Virtual clock deadlines are checked against, shared with the
    /// harness so it can advance simulated time. A fresh clock is created
    /// when absent (deadline-free workloads never read it).
    pub clock: Option<Arc<VirtualClock>>,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            cluster_width: 16,
            soc_dram_bytes: 8 << 30,
            seed: 0x5EED,
            wal: false,
            admission: AdmissionConfig::default(),
            clock: None,
        }
    }
}

/// Zones 0..META_ZONES are reserved for the [`MetaStore`]'s ping-pong
/// snapshot pair and never enter the data zone pool.
const META_ZONES: u32 = 2;

/// The KV-CSD device: SoC + ZNS SSD behind an NVMe-KV interface.
pub struct KvCsdDevice {
    pub(crate) mgr: ZoneManager,
    pub(crate) km: KeyspaceManager,
    meta: Mutex<MetaStore>,
    pub(crate) soc: SocCharger,
    pub(crate) dram: DramBudget,
    pub(crate) cfg: DeviceConfig,
    pub(crate) jobs: JobQueue,
    gate: AdmissionGate,
    pub(crate) clock: Arc<VirtualClock>,
}

impl std::fmt::Debug for KvCsdDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvCsdDevice")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl KvCsdDevice {
    /// Assemble a fresh device over a zoned namespace. Zones 0 and 1 are
    /// reserved as the metadata ping-pong pair backing the keyspace table.
    pub fn new(zns: Arc<ZonedNamespace>, cost: CostModel, cfg: DeviceConfig) -> Self {
        let mgr = ZoneManager::new(Arc::clone(&zns), META_ZONES, cfg.seed);
        let meta = MetaStore::new(Arc::clone(&zns), 0);
        Self::assemble(&zns, cost, cfg, mgr, KeyspaceManager::new(), meta)
    }

    /// The construction [`Self::new`] and [`Self::reopen`] share: clamp
    /// the stripe width to the channel count, size the zone manager's
    /// seal reserve from it, and start with an empty job queue.
    fn assemble(
        zns: &ZonedNamespace,
        cost: CostModel,
        cfg: DeviceConfig,
        mgr: ZoneManager,
        km: KeyspaceManager,
        meta: MetaStore,
    ) -> Self {
        let cluster_width = cfg.cluster_width.min(zns.nand().geometry().channels);
        let cfg = DeviceConfig {
            cluster_width,
            ..cfg
        };
        Self {
            mgr: mgr.with_seal_reserve(2 * cluster_width),
            km,
            meta: Mutex::new(meta),
            soc: SocCharger::new(Arc::clone(zns.nand().ledger()), cost),
            dram: DramBudget::new(cfg.soc_dram_bytes),
            gate: AdmissionGate::new(cfg.admission),
            clock: cfg
                .clock
                .clone()
                .unwrap_or_else(|| Arc::new(VirtualClock::new())),
            cfg,
            jobs: JobQueue::new(),
        }
    }

    /// Reopen a device after a restart: recover the keyspace table and
    /// zone map from the newest snapshot in the metadata zone.
    ///
    /// Recovery policy (Section IV semantics):
    /// * COMPACTED keyspaces come back fully queryable (indexes and
    ///   sketches restored);
    /// * COMPACTING keyspaces re-enqueue their compaction job from the
    ///   sealed logs, without the index specs of an interrupted single
    ///   pass (the snapshot does not hold them);
    /// * WRITABLE keyspaces lose their buffered (never-synced) data and
    ///   reopen EMPTY — the same contract as any store whose WAL is
    ///   disabled, which the paper notes is the common production mode;
    /// * clusters referenced by no keyspace (in-flight sort temporaries,
    ///   dropped write logs, clusters a durable snapshot dropped before a
    ///   cut stopped their release) are reset and returned to the zone
    ///   pool.
    pub fn reopen(zns: Arc<ZonedNamespace>, cost: CostModel, cfg: DeviceConfig) -> Result<Self> {
        let meta = MetaStore::new(Arc::clone(&zns), 0);
        let generations = meta.read_generations()?;
        if generations.is_empty() {
            // No valid generation can mean "fresh device" or "first-ever
            // snapshot tore" — but if *both* zones hold debris, durable
            // generations existed and were destroyed. Coming up empty
            // would silently un-ack them; refuse instead.
            if meta.is_doubly_corrupt()? {
                return Err(DeviceError::CorruptMetadata);
            }
            return Ok(Self::new(zns, cost, cfg));
        }

        // Snapshots are tried newest first. A generation that passes its
        // CRC but fails to decode or restore (format damage the CRC does
        // not cover) is skipped in favour of the previous one rather than
        // bricking the device.
        let mut recovered = None;
        let mut last_err = None;
        let mut skipped = 0u64;
        for payload in &generations {
            let attempt = snapshot::decode(payload).and_then(|snap| {
                let mgr =
                    ZoneManager::restore(Arc::clone(&zns), META_ZONES, cfg.seed, &snap.zones)?;
                Ok((snap, mgr))
            });
            match attempt {
                Ok(pair) => {
                    recovered = Some(pair);
                    break;
                }
                Err(e) => {
                    skipped += 1;
                    last_err = Some(e);
                }
            }
        }
        let Some((snap, mgr)) = recovered else {
            return Err(
                last_err.unwrap_or_else(|| DeviceError::Internal("no recoverable snapshot".into()))
            );
        };
        if skipped > 0 {
            zns.nand()
                .ledger()
                .bump("dev_snapshot_generations_skipped", skipped);
        }
        let km = KeyspaceManager::new();

        let mut referenced: Vec<ClusterId> = Vec::new();
        let mut recompact: Vec<u32> = Vec::new();
        let mut rewal: Vec<u32> = Vec::new();
        for mut ks in snap.keyspaces {
            match ks.state() {
                KeyspaceState::Writable => {
                    let wal = ks.storage.dwal.take();
                    // The DRAM ingest buffer is gone either way; without a
                    // WAL the keyspace restarts EMPTY, with one its synced
                    // records are replayed below.
                    ks.transition_to(KeyspaceState::Empty)?;
                    ks.pairs = 0;
                    ks.data_bytes = 0;
                    ks.min_key = None;
                    ks.max_key = None;
                    ks.storage = Default::default();
                    if let Some(w) = wal {
                        ks.storage.dwal = Some(w);
                        rewal.push(ks.id);
                    }
                }
                KeyspaceState::Compacting => recompact.push(ks.id),
                _ => {}
            }
            referenced.extend(ks.storage.clusters());
            km.insert_restored(ks);
        }
        // Orphan cleanup: anything the snapshot's cluster map holds that
        // no keyspace references was in-flight at crash time.
        for cs in &snap.zones.clusters {
            let id = ClusterId(cs.id);
            if !referenced.contains(&id) {
                mgr.release_cluster(id)?;
            }
        }

        let dev = Self::assemble(&zns, cost, cfg, mgr, km, meta);
        for ks in recompact {
            dev.jobs.submit(Job::Compact { ks, specs: vec![] }, None);
        }
        for ks in rewal {
            dev.replay_wal(ks)?;
        }
        dev.persist()?;
        Ok(dev)
    }

    /// Rebuild a WRITABLE keyspace's ingest state by replaying its WAL.
    fn replay_wal(&self, ks: u32) -> Result<()> {
        let wal_cluster = self.km.with(ks, |k| {
            k.storage
                .dwal
                .as_ref()
                .map(|w| w.cluster())
                .ok_or_else(|| DeviceError::Internal("replay without wal".into()))
        })?;
        // Block count comes from the zones' write pointers (ground truth).
        let wal_blocks = self.mgr.cluster_blocks(wal_cluster)?;
        let (ingest, mut wlog) = self.open_write_log()?;
        let mut soc = self.soc.tally();
        let replayed =
            crate::wal::DeviceWal::replay(&self.mgr, wal_cluster, wal_blocks, |k, v| {
                wlog.put(&self.mgr, &mut soc, &k, &v)
            })?;
        drop(soc);
        self.soc.ledger().bump("dev_wal_replayed_records", replayed);
        self.km.with_mut(ks, |k| {
            k.transition_to(KeyspaceState::Writable)?;
            k.pairs = wlog.pairs;
            k.data_bytes = wlog.data_bytes;
            k.min_key = wlog.min_key.clone();
            k.max_key = wlog.max_key.clone();
            k.storage.wlog = Some(wlog);
            k.storage.dwal = Some(crate::wal::DeviceWal::resume(wal_cluster, wal_blocks));
            Ok(())
        })?;
        ingest.leak();
        Ok(())
    }

    /// Open a write log: the ingest buffer in SoC DRAM plus KLOG and VLOG
    /// clusters at stripe width. The returned guard releases the buffer if
    /// a later step fails; on success the caller leaks it into the
    /// keyspace, which releases it at seal or delete.
    fn open_write_log(&self) -> Result<(DramReservation<'_>, WriteLog)> {
        let ingest = self
            .dram
            .reserve(INGEST_BUFFER_BYTES as u64)
            .ok_or(DeviceError::OutOfDram("ingest DRAM"))?;
        let kc = self.mgr.alloc_log_cluster(self.cfg.cluster_width)?;
        let vc = self.mgr.alloc_log_cluster(self.cfg.cluster_width)?;
        Ok((ingest, WriteLog::new(kc, vc)))
    }

    /// Seal `k`'s write log in place and move it to `to`. If the flush
    /// hits a flash error the log stays in `storage` (still WRITABLE) and
    /// the client may retry; only a successful seal takes it out. Returns
    /// the WAL cluster for [`Self::retire_write_log`].
    fn seal_write_log(&self, k: &mut Keyspace, to: KeyspaceState) -> Result<Option<ClusterId>> {
        let wlog = k
            .storage
            .wlog
            .as_mut()
            .ok_or_else(|| DeviceError::Internal("writable without wlog".into()))?;
        let (klen, vlen) = wlog.seal(&self.mgr)?;
        let (kc, vc) = (wlog.klog.cluster(), wlog.vlog.cluster());
        k.storage.wlog = None;
        k.storage.klog = Some((kc, klen));
        k.storage.vlog = Some((vc, vlen));
        k.transition_to(to)?;
        // Once the logs are sealed every pair is durable on flash; the
        // WAL has served its purpose.
        Ok(k.storage.dwal.take().map(|w| w.cluster()))
    }

    /// Finish a seal: release the ingest buffer, persist, then free the
    /// WAL. The WAL goes only once the sealed state is durable: until then
    /// the last snapshot still replays it, and a cut in between leaves it
    /// to reopen's orphan sweep.
    fn retire_write_log(&self, wal: Option<ClusterId>) -> Result<()> {
        self.dram.release(INGEST_BUFFER_BYTES as u64);
        self.persist()?;
        if let Some(c) = wal {
            let _ = self.mgr.release_cluster(c);
        }
        Ok(())
    }

    /// Serialize the device state into the metadata zone. Called after
    /// every keyspace-table mutation.
    pub fn persist(&self) -> Result<()> {
        let zones = self.mgr.export_state();
        let payload = self
            .km
            .with_all(|list| snapshot::encode_parts(&zones, list));
        self.meta.lock().write(&payload)
    }

    /// Snapshots written to the metadata zone so far.
    pub fn persisted_snapshots(&self) -> u64 {
        self.meta.lock().snapshots_written()
    }

    // ---- replication artifact hooks ----------------------------------------

    /// Export a keyspace's durable artifacts for replication.
    ///
    /// What is exported depends on the compaction phase:
    /// * COMPACTING / DEGRADED (and READ_ONLY holding raw logs): the
    ///   sealed KLOG/VLOG pair — every sealed pair is in the payload, so
    ///   a replica installing it loses nothing acked-and-sealed even if
    ///   this primary dies mid-compaction;
    /// * COMPACTED (and READ_ONLY with its index intact): the built
    ///   primary/secondary indexes and sorted values, installed verbatim
    ///   by the importer — no re-compaction on the replica.
    ///
    /// WRITABLE and EMPTY keyspaces have nothing cluster-durable to ship
    /// (the ingest buffer is volatile by contract) and return a typed
    /// state error. All NAND reads are charged to the ledger as usual —
    /// replication export is honestly costed.
    pub fn export_keyspace_artifacts(&self, ks: u32) -> Result<KeyspaceArtifacts> {
        let art = self.km.with(ks, |k| {
            let s = &k.storage;
            let payload = if let (Some(pidx), Some((vc, vlen))) = (&s.pidx, s.svalues) {
                let sidx = s
                    .sidx
                    .values()
                    .map(|i| {
                        Ok(SidxArtifact {
                            spec: i.spec.clone(),
                            entries: i.entries,
                            index: self.export_index(&i.index)?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                ArtifactPayload::Compacted {
                    pidx: self.export_index(pidx)?,
                    svalues: self.mgr.read_bytes(vc, 0, vlen as usize)?,
                    sidx,
                }
            } else if let (Some((kc, klen)), Some((vc, vlen))) = (s.klog, s.vlog) {
                ArtifactPayload::SealedLogs {
                    klog: self.mgr.read_bytes(kc, 0, klen as usize)?,
                    vlog: self.mgr.read_bytes(vc, 0, vlen as usize)?,
                }
            } else {
                return Err(DeviceError::BadState {
                    state: k.state().name(),
                    op: "export_artifacts",
                });
            };
            Ok(KeyspaceArtifacts {
                name: k.name.clone(),
                pairs: k.pairs,
                data_bytes: k.data_bytes,
                min_key: k.min_key.clone(),
                max_key: k.max_key.clone(),
                payload,
            })
        })?;
        self.soc.ledger().bump("dev_artifacts_exported", 1);
        Ok(art)
    }

    /// Install a shipped artifact, superseding any same-name keyspace.
    ///
    /// `SealedLogs` payloads install DEGRADED — exactly the state a
    /// crashed-mid-compaction keyspace reopens in — so a subsequent
    /// COMPACT command walks the ordinary DEGRADED → COMPACTING recovery
    /// edge. `Compacted` payloads install fully queryable, verbatim.
    /// Returns the new keyspace id. On error mid-install the keyspace is
    /// absent from the table; any clusters already written are reclaimed
    /// as orphans by the next reopen.
    pub fn import_keyspace_artifacts(&self, art: &KeyspaceArtifacts) -> Result<u32> {
        if let Ok(existing) = self.km.lookup(&art.name) {
            self.do_delete(existing)?;
        }
        let id = self.km.create(&art.name)?;
        let mut storage = KsStorage::default();
        let compacted = match &art.payload {
            ArtifactPayload::SealedLogs { klog, vlog } => {
                let kc = self.write_artifact_cluster(klog, true)?;
                storage.klog = Some((kc, klog.len() as u64));
                let vc = self.write_artifact_cluster(vlog, true)?;
                storage.vlog = Some((vc, vlog.len() as u64));
                false
            }
            ArtifactPayload::Compacted {
                pidx,
                svalues,
                sidx,
            } => {
                storage.pidx = Some(self.import_index(pidx)?);
                let vc = self.write_artifact_cluster(svalues, false)?;
                storage.svalues = Some((vc, svalues.len() as u64));
                for s in sidx {
                    let index = SecondaryIndex {
                        spec: s.spec.clone(),
                        index: self.import_index(&s.index)?,
                        entries: s.entries,
                    };
                    storage.sidx.insert(s.spec.name.clone(), index);
                }
                true
            }
        };
        self.km.with_mut(id, |k| {
            k.pairs = art.pairs;
            k.data_bytes = art.data_bytes;
            k.min_key = art.min_key.clone();
            k.max_key = art.max_key.clone();
            k.storage = storage;
            if compacted {
                return k.transition_to(KeyspaceState::Compacted);
            }
            // The primary's sealed-log phase, reinstalled verbatim (EMPTY
            // has no edge to DEGRADED); promotion re-enters the table
            // through the checked DEGRADED -> COMPACTING transition.
            k.restore_state(KeyspaceState::Degraded);
            Ok(())
        })?;
        self.persist()?;
        self.soc.ledger().bump("dev_artifacts_imported", 1);
        Ok(id)
    }

    /// A built index's blocks and pivots, read for shipping.
    fn export_index(&self, index: &BlockIndex) -> Result<IndexArtifact> {
        Ok(IndexArtifact {
            data: self
                .mgr
                .read_bytes(index.cluster, 0, index.blocks as usize * BLOCK_BYTES)?,
            pivots: index.sketch.pivots().to_vec(),
        })
    }

    /// Install a shipped index verbatim in a fresh cluster.
    fn import_index(&self, art: &IndexArtifact) -> Result<BlockIndex> {
        Ok(BlockIndex {
            cluster: self.write_artifact_cluster(&art.data, false)?,
            blocks: (art.data.len() / BLOCK_BYTES) as u32,
            sketch: Sketch::from_pivots(art.pivots.clone()),
        })
    }

    /// Append `data` into a fresh cluster in 4 KiB blocks, laid out as a
    /// write log when `log` (a sealed KLOG or VLOG).
    fn write_artifact_cluster(&self, data: &[u8], log: bool) -> Result<ClusterId> {
        let width = self.cfg.cluster_width;
        let c = if log {
            self.mgr.alloc_log_cluster(width)?
        } else {
            self.mgr.alloc_cluster(width)?
        };
        for chunk in data.chunks(BLOCK_BYTES) {
            self.mgr.append_block(c, chunk)?;
        }
        Ok(c)
    }

    /// The zone manager (diagnostics).
    pub fn zone_manager(&self) -> &ZoneManager {
        &self.mgr
    }

    /// The keyspace manager (diagnostics).
    pub fn keyspaces(&self) -> &KeyspaceManager {
        &self.km
    }

    /// SoC DRAM budget (diagnostics).
    pub fn dram(&self) -> &DramBudget {
        &self.dram
    }

    /// The SoC cost charger (diagnostics / ledger access).
    pub fn soc(&self) -> &SocCharger {
        &self.soc
    }

    /// Jobs waiting to run. Reads the cached depth gauge — pressure
    /// probes don't contend on the job lock.
    pub fn pending_jobs(&self) -> usize {
        self.jobs.depth()
    }

    /// The admission gate (diagnostics: `is_engaged`, watermarks).
    pub fn admission_gate(&self) -> &AdmissionGate {
        &self.gate
    }

    /// The virtual clock deadlines are checked against.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Pressure sample for the three admission signals, targeting `ks`.
    fn pressure_for(&self, ks: u32) -> PressureSample {
        PressureSample {
            dram_usage: self.dram.usage_fraction(),
            pending_jobs: self.pending_jobs(),
            compaction_debt: self.km.with(ks, |k| Ok(k.data_bytes)).unwrap_or(0),
        }
    }

    /// Charge a simulated admission delay to the clock and the ledger.
    fn charge_wait(&self, ns: u64, counter: &'static str) {
        self.clock.advance(ns);
        self.soc.ledger().bump(counter, 1);
        self.soc.ledger().bump("dev_admission_wait_ns", ns);
    }

    /// Gate a write-path command: slowdowns are charged and admitted,
    /// stalls are charged and bounced (`Stalled`), rejects fail fast
    /// (`Busy`). The deadline is re-checked after any charged wait.
    fn admit_write(&self, ks: u32, deadline: &Deadline<'_>) -> Result<()> {
        match self.gate.admit_write(&self.pressure_for(ks)) {
            Decision::Admit => Ok(()),
            Decision::Slowdown { charge_ns } => {
                self.charge_wait(charge_ns, "dev_admission_slowdowns");
                deadline.check()
            }
            Decision::Stall { charge_ns } => {
                self.charge_wait(charge_ns, "dev_admission_stalls");
                deadline.check()?;
                Err(DeviceError::Stalled)
            }
            Decision::Reject { reason } => {
                self.soc.ledger().bump("dev_admission_rejects", 1);
                Err(DeviceError::Busy(reason))
            }
        }
    }

    /// Gate a query: at most a charged slowdown, never a stall or reject.
    fn admit_query(&self, ks: u32, deadline: &Deadline<'_>) -> Result<()> {
        if let Decision::Slowdown { charge_ns } = self.gate.admit_query(&self.pressure_for(ks)) {
            self.charge_wait(charge_ns, "dev_admission_slowdowns");
            deadline.check()?;
        }
        Ok(())
    }

    /// Gate a job submission: a full queue is an admission rejection and
    /// counts as one, exactly like a rejected write.
    fn admit_job(&self) -> Result<()> {
        self.gate.admit_job(self.pending_jobs()).inspect_err(|_| {
            self.soc.ledger().bump("dev_admission_rejects", 1);
        })
    }

    // ---- command implementations --------------------------------------------

    fn ensure_writable(&self, ks: u32) -> Result<()> {
        // EMPTY -> WRITABLE on first write: allocate the log clusters and
        // the 192 KiB ingest buffer.
        let needs_open = self.km.with(ks, |k| match k.state() {
            KeyspaceState::Writable => Ok(false),
            KeyspaceState::Empty => Ok(true),
            _ => Err(DeviceError::BadState {
                state: k.state().name(),
                op: "put",
            }),
        })?;
        if !needs_open {
            return Ok(());
        }
        let (ingest, wlog) = self.open_write_log()?;
        let wal = if self.cfg.wal {
            Some(crate::wal::DeviceWal::new(
                self.mgr.alloc_cluster(self.cfg.cluster_width)?,
            ))
        } else {
            None
        };
        let opened = self.km.with_mut(ks, |k| {
            // Double-check under the lock (another thread may have opened).
            if k.state() == KeyspaceState::Writable {
                return Ok(false);
            }
            k.storage.wlog = Some(wlog);
            k.storage.dwal = wal;
            k.transition_to(KeyspaceState::Writable)?;
            Ok(true)
        })?;
        if opened {
            ingest.leak();
        }
        self.persist()?;
        Ok(())
    }

    /// Admit, then write `pairs` in order and count them as puts.
    ///
    /// Every key is checked before any pair is written, and the pairs are
    /// written under one hold of the keyspace lock, so a command lands
    /// whole or not at all: a bad key rejects all of it (`BadPayload`),
    /// and a COMPACT that seals the log first turns all of it away
    /// (`BadState`). Only a device error part-way (out of space, a flash
    /// fault) leaves a prefix written; space exhaustion then freezes the
    /// keyspace READ_ONLY (see [`Self::freeze_writable_read_only`]) before
    /// the error surfaces.
    fn put_pairs<'a>(
        &self,
        ks: u32,
        deadline: &Deadline<'_>,
        pairs: impl Iterator<Item = (&'a [u8], &'a [u8])> + Clone,
    ) -> Result<u64> {
        self.admit_write(ks, deadline)?;
        if pairs
            .clone()
            .any(|(key, _)| key.is_empty() || key.len() > u16::MAX as usize)
        {
            return Err(DeviceError::BadPayload("key length".into()));
        }
        match self
            .ensure_writable(ks)
            .and_then(|()| self.write_pairs(ks, pairs))
        {
            Ok(inserted) => {
                self.soc.ledger().bump("dev_puts", inserted);
                Ok(inserted)
            }
            Err(e) => {
                if Self::is_space_exhaustion(&e) {
                    self.freeze_writable_read_only(ks);
                }
                Err(e)
            }
        }
    }

    /// Write `pairs` into a WRITABLE keyspace's log, each one's WAL record
    /// first, and bring the keyspace record up to date with what was
    /// written, also when a pair fails part-way.
    fn write_pairs<'a>(
        &self,
        ks: u32,
        pairs: impl IntoIterator<Item = (&'a [u8], &'a [u8])>,
    ) -> Result<u64> {
        let mut soc = self.soc.tally();
        self.km.with_mut(ks, |k| {
            k.require_state(KeyspaceState::Writable, "put")?;
            let KsStorage {
                wlog: Some(wlog),
                dwal,
                ..
            } = &mut k.storage
            else {
                return Err(DeviceError::Internal("writable without wlog".into()));
            };
            let mut inserted = 0u64;
            let written = pairs.into_iter().try_for_each(|(key, value)| {
                // Write-ahead: the WAL record lands before the ingest buffer.
                if let Some(dwal) = dwal.as_mut() {
                    dwal.append(&self.mgr, &mut soc, key, value)?;
                }
                wlog.put(&self.mgr, &mut soc, key, value)?;
                inserted += 1;
                Ok(())
            });
            k.pairs = wlog.pairs;
            k.data_bytes = wlog.data_bytes;
            k.min_key.clone_from(&wlog.min_key);
            k.max_key.clone_from(&wlog.max_key);
            written.map(|()| inserted)
        })
    }

    /// True for errors that mean the *device* is out of space (zones),
    /// as opposed to a transient fault or a caller mistake.
    fn is_space_exhaustion(e: &DeviceError) -> bool {
        matches!(
            e,
            DeviceError::OutOfZones { .. }
                | DeviceError::Flash(kvcsd_flash::FlashError::DeviceFull)
        )
    }

    /// Graceful degradation on space exhaustion: seal the write log in
    /// place (idempotent — every synced pair becomes durable in KLOG/VLOG)
    /// and freeze the keyspace READ_ONLY. Writes now fail fast with a
    /// typed state error instead of re-discovering the exhaustion; a later
    /// re-compaction or space reclaim transitions back.
    fn freeze_writable_read_only(&self, ks: u32) {
        let sealed = self.km.with_mut(ks, |k| {
            if k.state() != KeyspaceState::Writable {
                return Ok(None);
            }
            self.seal_write_log(k, KeyspaceState::ReadOnly).map(Some)
        });
        // On Err the seal failed (keyspace stays WRITABLE, client may
        // retry the put); on Ok(None) the keyspace was not WRITABLE:
        // nothing to freeze either way.
        if let Ok(Some(wal)) = sealed {
            self.soc.ledger().bump("dev_keyspaces_readonly", 1);
            // Persist may fail on an exhausted device; reopen's recovery
            // path then replays the WAL the old snapshot still names.
            let _ = self.retire_write_log(wal);
        }
    }

    fn do_compact(
        &self,
        ks: u32,
        specs: Vec<SecondaryIndexSpec>,
        deadline_ns: Option<u64>,
    ) -> Result<JobId> {
        enum Seal {
            /// Logs sealed now; the WAL cluster (if any) can be released.
            Sealed(Option<ClusterId>),
            /// DEGRADED keyspace: logs were already sealed, just re-run.
            Resealed,
            /// Empty keyspace: trivially compacted, no job to run.
            Empty,
        }
        // Seal the logs and flip to COMPACTING synchronously (cheap); the
        // sort itself is the deferred job.
        let sealed = self.km.with_mut(ks, |k| match k.state() {
            KeyspaceState::Writable => self
                .seal_write_log(k, KeyspaceState::Compacting)
                .map(Seal::Sealed),
            // Compacting an empty keyspace: trivially queryable.
            KeyspaceState::Empty => k
                .transition_to(KeyspaceState::Compacted)
                .map(|()| Seal::Empty),
            // A DEGRADED or READ_ONLY keyspace keeps its sealed logs;
            // re-compaction is just re-entering COMPACTING and re-running
            // the job (for READ_ONLY this is the recovery path once space
            // has been reclaimed).
            KeyspaceState::Degraded | KeyspaceState::ReadOnly
                if k.storage.klog.is_some() && k.storage.vlog.is_some() =>
            {
                k.transition_to(KeyspaceState::Compacting)
                    .map(|()| Seal::Resealed)
            }
            _ => Err(DeviceError::BadState {
                state: k.state().name(),
                op: "compact",
            }),
        })?;
        match sealed {
            Seal::Sealed(wal) => self.retire_write_log(wal)?,
            Seal::Resealed | Seal::Empty => self.persist()?,
        }
        Ok(match sealed {
            Seal::Empty => self.jobs.submit_done(),
            _ => self.jobs.submit(Job::Compact { ks, specs }, deadline_ns),
        })
    }

    fn do_delete(&self, ks: u32) -> Result<()> {
        self.run_jobs_for(ks);
        let record = self.km.remove(ks)?;
        if record.storage.wlog.is_some() {
            self.dram.release(INGEST_BUFFER_BYTES as u64);
        }
        // Space is about to be reclaimed: keyspaces that froze READ_ONLY
        // *after* their compaction finished (index intact) are fully
        // queryable again and transition back to COMPACTED. Ones still
        // holding raw logs need a client-driven re-compaction instead.
        self.thaw_read_only_keyspaces();
        self.persist()?;
        // Free every cluster the keyspace owned, now that no durable
        // snapshot names them; zone resets reclaim space without any
        // device-side GC (the ZNS advantage). A cut part-way leaves the
        // rest to reopen's orphan sweep.
        for c in record.storage.clusters() {
            self.mgr.release_cluster(c)?;
        }
        Ok(())
    }

    /// READ_ONLY -> COMPACTED for every frozen keyspace whose primary
    /// index survived; called whenever zones are returned to the pool.
    fn thaw_read_only_keyspaces(&self) {
        let ids: Vec<u32> = self.km.with_all(|list| {
            list.iter()
                .filter(|k| k.state() == KeyspaceState::ReadOnly && k.storage.pidx.is_some())
                .map(|k| k.id)
                .collect()
        });
        for id in ids {
            let thawed = self.km.with_mut(id, |k| {
                if k.state() == KeyspaceState::ReadOnly && k.storage.pidx.is_some() {
                    k.transition_to(KeyspaceState::Compacted)?;
                    return Ok(true);
                }
                Ok(false)
            });
            if matches!(thawed, Ok(true)) {
                self.soc.ledger().bump("dev_keyspaces_thawed", 1);
            }
        }
    }

    /// The query arms' shared gate: admit, count the op under `counter`,
    /// and serve `f` from the keyspace's storage once it is queryable.
    /// COMPACTED serves everything; READ_ONLY keeps serving from its
    /// primary index when the freeze happened *after* compaction
    /// (graceful degradation — reads outlive writes).
    fn query<T>(
        &self,
        ks: u32,
        deadline: &Deadline<'_>,
        counter: &'static str,
        op: &'static str,
        f: impl FnOnce(&KsStorage) -> Result<T>,
    ) -> Result<T> {
        self.admit_query(ks, deadline)?;
        self.soc.ledger().bump(counter, 1);
        self.km.with(ks, |k| match k.state() {
            KeyspaceState::Compacted => f(&k.storage),
            KeyspaceState::ReadOnly if k.storage.pidx.is_some() => f(&k.storage),
            _ => Err(DeviceError::BadState {
                state: k.state().name(),
                op,
            }),
        })
    }

    fn stat(&self, ks: u32) -> Result<KeyspaceStat> {
        self.km.with(ks, |k| {
            Ok(KeyspaceStat {
                id: k.id,
                name: k.name.clone(),
                state: k.state(),
                num_pairs: k.pairs,
                min_key: k.min_key.clone(),
                max_key: k.max_key.clone(),
                secondary_indexes: k.storage.sidx.keys().cloned().collect(),
                data_bytes: k.data_bytes,
            })
        })
    }
}

/// Reject index specs the device could only fail on later: a key type
/// whose width disagrees with `value_len`, or a name used twice in one
/// request.
fn validate_specs(specs: &[SecondaryIndexSpec]) -> Result<()> {
    for (i, spec) in specs.iter().enumerate() {
        if spec.key_type.width().is_some_and(|w| w != spec.value_len) {
            return Err(DeviceError::BadIndexSpec);
        }
        if specs[..i].iter().any(|s| s.name == spec.name) {
            return Err(DeviceError::IndexExists);
        }
    }
    Ok(())
}

impl DeviceHandler for KvCsdDevice {
    fn handle(&self, cmd: KvCommand) -> KvResponse {
        let (deadline_ns, cmd) = cmd.unwrap_deadline();
        let deadline = Deadline::new(&self.clock, deadline_ns);
        let result: Result<KvResponse> = (|| {
            deadline.check()?;
            match cmd {
                KvCommand::CreateKeyspace { name } => {
                    let id = self.km.create(&name)?;
                    self.persist()?;
                    Ok(KvResponse::Created { ks: id })
                }
                KvCommand::OpenKeyspace { name } => {
                    let id = self.km.lookup(&name)?;
                    let state = self.km.with(id, |k| Ok(k.state()))?;
                    Ok(KvResponse::Opened { ks: id, state })
                }
                KvCommand::ListKeyspaces => {
                    let list = self
                        .km
                        .list()
                        .into_iter()
                        .map(|(id, name, state)| KeyspaceDesc { id, name, state })
                        .collect();
                    Ok(KvResponse::Keyspaces(list))
                }
                KvCommand::DeleteKeyspace { ks } => {
                    self.do_delete(ks)?;
                    Ok(KvResponse::Deleted)
                }
                KvCommand::Put { ks, key, value } => {
                    self.put_pairs(ks, &deadline, [(&key[..], &value[..])].into_iter())?;
                    Ok(KvResponse::PutOk)
                }
                KvCommand::BulkPut { ks, payload } => {
                    let inserted = self.put_pairs(ks, &deadline, payload.iter())?;
                    self.soc.ledger().bump("dev_bulk_puts", 1);
                    Ok(KvResponse::BulkPutOk { inserted })
                }
                KvCommand::Flush { ks } => {
                    self.km.with_mut(ks, |k| {
                        if let Some(dwal) = k.storage.dwal.as_mut() {
                            dwal.sync(&self.mgr)?;
                        }
                        Ok(())
                    })?;
                    Ok(KvResponse::Flushed)
                }
                KvCommand::Compact { ks } => {
                    self.admit_job()?;
                    let job = self.do_compact(ks, Vec::new(), deadline.deadline_ns())?;
                    Ok(KvResponse::JobStarted { job })
                }
                KvCommand::CompactAndIndex { ks, specs } => {
                    self.admit_job()?;
                    validate_specs(&specs)?;
                    let job = self.do_compact(ks, specs, deadline.deadline_ns())?;
                    Ok(KvResponse::JobStarted { job })
                }
                KvCommand::BuildSecondaryIndex { ks, spec } => {
                    self.admit_job()?;
                    // Validate state and name collision up front so the
                    // host hears about mistakes synchronously.
                    self.km.with(ks, |k| {
                        k.require_state(KeyspaceState::Compacted, "build_sidx")?;
                        if k.storage.sidx.contains_key(&spec.name) {
                            return Err(DeviceError::IndexExists);
                        }
                        Ok(())
                    })?;
                    validate_specs(std::slice::from_ref(&spec))?;
                    let job = self
                        .jobs
                        .submit(Job::BuildSidx { ks, spec }, deadline.deadline_ns());
                    Ok(KvResponse::JobStarted { job })
                }
                KvCommand::PollJob { job } => {
                    let state = self.jobs.state(job).ok_or(DeviceError::JobNotFound)?;
                    Ok(KvResponse::Job { state })
                }
                KvCommand::Get { ks, key } => self
                    .query(ks, &deadline, "dev_gets", "get", |s| {
                        query::point_get(&self.mgr, &self.soc, s, &key)
                    })
                    .map(KvResponse::Value),
                KvCommand::Range { ks, lo, hi, limit } => self
                    .query(ks, &deadline, "dev_ranges", "range", |s| {
                        query::range(&self.mgr, &self.soc, s, &lo, &hi, limit)
                    })
                    .map(KvResponse::Entries),
                KvCommand::SidxGet { ks, index, key } => self
                    .query(ks, &deadline, "dev_sidx_gets", "sidx_get", |s| {
                        query::sidx_get(&self.mgr, &self.soc, s, &index, &key.encode())
                    })
                    .map(KvResponse::Entries),
                KvCommand::SidxRange {
                    ks,
                    index,
                    lo,
                    hi,
                    limit,
                } => self
                    .query(ks, &deadline, "dev_sidx_ranges", "sidx_range", |s| {
                        query::sidx_range(&self.mgr, &self.soc, s, &index, &lo, &hi, limit)
                    })
                    .map(KvResponse::Entries),
                KvCommand::Stat { ks } => Ok(KvResponse::Stat(self.stat(ks)?)),
                // unwrap_deadline strips every wrapper before this match.
                KvCommand::WithDeadline { .. } => Err(DeviceError::Internal(
                    "deadline wrapper not stripped".into(),
                )),
            }
        })();
        match result {
            Ok(resp) => resp,
            Err(e) => KvResponse::Err(KvStatus::from(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceStack;
    use kvcsd_flash::{FlashGeometry, ZnsConfig};
    use kvcsd_proto::{Bound, BulkBuilder, JobState, SecondaryKeyType, SidxKey};

    const GEOM: FlashGeometry = FlashGeometry {
        channels: 8,
        blocks_per_channel: 256,
        pages_per_block: 16,
        page_bytes: 4096,
    };

    fn config(soc_dram_bytes: u64) -> DeviceConfig {
        DeviceConfig {
            cluster_width: 8,
            soc_dram_bytes,
            seed: 1,
            ..DeviceConfig::default()
        }
    }

    /// A stack whose device is [`device`]'s, for tests that arm faults
    /// or power-cycle.
    fn stack() -> DeviceStack {
        DeviceStack::new(GEOM, ZnsConfig::default(), config(8 << 20))
    }

    fn device() -> Arc<KvCsdDevice> {
        Arc::clone(stack().device())
    }

    fn ok(resp: KvResponse) -> KvResponse {
        match resp {
            KvResponse::Err(e) => panic!("unexpected error: {e}"),
            other => other,
        }
    }

    fn create(dev: &KvCsdDevice, name: &str) -> u32 {
        match ok(dev.handle(KvCommand::CreateKeyspace { name: name.into() })) {
            KvResponse::Created { ks } => ks,
            other => panic!("{other:?}"),
        }
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }
    fn value(i: u32) -> Vec<u8> {
        let mut v = vec![0x5A; 32];
        v[28..].copy_from_slice(&(i as f32).to_le_bytes());
        v
    }

    fn load_and_compact(dev: &KvCsdDevice, ks: u32, n: u32) {
        for i in (0..n).rev() {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        ok(dev.handle(KvCommand::Compact { ks }));
        dev.run_pending_jobs();
    }

    #[test]
    fn reopen_fails_loudly_when_both_meta_generations_are_destroyed() {
        let mut stack = stack();
        let dev = stack.device();
        let ks = create(dev, "a");
        load_and_compact(dev, ks, 100);
        // Scribble over both ping-pong zones: every durable generation is
        // gone but debris proves generations existed.
        let zns = stack.zns();
        zns.reset(0).unwrap();
        zns.reset(1).unwrap();
        zns.append(0, &[0xAA; 64]).unwrap();
        zns.append(1, &[0xBB; 64]).unwrap();
        let err = stack.power_cycle().unwrap_err();
        assert_eq!(err, DeviceError::CorruptMetadata);
        // And the protocol surface is a persistent media error, never a
        // silently-empty device.
        assert!(matches!(KvStatus::from(err), KvStatus::MediaError(_)));
    }

    #[test]
    fn compacted_artifacts_install_verbatim_on_a_peer_device() {
        let dev = device();
        let ks = create(&dev, "a");
        load_and_compact(&dev, ks, 500);
        ok(dev.handle(KvCommand::BuildSecondaryIndex {
            ks,
            spec: SecondaryIndexSpec {
                name: "energy".into(),
                value_offset: 28,
                value_len: 4,
                key_type: SecondaryKeyType::F32,
            },
        }));
        dev.run_pending_jobs();
        let art = dev.export_keyspace_artifacts(ks).unwrap();
        assert_eq!(art.ship_kind(), kvcsd_proto::ShipKind::Compacted);
        assert_eq!(art.pairs, 500);

        let peer = device();
        let pid = peer.import_keyspace_artifacts(&art).unwrap();
        for i in [0u32, 123, 499] {
            match ok(peer.handle(KvCommand::Get {
                ks: pid,
                key: key(i),
            })) {
                KvResponse::Value(v) => assert_eq!(v, value(i)),
                other => panic!("{other:?}"),
            }
        }
        // The shipped secondary index serves queries without a rebuild.
        match ok(peer.handle(KvCommand::SidxGet {
            ks: pid,
            index: "energy".into(),
            key: SidxKey::F32(42.0),
        })) {
            KvResponse::Entries(es) => assert_eq!(es.len(), 1),
            other => panic!("{other:?}"),
        }
        // The point of index replication: the peer never re-compacted.
        assert_eq!(peer.soc().ledger().custom("dev_compactions"), 0);
        assert_eq!(peer.soc().ledger().custom("dev_sidx_builds"), 0);
        assert_eq!(peer.soc().ledger().custom("dev_artifacts_imported"), 1);
    }

    #[test]
    fn sealed_log_artifacts_recover_through_degraded_compaction() {
        let dev = device();
        let ks = create(&dev, "a");
        for i in 0..200u32 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        // Seal synchronously; the sort job stays queued — this is the
        // mid-compaction window a primary can die in.
        ok(dev.handle(KvCommand::Compact { ks }));
        let art = dev.export_keyspace_artifacts(ks).unwrap();
        assert_eq!(art.ship_kind(), kvcsd_proto::ShipKind::SealedLogs);

        let peer = device();
        let pid = peer.import_keyspace_artifacts(&art).unwrap();
        peer.keyspaces()
            .with(pid, |k| {
                assert_eq!(k.state(), KeyspaceState::Degraded);
                Ok(())
            })
            .unwrap();
        // Promotion re-enters compaction via the checked DEGRADED edge.
        ok(peer.handle(KvCommand::Compact { ks: pid }));
        peer.run_pending_jobs();
        for i in [0u32, 57, 199] {
            match ok(peer.handle(KvCommand::Get {
                ks: pid,
                key: key(i),
            })) {
                KvResponse::Value(v) => assert_eq!(v, value(i)),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn importing_an_artifact_supersedes_the_same_name_keyspace() {
        let dev = device();
        let ks = create(&dev, "a");
        load_and_compact(&dev, ks, 50);
        let art = dev.export_keyspace_artifacts(ks).unwrap();
        let peer = device();
        let first = peer.import_keyspace_artifacts(&art).unwrap();
        let second = peer.import_keyspace_artifacts(&art).unwrap();
        assert_ne!(first, second);
        assert_eq!(peer.keyspaces().len(), 1);
        assert_eq!(peer.keyspaces().lookup("a").unwrap(), second);
    }

    #[test]
    fn writable_keyspaces_have_nothing_durable_to_export() {
        let dev = device();
        let ks = create(&dev, "a");
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key(1),
            value: value(1),
        }));
        assert!(matches!(
            dev.export_keyspace_artifacts(ks),
            Err(DeviceError::BadState {
                op: "export_artifacts",
                ..
            })
        ));
    }

    #[test]
    fn keyspace_lifecycle_states() {
        let dev = device();
        let ks = create(&dev, "a");
        let state = |dev: &KvCsdDevice| match ok(
            dev.handle(KvCommand::OpenKeyspace { name: "a".into() })
        ) {
            KvResponse::Opened { state, .. } => state,
            other => panic!("{other:?}"),
        };
        assert_eq!(state(&dev), KeyspaceState::Empty);
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key(1),
            value: value(1),
        }));
        assert_eq!(state(&dev), KeyspaceState::Writable);
        ok(dev.handle(KvCommand::Compact { ks }));
        assert_eq!(state(&dev), KeyspaceState::Compacting);
        dev.run_pending_jobs();
        assert_eq!(state(&dev), KeyspaceState::Compacted);
    }

    #[test]
    fn put_rejected_while_compacting_and_after() {
        let dev = device();
        let ks = create(&dev, "a");
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key(1),
            value: value(1),
        }));
        ok(dev.handle(KvCommand::Compact { ks }));
        let r = dev.handle(KvCommand::Put {
            ks,
            key: key(2),
            value: value(2),
        });
        assert!(matches!(
            r,
            KvResponse::Err(KvStatus::BadKeyspaceState { .. })
        ));
        dev.run_pending_jobs();
        let r = dev.handle(KvCommand::Put {
            ks,
            key: key(2),
            value: value(2),
        });
        assert!(matches!(
            r,
            KvResponse::Err(KvStatus::BadKeyspaceState { .. })
        ));
    }

    #[test]
    fn queries_rejected_before_compaction() {
        let dev = device();
        let ks = create(&dev, "a");
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key(1),
            value: value(1),
        }));
        let r = dev.handle(KvCommand::Get { ks, key: key(1) });
        assert!(matches!(
            r,
            KvResponse::Err(KvStatus::BadKeyspaceState { .. })
        ));
    }

    #[test]
    fn end_to_end_put_compact_get() {
        let dev = device();
        let ks = create(&dev, "data");
        load_and_compact(&dev, ks, 2000);
        for i in [0u32, 7, 999, 1999] {
            match ok(dev.handle(KvCommand::Get { ks, key: key(i) })) {
                KvResponse::Value(v) => assert_eq!(v, value(i), "key {i}"),
                other => panic!("{other:?}"),
            }
        }
        let r = dev.handle(KvCommand::Get {
            ks,
            key: b"missing".to_vec(),
        });
        assert!(matches!(r, KvResponse::Err(KvStatus::KeyNotFound)));
    }

    #[test]
    fn bulk_put_inserts_batches() {
        let dev = device();
        let ks = create(&dev, "bulk");
        let mut b = BulkBuilder::default_size();
        let mut n = 0u32;
        while b.push(&key(n), &value(n)) {
            n += 1;
        }
        match ok(dev.handle(KvCommand::BulkPut {
            ks,
            payload: b.finish(),
        })) {
            KvResponse::BulkPutOk { inserted } => assert_eq!(inserted, n as u64),
            other => panic!("{other:?}"),
        }
        ok(dev.handle(KvCommand::Compact { ks }));
        dev.run_pending_jobs();
        match ok(dev.handle(KvCommand::Stat { ks })) {
            KvResponse::Stat(s) => {
                assert_eq!(s.num_pairs, n as u64);
                assert_eq!(s.state, KeyspaceState::Compacted);
                assert_eq!(s.min_key.unwrap(), key(0));
            }
            other => panic!("{other:?}"),
        }
    }

    /// The model's charges for ingest: one 500-pair `BulkPut` into a
    /// fresh keyspace (which also opens its write log) with the WAL off
    /// and on, then one single `Put` after it. How the device walks a
    /// bulk must not change what it charges or where it lands.
    #[test]
    fn bulk_put_charges_are_pinned() {
        let charge = |stack: &DeviceStack, cmd: KvCommand| {
            let before = stack.ledger().snapshot();
            ok(stack.device().handle(cmd));
            let d = stack.ledger().snapshot().since(&before);
            (d.soc_cpu_ns, d.nand_program_pages, d.channel_busy_ns)
        };
        let bulk = |ks| {
            let mut b = BulkBuilder::default_size();
            for i in 0..500 {
                assert!(b.push(&key(i), &value(i)));
            }
            KvCommand::BulkPut {
                ks,
                payload: b.finish(),
            }
        };
        let plain = stack();
        let ks = create(plain.device(), "bulk");
        let bulk_no_wal = charge(&plain, bulk(ks));
        let single = charge(
            &plain,
            KvCommand::Put {
                ks,
                key: key(500),
                value: value(500),
            },
        );
        let walled = stack_with_wal();
        let ks = create(walled.device(), "bulk");
        let bulk_wal = charge(&walled, bulk(ks));
        assert_eq!(
            bulk_no_wal,
            (219500, 7, vec![16192, 0, 0, 0, 0, 0, 0, 97152])
        );
        assert_eq!(
            bulk_wal,
            (
                246000,
                13,
                vec![32384, 16192, 16192, 16192, 0, 0, 16192, 113344]
            )
        );
        assert_eq!(single, (439, 0, vec![0; 8]));
    }

    #[test]
    fn a_bad_key_rejects_the_whole_bulk() {
        let dev = device();
        let ks = create(&dev, "bad");
        let mut b = BulkBuilder::default_size();
        for i in 0..10 {
            assert!(b.push(&key(i), &value(i)));
        }
        assert!(b.push(b"", b"empty key"));
        assert!(b.push(&key(10), &value(10)));
        let r = dev.handle(KvCommand::BulkPut {
            ks,
            payload: b.finish(),
        });
        assert!(matches!(r, KvResponse::Err(KvStatus::BadValue)), "{r:?}");
        match ok(dev.handle(KvCommand::Stat { ks })) {
            KvResponse::Stat(s) => {
                assert_eq!(s.num_pairs, 0, "no pair of the bulk is written");
                assert_eq!(s.state, KeyspaceState::Empty);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn range_query_over_primary() {
        let dev = device();
        let ks = create(&dev, "r");
        load_and_compact(&dev, ks, 500);
        match ok(dev.handle(KvCommand::Range {
            ks,
            lo: Bound::Included(key(100)),
            hi: Bound::Excluded(key(105)),
            limit: None,
        })) {
            KvResponse::Entries(es) => {
                assert_eq!(es.len(), 5);
                assert_eq!(es[0].0, key(100));
                assert_eq!(es[4].1, value(104));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn limit_zero_queries_answer_nothing() {
        let dev = device();
        let ks = create(&dev, "z");
        load_and_compact(&dev, ks, 10);
        let spec = SecondaryIndexSpec {
            name: "energy".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        };
        ok(dev.handle(KvCommand::BuildSecondaryIndex { ks, spec }));
        dev.run_pending_jobs();
        for limit in [Some(0), Some(1)] {
            let range = KvCommand::Range {
                ks,
                lo: Bound::Unbounded,
                hi: Bound::Unbounded,
                limit,
            };
            let sidx = KvCommand::SidxRange {
                ks,
                index: "energy".into(),
                lo: Bound::Unbounded,
                hi: Bound::Unbounded,
                limit,
            };
            for cmd in [range, sidx] {
                match ok(dev.handle(cmd)) {
                    KvResponse::Entries(es) => assert_eq!(Some(es.len() as u64), limit),
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn secondary_index_build_and_query() {
        let dev = device();
        let ks = create(&dev, "particles");
        load_and_compact(&dev, ks, 1000);
        let spec = SecondaryIndexSpec {
            name: "energy".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        };
        ok(dev.handle(KvCommand::BuildSecondaryIndex { ks, spec }));
        dev.run_pending_jobs();
        // energy == i as f32; select energy >= 995.0 -> 5 records.
        match ok(dev.handle(KvCommand::SidxRange {
            ks,
            index: "energy".into(),
            lo: Bound::Included(SidxKey::F32(995.0).encode()),
            hi: Bound::Unbounded,
            limit: None,
        })) {
            KvResponse::Entries(es) => {
                assert_eq!(es.len(), 5);
                assert_eq!(es[0].0, key(995));
            }
            other => panic!("{other:?}"),
        }
        // Point query on one energy.
        match ok(dev.handle(KvCommand::SidxGet {
            ks,
            index: "energy".into(),
            key: SidxKey::F32(123.0),
        })) {
            KvResponse::Entries(es) => {
                assert_eq!(es.len(), 1);
                assert_eq!(es[0].0, key(123));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compact_and_index_single_pass_end_to_end() {
        let dev = device();
        let ks = create(&dev, "onepass");
        for i in (0..800).rev() {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        let specs = vec![SecondaryIndexSpec {
            name: "energy".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        }];
        ok(dev.handle(KvCommand::CompactAndIndex { ks, specs }));
        dev.run_pending_jobs();
        // Queryable on both indexes straight away.
        match ok(dev.handle(KvCommand::Get { ks, key: key(123) })) {
            KvResponse::Value(v) => assert_eq!(v, value(123)),
            other => panic!("{other:?}"),
        }
        match ok(dev.handle(KvCommand::SidxGet {
            ks,
            index: "energy".into(),
            key: SidxKey::F32(321.0),
        })) {
            KvResponse::Entries(es) => {
                assert_eq!(es.len(), 1);
                assert_eq!(es[0].0, key(321));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(dev.soc().ledger().custom("dev_single_pass_compactions"), 1);
        assert_eq!(dev.soc().ledger().custom("dev_single_pass_fallbacks"), 0);
    }

    /// Put 500 pairs in the order `order` gives, then compact and index
    /// them with two specs on a device with little more DRAM than its
    /// ingest buffer; checks the result is fully indexed.
    fn compact_and_index_on_tight_dram(order: impl Iterator<Item = u32>) -> Arc<KvCsdDevice> {
        // DRAM: the 192 KiB ingest buffer plus a sliver. The single-pass
        // job needs gather + two index sorters + value sorter concurrently
        // (4 x 64 KiB minimum reservations) and cannot fit; the separated
        // path never holds more than three.
        let stack = DeviceStack::new(
            FlashGeometry {
                blocks_per_channel: 512,
                ..GEOM
            },
            ZnsConfig::default(),
            DeviceConfig {
                // This test runs at ~90% DRAM by construction; the stall
                // band would otherwise bounce every put.
                admission: AdmissionConfig::permissive(),
                ..config((192 << 10) + (20 << 10))
            },
        );
        let dev = Arc::clone(stack.device());
        let ks = create(&dev, "tight");
        for i in order {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        let specs = vec![
            SecondaryIndexSpec {
                name: "energy".into(),
                value_offset: 28,
                value_len: 4,
                key_type: SecondaryKeyType::F32,
            },
            SecondaryIndexSpec {
                name: "head".into(),
                value_offset: 0,
                value_len: 4,
                key_type: SecondaryKeyType::U32,
            },
        ];
        ok(dev.handle(KvCommand::CompactAndIndex { ks, specs }));
        dev.run_pending_jobs();
        // What a single pass wrote before it gave up is released.
        assert_eq!(
            dev.referenced_clusters().len(),
            dev.zone_manager().cluster_count()
        );
        // Either way the keyspace ends up fully indexed.
        match ok(dev.handle(KvCommand::SidxGet {
            ks,
            index: "energy".into(),
            key: SidxKey::F32(99.0),
        })) {
            KvResponse::Entries(es) => assert_eq!(es.len(), 1),
            other => panic!("{other:?}"),
        }
        dev
    }

    #[test]
    fn compact_and_index_falls_back_on_tight_dram() {
        // Arrival order: every key starts a run, so the sort pipeline
        // runs and cannot fit its four sorters.
        let dev = compact_and_index_on_tight_dram((0..500).rev());
        let ledger = dev.soc().ledger();
        assert_eq!(
            ledger.custom("dev_single_pass_fallbacks"),
            1,
            "tight DRAM must trigger the separated fallback"
        );
        assert_eq!(ledger.custom("dev_run_merge_compactions"), 0);
    }

    #[test]
    fn compact_and_index_merges_sorted_input_on_tight_dram() {
        // One natural run: the merge needs two stream blocks next to the
        // two index sorters, and completes in a single pass.
        let dev = compact_and_index_on_tight_dram(0..500);
        let ledger = dev.soc().ledger();
        assert_eq!(ledger.custom("dev_single_pass_fallbacks"), 0);
        assert_eq!(ledger.custom("dev_single_pass_compactions"), 1);
        assert_eq!(ledger.custom("dev_run_merge_compactions"), 1);
    }

    #[test]
    fn logs_are_released_after_compaction() {
        let dev = device();
        let ks = create(&dev, "logs");
        for i in 0..200 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        let (klog, vlog) = dev
            .km
            .with(ks, |k| {
                let wlog = k.storage.wlog.as_ref().unwrap();
                Ok((wlog.klog.cluster(), wlog.vlog.cluster()))
            })
            .unwrap();
        ok(dev.handle(KvCommand::Compact { ks }));
        dev.run_pending_jobs();
        // Only the PIDX and SORTED_VALUES clusters remain, and the DRAM
        // the compaction held is back.
        let live: std::collections::HashSet<u32> =
            dev.mgr.cluster_ids_from(0).into_iter().collect();
        assert!(!live.contains(&klog.0) && !live.contains(&vlog.0));
        assert_eq!(live.len(), 2);
        assert_eq!(dev.referenced_clusters(), live);
        assert_eq!(dev.dram.used(), 0);
    }

    #[test]
    fn sidx_on_uncompacted_keyspace_fails_sync() {
        let dev = device();
        let ks = create(&dev, "x");
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key(1),
            value: value(1),
        }));
        let spec = SecondaryIndexSpec {
            name: "energy".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        };
        let r = dev.handle(KvCommand::BuildSecondaryIndex { ks, spec });
        assert!(matches!(
            r,
            KvResponse::Err(KvStatus::BadKeyspaceState { .. })
        ));
    }

    fn job_state(dev: &KvCsdDevice, resp: KvResponse) -> JobState {
        let KvResponse::JobStarted { job } = ok(resp) else {
            panic!("not a job");
        };
        match ok(dev.handle(KvCommand::PollJob { job })) {
            KvResponse::Job { state } => state,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let spec = SecondaryIndexSpec {
            name: "e".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        };
        let build = |ks| KvCommand::BuildSecondaryIndex {
            ks,
            spec: spec.clone(),
        };
        // Asking for a second index named "e": after the first is built,
        // twice in one single-pass request, and queued twice at once.
        for case in ["built", "single pass", "queued"] {
            let dev = device();
            let ks = create(&dev, "x");
            match case {
                "built" => {
                    load_and_compact(&dev, ks, 50);
                    ok(dev.handle(build(ks)));
                    dev.run_pending_jobs();
                    let r = dev.handle(build(ks));
                    assert_eq!(r, KvResponse::Err(KvStatus::IndexExists));
                }
                "single pass" => {
                    for i in 0..50 {
                        ok(dev.handle(KvCommand::Put {
                            ks,
                            key: key(i),
                            value: value(i),
                        }));
                    }
                    let specs = vec![spec.clone(), spec.clone()];
                    let r = dev.handle(KvCommand::CompactAndIndex { ks, specs });
                    assert_eq!(r, KvResponse::Err(KvStatus::IndexExists));
                    assert_eq!(dev.pending_jobs(), 0);
                }
                _ => {
                    load_and_compact(&dev, ks, 50);
                    let first = dev.handle(build(ks));
                    let second = dev.handle(build(ks));
                    dev.run_pending_jobs();
                    assert_eq!(job_state(&dev, first), JobState::Done);
                    assert_eq!(
                        job_state(&dev, second),
                        JobState::Failed(KvStatus::IndexExists)
                    );
                    assert_eq!(dev.stat(ks).unwrap().secondary_indexes, ["e"]);
                }
            }
            assert_eq!(
                dev.referenced_clusters().len(),
                dev.zone_manager().cluster_count(),
                "{case}: every allocated cluster is referenced"
            );
        }
    }

    #[test]
    fn bad_index_spec_rejected() {
        let dev = device();
        let ks = create(&dev, "x");
        load_and_compact(&dev, ks, 10);
        let spec = SecondaryIndexSpec {
            name: "bad".into(),
            value_offset: 0,
            value_len: 3, // F32 must be 4 bytes
            key_type: SecondaryKeyType::F32,
        };
        let r = dev.handle(KvCommand::BuildSecondaryIndex {
            ks,
            spec: spec.clone(),
        });
        assert!(matches!(r, KvResponse::Err(KvStatus::BadIndexSpec)));
        let ks = create(&dev, "y");
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key(1),
            value: value(1),
        }));
        let r = dev.handle(KvCommand::CompactAndIndex {
            ks,
            specs: vec![spec],
        });
        assert!(matches!(r, KvResponse::Err(KvStatus::BadIndexSpec)));
        assert_eq!(dev.stat(ks).unwrap().state, KeyspaceState::Writable);
    }

    #[test]
    fn delete_releases_all_zones_and_dram() {
        let dev = device();
        let free0 = dev.zone_manager().free_zones();
        let ks = create(&dev, "temp");
        load_and_compact(&dev, ks, 2000);
        let spec = SecondaryIndexSpec {
            name: "energy".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        };
        ok(dev.handle(KvCommand::BuildSecondaryIndex { ks, spec }));
        dev.run_pending_jobs();
        assert!(dev.zone_manager().free_zones() < free0);
        ok(dev.handle(KvCommand::DeleteKeyspace { ks }));
        assert_eq!(
            dev.zone_manager().free_zones(),
            free0,
            "all zones reclaimed"
        );
        assert_eq!(dev.dram().used(), 0);
        let r = dev.handle(KvCommand::Get { ks, key: key(1) });
        assert!(matches!(r, KvResponse::Err(KvStatus::KeyspaceNotFound)));
    }

    #[test]
    fn delete_writable_keyspace_releases_ingest_buffer() {
        let dev = device();
        let ks = create(&dev, "w");
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key(1),
            value: value(1),
        }));
        assert!(dev.dram().used() >= INGEST_BUFFER_BYTES as u64);
        ok(dev.handle(KvCommand::DeleteKeyspace { ks }));
        assert_eq!(dev.dram().used(), 0);
    }

    #[test]
    fn delete_with_pending_jobs_finishes_them_first() {
        let dev = device();
        let ks = create(&dev, "pending");
        for i in 0..100 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        ok(dev.handle(KvCommand::Compact { ks }));
        assert_eq!(dev.pending_jobs(), 1);
        let free_before = dev.zone_manager().free_zones();
        ok(dev.handle(KvCommand::DeleteKeyspace { ks }));
        assert_eq!(dev.pending_jobs(), 0);
        assert!(dev.zone_manager().free_zones() > free_before);
    }

    #[test]
    fn job_states_progress() {
        let dev = device();
        let ks = create(&dev, "j");
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key(1),
            value: value(1),
        }));
        let job = match ok(dev.handle(KvCommand::Compact { ks })) {
            KvResponse::JobStarted { job } => job,
            other => panic!("{other:?}"),
        };
        match ok(dev.handle(KvCommand::PollJob { job })) {
            KvResponse::Job { state } => assert_eq!(state, JobState::Pending),
            other => panic!("{other:?}"),
        }
        assert_eq!(dev.pending_jobs(), 1);
        dev.run_pending_jobs();
        assert_eq!(dev.pending_jobs(), 0);
        match ok(dev.handle(KvCommand::PollJob { job })) {
            KvResponse::Job { state } => assert_eq!(state, JobState::Done),
            other => panic!("{other:?}"),
        }
        // An id the device never issued is a typed miss, as at the router.
        assert_eq!(
            dev.handle(KvCommand::PollJob {
                job: JobId(job.0 + 1)
            }),
            KvResponse::Err(KvStatus::JobNotFound)
        );
    }

    #[test]
    fn compact_empty_keyspace_is_immediately_done() {
        let dev = device();
        let ks = create(&dev, "empty");
        let job = match ok(dev.handle(KvCommand::Compact { ks })) {
            KvResponse::JobStarted { job } => job,
            other => panic!("{other:?}"),
        };
        match ok(dev.handle(KvCommand::PollJob { job })) {
            KvResponse::Job { state } => assert_eq!(state, JobState::Done),
            other => panic!("{other:?}"),
        }
        assert_eq!(dev.pending_jobs(), 0);
        // Queryable (and empty).
        match ok(dev.handle(KvCommand::Range {
            ks,
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            limit: None,
        })) {
            KvResponse::Entries(es) => assert!(es.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn keyspaces_are_isolated() {
        let dev = device();
        let a = create(&dev, "a");
        let b = create(&dev, "b");
        // Same keys, different values, per the paper keys may be reused
        // across keyspaces without conflict.
        for i in 0..50 {
            ok(dev.handle(KvCommand::Put {
                ks: a,
                key: key(i),
                value: vec![1; 8],
            }));
            ok(dev.handle(KvCommand::Put {
                ks: b,
                key: key(i),
                value: vec![2; 8],
            }));
        }
        ok(dev.handle(KvCommand::Compact { ks: a }));
        ok(dev.handle(KvCommand::Compact { ks: b }));
        dev.run_pending_jobs();
        match ok(dev.handle(KvCommand::Get { ks: a, key: key(5) })) {
            KvResponse::Value(v) => assert_eq!(v, vec![1; 8]),
            other => panic!("{other:?}"),
        }
        match ok(dev.handle(KvCommand::Get { ks: b, key: key(5) })) {
            KvResponse::Value(v) => assert_eq!(v, vec![2; 8]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn list_keyspaces() {
        let dev = device();
        create(&dev, "one");
        create(&dev, "two");
        match ok(dev.handle(KvCommand::ListKeyspaces)) {
            KvResponse::Keyspaces(l) => {
                assert_eq!(l.len(), 2);
                assert_eq!(l[0].name, "one");
                assert_eq!(l[1].name, "two");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn restart_recovers_compacted_keyspaces() {
        let mut stack = stack();
        let dev = stack.device();
        let ks = create(dev, "persist-me");
        load_and_compact(dev, ks, 1500);
        let spec = SecondaryIndexSpec {
            name: "energy".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        };
        ok(dev.handle(KvCommand::BuildSecondaryIndex { ks, spec }));
        dev.run_pending_jobs();
        stack.power_cycle().unwrap(); // crash

        let dev2 = stack.device();
        let ks2 = match ok(dev2.handle(KvCommand::OpenKeyspace {
            name: "persist-me".into(),
        })) {
            KvResponse::Opened { ks, state } => {
                assert_eq!(state, KeyspaceState::Compacted);
                ks
            }
            other => panic!("{other:?}"),
        };
        // Point, range and secondary queries all work after restart.
        for i in [0u32, 700, 1499] {
            match ok(dev2.handle(KvCommand::Get {
                ks: ks2,
                key: key(i),
            })) {
                KvResponse::Value(v) => assert_eq!(v, value(i), "key {i}"),
                other => panic!("{other:?}"),
            }
        }
        match ok(dev2.handle(KvCommand::SidxGet {
            ks: ks2,
            index: "energy".into(),
            key: SidxKey::F32(123.0),
        })) {
            KvResponse::Entries(es) => {
                assert_eq!(es.len(), 1);
                assert_eq!(es[0].0, key(123));
            }
            other => panic!("{other:?}"),
        }
        match ok(dev2.handle(KvCommand::Stat { ks: ks2 })) {
            KvResponse::Stat(s) => {
                assert_eq!(s.num_pairs, 1500);
                assert_eq!(s.secondary_indexes, vec!["energy".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn restart_reenqueues_compacting_keyspaces() {
        let mut stack = stack();
        let dev = stack.device();
        let ks = create(dev, "inflight");
        for i in 0..300 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        ok(dev.handle(KvCommand::Compact { ks }));
        // Crash before the background job runs.
        assert_eq!(dev.pending_jobs(), 1);
        stack.power_cycle().unwrap();

        let dev2 = stack.device();
        assert_eq!(
            dev2.pending_jobs(),
            1,
            "compaction re-enqueued from sealed logs"
        );
        dev2.run_pending_jobs();
        let ks2 = match ok(dev2.handle(KvCommand::OpenKeyspace {
            name: "inflight".into(),
        })) {
            KvResponse::Opened { ks, state } => {
                assert_eq!(state, KeyspaceState::Compacted);
                ks
            }
            other => panic!("{other:?}"),
        };
        for i in (0..300).step_by(37) {
            match ok(dev2.handle(KvCommand::Get {
                ks: ks2,
                key: key(i),
            })) {
                KvResponse::Value(v) => assert_eq!(v, value(i)),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn restart_resets_writable_keyspaces_and_reclaims_their_zones() {
        let mut stack = stack();
        let dev = stack.device();
        let baseline_free = dev.zone_manager().free_zones();
        let ks = create(dev, "volatile");
        for i in 0..200 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        stack.power_cycle().unwrap(); // crash with unsynced buffered data

        let dev2 = stack.device();
        match ok(dev2.handle(KvCommand::OpenKeyspace {
            name: "volatile".into(),
        })) {
            KvResponse::Opened { state, .. } => assert_eq!(state, KeyspaceState::Empty),
            other => panic!("{other:?}"),
        }
        // The crashed write log's clusters were reclaimed as orphans.
        assert_eq!(dev2.zone_manager().free_zones(), baseline_free);
        // The keyspace is writable again from scratch.
        let ks2 = match ok(dev2.handle(KvCommand::OpenKeyspace {
            name: "volatile".into(),
        })) {
            KvResponse::Opened { ks, .. } => ks,
            other => panic!("{other:?}"),
        };
        ok(dev2.handle(KvCommand::Put {
            ks: ks2,
            key: key(1),
            value: value(1),
        }));
        ok(dev2.handle(KvCommand::Compact { ks: ks2 }));
        dev2.run_pending_jobs();
        match ok(dev2.handle(KvCommand::Get {
            ks: ks2,
            key: key(1),
        })) {
            KvResponse::Value(v) => assert_eq!(v, value(1)),
            other => panic!("{other:?}"),
        }
    }

    fn stack_with_wal() -> DeviceStack {
        let cfg = DeviceConfig {
            wal: true,
            ..config(8 << 20)
        };
        DeviceStack::new(GEOM, ZnsConfig::default(), cfg)
    }

    #[test]
    fn wal_recovers_synced_writes_across_restart() {
        let mut stack = stack_with_wal();
        let dev = stack.device();
        let ks = create(dev, "durable");
        for i in 0..200 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        ok(dev.handle(KvCommand::Flush { ks })); // explicit fsync
        for i in 200..230 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        stack.power_cycle().unwrap(); // crash: 200 synced + 30 unsynced (some may sit in full blocks)

        let dev2 = stack.device();
        let ks2 = match ok(dev2.handle(KvCommand::OpenKeyspace {
            name: "durable".into(),
        })) {
            KvResponse::Opened { ks, state } => {
                assert_eq!(
                    state,
                    KeyspaceState::Writable,
                    "WAL keeps the keyspace writable"
                );
                ks
            }
            other => panic!("{other:?}"),
        };
        // The keyspace can keep taking writes, then compact and query.
        ok(dev2.handle(KvCommand::Put {
            ks: ks2,
            key: key(900),
            value: value(900),
        }));
        ok(dev2.handle(KvCommand::Compact { ks: ks2 }));
        dev2.run_pending_jobs();
        for i in (0..200).step_by(23) {
            match ok(dev2.handle(KvCommand::Get {
                ks: ks2,
                key: key(i),
            })) {
                KvResponse::Value(v) => assert_eq!(v, value(i), "synced key {i} must survive"),
                other => panic!("{other:?}"),
            }
        }
        match ok(dev2.handle(KvCommand::Get {
            ks: ks2,
            key: key(900),
        })) {
            KvResponse::Value(v) => assert_eq!(v, value(900)),
            other => panic!("{other:?}"),
        }
        assert!(dev2.soc().ledger().custom("dev_wal_replayed_records") >= 200);
    }

    #[test]
    fn unsynced_writes_may_be_lost_but_device_is_consistent() {
        let mut stack = stack_with_wal();
        let dev = stack.device();
        let ks = create(dev, "torn");
        // A couple of tiny writes, never synced: they fit in the WAL's
        // volatile tail and vanish.
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key(1),
            value: value(1),
        }));
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key(2),
            value: value(2),
        }));
        stack.power_cycle().unwrap();

        let dev2 = stack.device();
        let ks2 = match ok(dev2.handle(KvCommand::OpenKeyspace {
            name: "torn".into(),
        })) {
            KvResponse::Opened { ks, .. } => ks,
            other => panic!("{other:?}"),
        };
        match ok(dev2.handle(KvCommand::Stat { ks: ks2 })) {
            KvResponse::Stat(s) => assert_eq!(s.num_pairs, 0, "unsynced writes lost"),
            other => panic!("{other:?}"),
        }
        // Still fully usable.
        ok(dev2.handle(KvCommand::Put {
            ks: ks2,
            key: key(3),
            value: value(3),
        }));
        ok(dev2.handle(KvCommand::Compact { ks: ks2 }));
        dev2.run_pending_jobs();
        match ok(dev2.handle(KvCommand::Get {
            ks: ks2,
            key: key(3),
        })) {
            KvResponse::Value(v) => assert_eq!(v, value(3)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compaction_releases_the_wal_cluster() {
        let stack = stack_with_wal();
        let dev = stack.device();
        let free0 = dev.zone_manager().free_zones();
        let ks = create(dev, "w");
        for i in 0..100 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        ok(dev.handle(KvCommand::Flush { ks }));
        ok(dev.handle(KvCommand::Compact { ks }));
        dev.run_pending_jobs();
        ok(dev.handle(KvCommand::DeleteKeyspace { ks }));
        assert_eq!(
            dev.zone_manager().free_zones(),
            free0,
            "wal zones reclaimed"
        );
    }

    #[test]
    fn flush_without_wal_is_a_cheap_noop() {
        let dev = device();
        let ks = create(&dev, "nowal");
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key(1),
            value: value(1),
        }));
        match ok(dev.handle(KvCommand::Flush { ks })) {
            KvResponse::Flushed => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn restart_on_fresh_device_is_fresh() {
        let mut stack = stack();
        stack.power_cycle().unwrap(); // never persisted anything
        let dev2 = stack.device();
        match ok(dev2.handle(KvCommand::ListKeyspaces)) {
            KvResponse::Keyspaces(l) => assert!(l.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_table_mutation_persists() {
        let dev = device();
        let n0 = dev.persisted_snapshots();
        let ks = create(&dev, "snap");
        assert!(dev.persisted_snapshots() > n0);
        let n1 = dev.persisted_snapshots();
        ok(dev.handle(KvCommand::Put {
            ks,
            key: key(1),
            value: value(1),
        })); // EMPTY->WRITABLE
        assert!(dev.persisted_snapshots() > n1);
        let n2 = dev.persisted_snapshots();
        ok(dev.handle(KvCommand::Compact { ks }));
        assert!(dev.persisted_snapshots() > n2);
        let n3 = dev.persisted_snapshots();
        dev.run_pending_jobs(); // COMPACTING -> COMPACTED
        assert!(dev.persisted_snapshots() > n3);
    }

    #[test]
    fn persistent_media_failure_degrades_keyspace_not_device() {
        let mut stack = stack();
        let dev = Arc::clone(stack.device());
        let healthy = create(&dev, "healthy");
        load_and_compact(&dev, healthy, 100);
        let ks = create(&dev, "victim");
        for i in 0..200 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        ok(dev.handle(KvCommand::Compact { ks }));
        // Arm a hard media failure only for the background job.
        stack.arm(
            kvcsd_sim::FaultPlan {
                seed: 9,
                ..kvcsd_sim::FaultPlan::none()
            }
            .with_error_prob(1.0)
            .with_persistent_fraction(1.0),
        );
        dev.run_pending_jobs();
        stack.disarm();
        match ok(dev.handle(KvCommand::OpenKeyspace {
            name: "victim".into(),
        })) {
            KvResponse::Opened { state, .. } => assert_eq!(state, KeyspaceState::Degraded),
            other => panic!("{other:?}"),
        }
        // Queries on the degraded keyspace fail with a state error...
        let r = dev.handle(KvCommand::Get { ks, key: key(1) });
        assert!(matches!(
            r,
            KvResponse::Err(KvStatus::BadKeyspaceState { .. })
        ));
        // ...but the healthy keyspace is untouched.
        match ok(dev.handle(KvCommand::Get {
            ks: healthy,
            key: key(7),
        })) {
            KvResponse::Value(v) => assert_eq!(v, value(7)),
            other => panic!("{other:?}"),
        }
        assert_eq!(dev.soc().ledger().custom("dev_keyspaces_degraded"), 1);
    }

    #[test]
    fn degraded_keyspace_is_recompactable_once_media_recovers() {
        let mut stack = stack();
        let dev = Arc::clone(stack.device());
        let ks = create(&dev, "heal");
        for i in 0..150 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        ok(dev.handle(KvCommand::Compact { ks }));
        stack.arm(
            kvcsd_sim::FaultPlan {
                seed: 5,
                ..kvcsd_sim::FaultPlan::none()
            }
            .with_error_prob(1.0)
            .with_persistent_fraction(1.0),
        );
        dev.run_pending_jobs();
        stack.disarm();
        // The sealed logs survived the failed job: re-compact and query.
        ok(dev.handle(KvCommand::Compact { ks }));
        dev.run_pending_jobs();
        for i in [0u32, 75, 149] {
            match ok(dev.handle(KvCommand::Get { ks, key: key(i) })) {
                KvResponse::Value(v) => assert_eq!(v, value(i), "key {i}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn degraded_keyspace_is_deletable_and_releases_zones() {
        let mut stack = stack();
        let dev = Arc::clone(stack.device());
        let free0 = dev.zone_manager().free_zones();
        let ks = create(&dev, "doomed");
        for i in 0..100 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        ok(dev.handle(KvCommand::Compact { ks }));
        stack.arm(
            kvcsd_sim::FaultPlan {
                seed: 11,
                ..kvcsd_sim::FaultPlan::none()
            }
            .with_error_prob(1.0)
            .with_persistent_fraction(1.0),
        );
        dev.run_pending_jobs();
        stack.disarm();
        ok(dev.handle(KvCommand::DeleteKeyspace { ks }));
        assert_eq!(
            dev.zone_manager().free_zones(),
            free0,
            "all zones reclaimed"
        );
    }

    #[test]
    fn transient_job_failures_are_retried_with_backoff() {
        let mut stack = stack();
        let dev = Arc::clone(stack.device());
        let ks = create(&dev, "flaky");
        for i in 0..100 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        let job = match ok(dev.handle(KvCommand::Compact { ks })) {
            KvResponse::JobStarted { job } => job,
            other => panic!("{other:?}"),
        };
        // Every op fails transiently: the job retries its full budget,
        // charges backoff to the ledger, then degrades the keyspace.
        stack.arm(
            kvcsd_sim::FaultPlan {
                seed: 2,
                ..kvcsd_sim::FaultPlan::none()
            }
            .with_error_prob(1.0),
        );
        dev.run_pending_jobs();
        stack.disarm();
        assert_eq!(dev.soc().ledger().custom("dev_job_retries"), 4);
        assert!(dev.soc().ledger().custom("dev_job_backoff_ns") >= 50_000 * 15);
        match ok(dev.handle(KvCommand::PollJob { job })) {
            KvResponse::Job { state } => {
                assert!(matches!(
                    state,
                    JobState::Failed(KvStatus::TransientDeviceError(_))
                ))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn failed_compaction_does_not_leak_clusters() {
        let specs = vec![SecondaryIndexSpec {
            name: "energy".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        }];
        for single_pass in [false, true] {
            let compact = |ks| match single_pass {
                false => KvCommand::Compact { ks },
                true => KvCommand::CompactAndIndex {
                    ks,
                    specs: specs.clone(),
                },
            };
            // Tight SoC DRAM (the ingest buffer plus 64 KiB) makes the
            // value sort spill, so the job reads its own run back after
            // it has allocated output clusters.
            let cfg = config((192 << 10) + (64 << 10));
            let mut stack = DeviceStack::new(GEOM, ZnsConfig::default(), cfg);
            let dev = Arc::clone(stack.device());
            let ks = create(&dev, "leaky");
            for i in 0..3000 {
                ok(dev.handle(KvCommand::Put {
                    ks,
                    key: key(i),
                    value: value(i),
                }));
            }
            ok(dev.handle(compact(ks)));
            let free_sealed = dev.zone_manager().free_zones();
            // Fail reads with ~15% probability: compaction gets partway
            // through (allocating output clusters) before dying.
            stack.arm(
                kvcsd_sim::FaultPlan {
                    seed: 21,
                    read_error_prob: 0.15,
                    ..kvcsd_sim::FaultPlan::none()
                }
                .with_persistent_fraction(1.0),
            );
            dev.run_pending_jobs();
            stack.disarm();
            assert_eq!(
                dev.stat(ks).unwrap().state,
                KeyspaceState::Degraded,
                "single pass: {single_pass}"
            );
            assert_eq!(
                dev.zone_manager().free_zones(),
                free_sealed,
                "failed job must release every cluster it allocated"
            );
            // And the keyspace still recovers.
            ok(dev.handle(compact(ks)));
            dev.run_pending_jobs();
            match ok(dev.handle(KvCommand::Get { ks, key: key(42) })) {
                KvResponse::Value(v) => assert_eq!(v, value(42)),
                other => panic!("{other:?}"),
            }
            let indexes = dev.stat(ks).unwrap().secondary_indexes;
            assert_eq!(indexes.len(), usize::from(single_pass));
            assert_eq!(
                dev.referenced_clusters().len(),
                dev.zone_manager().cluster_count()
            );
        }
    }

    #[test]
    fn reopen_falls_back_to_previous_snapshot_generation() {
        let mut stack = stack();
        let dev = stack.device();
        let ks = create(dev, "fallback");
        load_and_compact(dev, ks, 400);
        // Append a CRC-valid but undecodable frame as the newest
        // generation (version byte 99): reopen must skip it.
        let mut meta = MetaStore::new(Arc::clone(stack.zns()), 0);
        meta.write(&[99u8, 1, 2, 3]).unwrap();

        stack.power_cycle().unwrap();
        let dev2 = stack.device();
        assert_eq!(
            dev2.soc()
                .ledger()
                .custom("dev_snapshot_generations_skipped"),
            1,
            "the bad generation must be counted"
        );
        let ks2 = match ok(dev2.handle(KvCommand::OpenKeyspace {
            name: "fallback".into(),
        })) {
            KvResponse::Opened { ks, state } => {
                assert_eq!(state, KeyspaceState::Compacted);
                ks
            }
            other => panic!("{other:?}"),
        };
        match ok(dev2.handle(KvCommand::Get {
            ks: ks2,
            key: key(123),
        })) {
            KvResponse::Value(v) => assert_eq!(v, value(123)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn degraded_state_survives_restart() {
        let mut stack = stack();
        let dev = Arc::clone(stack.device());
        let ks = create(&dev, "scar");
        for i in 0..120 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        ok(dev.handle(KvCommand::Compact { ks }));
        // Fail only reads: the compaction dies on its first klog read but
        // the device can still persist the DEGRADED state to the
        // metadata zone (appends are unaffected).
        stack.arm(
            kvcsd_sim::FaultPlan {
                seed: 31,
                read_error_prob: 1.0,
                ..kvcsd_sim::FaultPlan::none()
            }
            .with_persistent_fraction(1.0),
        );
        dev.run_pending_jobs();
        stack.disarm();
        stack.power_cycle().unwrap();

        let dev2 = stack.device();
        let ks2 = match ok(dev2.handle(KvCommand::OpenKeyspace {
            name: "scar".into(),
        })) {
            KvResponse::Opened { ks, state } => {
                assert_eq!(state, KeyspaceState::Degraded, "degraded state persisted");
                ks
            }
            other => panic!("{other:?}"),
        };
        // Still re-compactable after the restart.
        ok(dev2.handle(KvCommand::Compact { ks: ks2 }));
        dev2.run_pending_jobs();
        match ok(dev2.handle(KvCommand::Get {
            ks: ks2,
            key: key(60),
        })) {
            KvResponse::Value(v) => assert_eq!(v, value(60)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_key_rejected() {
        let dev = device();
        let ks = create(&dev, "k");
        let r = dev.handle(KvCommand::Put {
            ks,
            key: vec![],
            value: vec![1],
        });
        assert!(matches!(r, KvResponse::Err(KvStatus::BadValue)));
    }
}
