//! [`KvCsdDevice`]: the on-SoC command processor.
//!
//! Implements [`DeviceHandler`], turning protocol commands into keyspace,
//! zone and index operations. Compaction and secondary-index construction
//! are *deferred*: the command enqueues a job and completes immediately;
//! [`KvCsdDevice::run_pending_jobs`] executes the queue. Benchmark
//! harnesses call that inside a *background* phase — the virtual clock the
//! host application sees does not advance, which is precisely the
//! latency-hiding the paper claims. A host that chooses to block (e.g.
//! `kvcsd_client`'s `wait_for`) polls the job and triggers execution,
//! paying the time in its own foreground phase instead.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use kvcsd_flash::ZonedNamespace;
use kvcsd_proto::{
    DeviceHandler, JobId, JobState, KeyspaceDesc, KeyspaceStat, KeyspaceState, KvCommand,
    KvResponse, KvStatus, SecondaryIndexSpec,
};
use kvcsd_sim::config::CostModel;
use kvcsd_sim::sync::{Mutex, Shared};
use kvcsd_sim::VirtualClock;

use crate::admission::{AdmissionConfig, AdmissionGate, Deadline, Decision, PressureSample};
use crate::artifact::{ArtifactPayload, KeyspaceArtifacts, SidxArtifact};
use crate::compact::run_compaction;
use crate::dram::DramBudget;
use crate::error::DeviceError;
use crate::ingest::WriteLog;
use crate::keyspace::{KeyspaceManager, SecondaryIndex, Sketch};
use crate::meta::MetaStore;
use crate::query;
use crate::sidx::{build_secondary_index, SidxOutput};
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

#[derive(Debug)]
enum Job {
    /// Compact the keyspace, building `specs`' indexes in the same pass.
    Compact {
        ks: u32,
        specs: Vec<SecondaryIndexSpec>,
    },
    BuildSidx {
        ks: u32,
        spec: SecondaryIndexSpec,
    },
}

impl Job {
    fn ks(&self) -> u32 {
        match self {
            Job::Compact { ks, .. } | Job::BuildSidx { ks, .. } => *ks,
        }
    }
}

#[derive(Debug, Default)]
struct JobTable {
    next: u64,
    states: HashMap<u64, JobState>,
    /// `(id, job, deadline_ns)`: the deadline of the command that
    /// enqueued the job rides along so expired work is dropped instead
    /// of run.
    queue: VecDeque<(u64, Job, Option<u64>)>,
}

/// Zones 0..META_ZONES are reserved for the [`MetaStore`]'s ping-pong
/// snapshot pair and never enter the data zone pool.
const META_ZONES: u32 = 2;

/// The KV-CSD device: SoC + ZNS SSD behind an NVMe-KV interface.
pub struct KvCsdDevice {
    mgr: ZoneManager,
    km: KeyspaceManager,
    meta: Mutex<MetaStore>,
    soc: SocCharger,
    dram: DramBudget,
    cfg: DeviceConfig,
    jobs: Mutex<JobTable>,
    /// Queue-depth gauge mirroring `jobs.queue.len()`, maintained inside
    /// the `jobs` critical sections. Admission pressure probes read this
    /// [`Shared`] cell instead of taking the job lock (DESIGN.md §11).
    job_depth: Shared<usize>,
    gate: AdmissionGate,
    clock: Arc<VirtualClock>,
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
        let ledger = Arc::clone(zns.nand().ledger());
        let cluster_width = cfg.cluster_width.min(zns.nand().geometry().channels);
        let cfg = DeviceConfig {
            cluster_width,
            ..cfg
        };
        Self {
            mgr: ZoneManager::new(Arc::clone(&zns), META_ZONES, cfg.seed)
                .with_seal_reserve(2 * cluster_width),
            km: KeyspaceManager::new(),
            meta: Mutex::new(MetaStore::new(zns, 0)),
            soc: SocCharger::new(ledger, cost),
            dram: DramBudget::new(cfg.soc_dram_bytes),
            gate: AdmissionGate::new(cfg.admission),
            clock: cfg
                .clock
                .clone()
                .unwrap_or_else(|| Arc::new(VirtualClock::new())),
            cfg,
            jobs: Mutex::new(JobTable::default()),
            job_depth: Shared::new(0),
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
    ///   dropped write logs) are reset and returned to the zone pool.
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

        let ledger = Arc::clone(zns.nand().ledger());
        let cluster_width = cfg.cluster_width.min(zns.nand().geometry().channels);
        let cfg = DeviceConfig {
            cluster_width,
            ..cfg
        };

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
                    ZoneManager::restore(Arc::clone(&zns), META_ZONES, cfg.seed, &snap.zones)?
                        .with_seal_reserve(2 * cfg.cluster_width);
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
            ledger.bump("dev_snapshot_generations_skipped", skipped);
        }
        let km = KeyspaceManager::new();

        let mut referenced: Vec<ClusterId> = Vec::new();
        let mut recompact: Vec<u32> = Vec::new();
        let mut rewal: Vec<u32> = Vec::new();
        for mut ks in snap.keyspaces {
            match ks.state {
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

        let dev = Self {
            mgr,
            km,
            meta: Mutex::new(meta),
            soc: SocCharger::new(ledger, cost),
            dram: DramBudget::new(cfg.soc_dram_bytes),
            gate: AdmissionGate::new(cfg.admission),
            clock: cfg
                .clock
                .clone()
                .unwrap_or_else(|| Arc::new(VirtualClock::new())),
            cfg,
            jobs: Mutex::new(JobTable::default()),
            job_depth: Shared::new(0),
        };
        for ks in recompact {
            dev.enqueue(
                Job::Compact {
                    ks,
                    specs: Vec::new(),
                },
                None,
            );
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
        // The guard releases the ingest buffer if any allocation or the
        // replay below fails; on success it is leaked into the keyspace,
        // which releases at seal or delete.
        let ingest = self
            .dram
            .reserve(INGEST_BUFFER_BYTES as u64)
            .ok_or(DeviceError::OutOfDram("ingest DRAM"))?;
        let kc = self.mgr.alloc_cluster(self.cfg.cluster_width)?;
        let vc = self.mgr.alloc_cluster(self.cfg.cluster_width)?;
        let mut wlog = WriteLog::new(kc, vc);
        let replayed =
            crate::wal::DeviceWal::replay(&self.mgr, wal_cluster, wal_blocks, |k, v| {
                wlog.put(&self.mgr, &self.soc, &k, &v)
            })?;
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
            let payload = if let (Some((pc, pblocks)), Some((vc, vlen))) = (s.pidx, s.svalues) {
                let sidx = s
                    .sidx
                    .values()
                    .map(|i| {
                        Ok(SidxArtifact {
                            spec: i.spec.clone(),
                            entries: i.entries,
                            pivots: i.sketch.pivots().to_vec(),
                            data: self.mgr.read_bytes(
                                i.cluster,
                                0,
                                i.blocks as usize * BLOCK_BYTES,
                            )?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                ArtifactPayload::Compacted {
                    pidx: self.mgr.read_bytes(pc, 0, pblocks as usize * BLOCK_BYTES)?,
                    pidx_pivots: s.pidx_sketch.pivots().to_vec(),
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
                    state: k.state.name(),
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
        match &art.payload {
            ArtifactPayload::SealedLogs { klog, vlog } => {
                let kc = self.write_artifact_cluster(klog)?;
                let vc = self.write_artifact_cluster(vlog)?;
                self.km.with_mut(id, |k| {
                    k.pairs = art.pairs;
                    k.data_bytes = art.data_bytes;
                    k.min_key = art.min_key.clone();
                    k.max_key = art.max_key.clone();
                    k.storage.klog = Some((kc, klog.len() as u64));
                    k.storage.vlog = Some((vc, vlog.len() as u64));
                    // kvcsd-check: allow(fsm-bypass) -- artifact import reinstalls the primary's sealed-log phase verbatim (EMPTY has no edge to DEGRADED); promotion re-enters via the checked DEGRADED -> COMPACTING transition
                    k.state = KeyspaceState::Degraded;
                    Ok(())
                })?;
            }
            ArtifactPayload::Compacted {
                pidx,
                pidx_pivots,
                svalues,
                sidx,
            } => {
                let pc = self.write_artifact_cluster(pidx)?;
                let vc = self.write_artifact_cluster(svalues)?;
                let mut indexes = Vec::with_capacity(sidx.len());
                for s in sidx {
                    let c = self.write_artifact_cluster(&s.data)?;
                    indexes.push(SecondaryIndex {
                        spec: s.spec.clone(),
                        cluster: c,
                        blocks: (s.data.len() / BLOCK_BYTES) as u32,
                        sketch: Sketch::from_pivots(s.pivots.clone()),
                        entries: s.entries,
                    });
                }
                self.km.with_mut(id, |k| {
                    k.pairs = art.pairs;
                    k.data_bytes = art.data_bytes;
                    k.min_key = art.min_key.clone();
                    k.max_key = art.max_key.clone();
                    k.storage.pidx = Some((pc, (pidx.len() / BLOCK_BYTES) as u32));
                    k.storage.pidx_sketch = Sketch::from_pivots(pidx_pivots.clone());
                    k.storage.svalues = Some((vc, svalues.len() as u64));
                    for i in indexes {
                        k.storage.sidx.insert(i.spec.name.clone(), i);
                    }
                    k.transition_to(KeyspaceState::Compacted)?;
                    Ok(())
                })?;
            }
        }
        self.persist()?;
        self.soc.ledger().bump("dev_artifacts_imported", 1);
        Ok(id)
    }

    /// Append `data` into a fresh cluster in 4 KiB blocks.
    fn write_artifact_cluster(&self, data: &[u8]) -> Result<ClusterId> {
        let c = self.mgr.alloc_cluster(self.cfg.cluster_width)?;
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
        self.job_depth.get()
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

    // ---- job machinery -----------------------------------------------------

    fn enqueue(&self, job: Job, deadline_ns: Option<u64>) -> JobId {
        let mut jobs = self.jobs.lock();
        jobs.next += 1;
        let id = jobs.next;
        jobs.states.insert(id, JobState::Pending);
        jobs.queue.push_back((id, job, deadline_ns));
        self.job_depth.set(jobs.queue.len());
        JobId(id)
    }

    /// Execute all queued background jobs. Call inside a *background*
    /// phase to model the device's asynchronous processing; call inline to
    /// model a host that blocks on completion.
    ///
    /// Transient flash errors are retried with bounded exponential
    /// backoff; a compaction that still fails leaves its keyspace
    /// DEGRADED (sealed logs intact, deletable, re-compactable) rather
    /// than poisoned.
    pub fn run_pending_jobs(&self) -> usize {
        let mut ran = 0;
        loop {
            let next = {
                let mut jobs = self.jobs.lock();
                let Some((id, job, deadline_ns)) = jobs.queue.pop_front() else {
                    break;
                };
                self.job_depth.set(jobs.queue.len());
                jobs.states.insert(id, JobState::Running);
                (id, job, deadline_ns)
            };
            let (id, job, deadline_ns) = next;
            let deadline = Deadline::new(&self.clock, deadline_ns);
            // An expired job is dropped, not run: its keyspace unwinds
            // below exactly as if the job had failed mid-flight.
            let outcome = deadline
                .check()
                .and_then(|()| self.exec_job_with_retry(&job, &deadline));
            match outcome {
                Ok(()) => {
                    self.jobs.lock().states.insert(id, JobState::Done);
                }
                Err(e) => {
                    let is_compaction = matches!(job, Job::Compact { .. });
                    // A compaction that died on the media or ran out of
                    // time leaves the keyspace DEGRADED: its sealed logs
                    // are intact, it can be deleted or re-compacted, and
                    // no other keyspace is affected. One that ran out of
                    // *space* leaves it READ_ONLY: same sealed logs, but
                    // the typed state tells clients writes will not help
                    // until space is reclaimed.
                    let to = match &e {
                        DeviceError::Flash(_) | DeviceError::DeadlineExceeded if is_compaction => {
                            Some(KeyspaceState::Degraded)
                        }
                        DeviceError::OutOfDram(_) if is_compaction => Some(KeyspaceState::ReadOnly),
                        // An index build that ran out of zones freezes its
                        // (already compacted, still queryable) keyspace so
                        // clients stop submitting work the device cannot
                        // finish until space is reclaimed.
                        DeviceError::OutOfZones { .. } => Some(KeyspaceState::ReadOnly),
                        _ => None,
                    };
                    let ks = job.ks();
                    self.jobs
                        .lock()
                        .states
                        .insert(id, JobState::Failed(KvStatus::from(e)));
                    if let Some(to) = to {
                        let _ = self.km.with_mut(ks, |k| {
                            let from_ok = match to {
                                KeyspaceState::ReadOnly => matches!(
                                    k.state,
                                    KeyspaceState::Compacting | KeyspaceState::Compacted
                                ),
                                _ => k.state == KeyspaceState::Compacting,
                            };
                            if from_ok {
                                k.transition_to(to)?;
                            }
                            Ok(())
                        });
                        let counter = match to {
                            KeyspaceState::ReadOnly => "dev_keyspaces_readonly",
                            _ => "dev_keyspaces_degraded",
                        };
                        self.soc.ledger().bump(counter, 1);
                        // Persisting may itself fail under power loss;
                        // reopen re-derives the state from the sealed logs.
                        let _ = self.persist();
                    }
                }
            }
            ran += 1;
        }
        ran
    }

    /// Retry budget for transient flash errors inside background jobs.
    const JOB_MAX_RETRIES: u32 = 4;
    /// First backoff step; doubles per retry (simulated time, ledger only).
    const JOB_BACKOFF_BASE_NS: u64 = 50_000;

    fn exec_job(&self, job: &Job, deadline: &Deadline<'_>) -> Result<()> {
        match job {
            Job::Compact { ks, specs } => self.exec_compact(*ks, specs, deadline),
            Job::BuildSidx { ks, spec } => self.exec_build_sidx(*ks, spec, deadline),
        }
    }

    /// Run one job, retrying transient flash errors with bounded
    /// exponential backoff. Clusters allocated by a failed attempt are
    /// swept immediately so retries do not leak zones. The deadline is
    /// re-checked before every retry so an expired job stops burning
    /// backoff budget.
    fn exec_job_with_retry(&self, job: &Job, deadline: &Deadline<'_>) -> Result<()> {
        let mut attempt = 0u32;
        loop {
            let before = self.live_clusters();
            let r = self.exec_job(job, deadline);
            if r.is_err() {
                self.sweep_job_orphans(&before);
            }
            match r {
                Err(DeviceError::Flash(ref f))
                    if f.is_transient() && attempt < Self::JOB_MAX_RETRIES =>
                {
                    deadline.check()?;
                    attempt += 1;
                    self.soc.ledger().bump("dev_job_retries", 1);
                    self.soc.ledger().bump(
                        "dev_job_backoff_ns",
                        Self::JOB_BACKOFF_BASE_NS << (attempt - 1),
                    );
                }
                other => return other,
            }
        }
    }

    /// Every cluster the zone manager currently has allocated.
    fn live_clusters(&self) -> HashSet<u32> {
        self.mgr
            .export_state()
            .clusters
            .iter()
            .map(|c| c.id)
            .collect()
    }

    /// Release clusters a failed job allocated that no keyspace ended up
    /// referencing — the in-session analogue of reopen's orphan cleanup.
    fn sweep_job_orphans(&self, before: &HashSet<u32>) {
        let after = self.mgr.export_state();
        let referenced = self.referenced_clusters();
        for cs in &after.clusters {
            if !before.contains(&cs.id) && !referenced.contains(&cs.id) {
                // Zone resets can fail too under power loss; reopen's
                // orphan sweep is the backstop.
                if self.mgr.release_cluster(ClusterId(cs.id)).is_ok() {
                    self.soc.ledger().bump("dev_job_orphans_released", 1);
                }
            }
        }
    }

    /// Every cluster currently referenced by some keyspace's storage.
    fn referenced_clusters(&self) -> HashSet<u32> {
        self.km.with_all(|list| {
            list.iter()
                .flat_map(|ks| ks.storage.clusters())
                .map(|c| c.0)
                .collect()
        })
    }

    /// Run queued jobs that belong to keyspace `ks` (used before delete).
    fn run_jobs_for(&self, ks: u32) {
        let has_any = {
            let jobs = self.jobs.lock();
            jobs.queue.iter().any(|(_, j, _)| j.ks() == ks)
        };
        if has_any {
            // Deletion "may be deferred due to on-going compaction or
            // index operations": simplest faithful behaviour is to finish
            // them first.
            self.run_pending_jobs();
        }
    }

    /// Compact a keyspace, building `specs`' secondary indexes in the
    /// same pass, with the paper's fallback: "resort back to separated
    /// index construction when DRAM resources become a bottleneck".
    fn exec_compact(
        &self,
        ks: u32,
        specs: &[SecondaryIndexSpec],
        deadline: &Deadline<'_>,
    ) -> Result<()> {
        let (klog, vlog, pairs) = self
            .km
            .with(ks, |k| match (k.storage.klog, k.storage.vlog) {
                (Some(klog), Some(vlog)) => Ok((klog, vlog, k.pairs)),
                _ => Err(DeviceError::Internal("no sealed logs".into())),
            })?;
        let before = self.live_clusters();
        let (out, souts) = match run_compaction(
            &self.mgr,
            &self.soc,
            &self.dram,
            klog,
            vlog,
            pairs,
            self.cfg.cluster_width,
            specs,
            deadline,
        ) {
            Ok(built) => built,
            // Out of zones, the separated path would only fail the same
            // way; that error surfaces and the keyspace goes READ_ONLY.
            Err(DeviceError::OutOfDram(_)) if !specs.is_empty() => {
                // Drop what the single pass wrote before it gave up.
                self.sweep_job_orphans(&before);
                self.soc.ledger().bump("dev_single_pass_fallbacks", 1);
                self.exec_compact(ks, &[], deadline)?;
                for spec in specs {
                    deadline.check()?;
                    self.exec_build_sidx(ks, spec, deadline)?;
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        self.km.with_mut(ks, |k| {
            install_sidx(k, specs, souts)?;
            k.storage.klog = None;
            k.storage.vlog = None;
            k.storage.pidx = Some(out.pidx);
            k.storage.pidx_sketch = out.sketch;
            k.storage.svalues = Some(out.svalues);
            k.transition_to(KeyspaceState::Compacted)?;
            Ok(())
        })?;
        self.persist()?;
        let counter = if specs.is_empty() {
            "dev_compactions"
        } else {
            "dev_single_pass_compactions"
        };
        self.soc.ledger().bump(counter, 1);
        Ok(())
    }

    fn exec_build_sidx(
        &self,
        ks: u32,
        spec: &SecondaryIndexSpec,
        deadline: &Deadline<'_>,
    ) -> Result<()> {
        let (pidx, svalues) = self.km.with(ks, |k| {
            k.require_state(KeyspaceState::Compacted, "build_sidx")?;
            Ok((
                k.storage
                    .pidx
                    .ok_or_else(|| DeviceError::Internal("no pidx".into()))?,
                k.storage
                    .svalues
                    .ok_or_else(|| DeviceError::Internal("no svalues".into()))?,
            ))
        })?;
        let out = build_secondary_index(
            &self.mgr,
            &self.soc,
            &self.dram,
            pidx,
            svalues,
            spec,
            self.cfg.cluster_width,
            deadline,
        )?;
        self.km.with_mut(ks, |k| {
            install_sidx(k, std::slice::from_ref(spec), vec![out])
        })?;
        self.persist()?;
        self.soc.ledger().bump("dev_sidx_builds", 1);
        Ok(())
    }

    // ---- command implementations --------------------------------------------

    fn ensure_writable(&self, ks: u32) -> Result<()> {
        // EMPTY -> WRITABLE on first write: allocate the log clusters and
        // the 192 KiB ingest buffer.
        let needs_open = self.km.with(ks, |k| match k.state {
            KeyspaceState::Writable => Ok(false),
            KeyspaceState::Empty => Ok(true),
            _ => Err(DeviceError::BadState {
                state: k.state.name(),
                op: "put",
            }),
        })?;
        if !needs_open {
            return Ok(());
        }
        // The guard releases the ingest buffer if any cluster allocation
        // fails (previously this leaked); on success it is leaked into the
        // keyspace, which releases at seal or delete.
        let ingest = self
            .dram
            .reserve(INGEST_BUFFER_BYTES as u64)
            .ok_or(DeviceError::OutOfDram("ingest DRAM"))?;
        let kc = self.mgr.alloc_cluster(self.cfg.cluster_width)?;
        let vc = self.mgr.alloc_cluster(self.cfg.cluster_width)?;
        let wal = if self.cfg.wal {
            Some(crate::wal::DeviceWal::new(
                self.mgr.alloc_cluster(self.cfg.cluster_width)?,
            ))
        } else {
            None
        };
        let opened = self.km.with_mut(ks, |k| {
            // Double-check under the lock (another thread may have opened).
            if k.state == KeyspaceState::Writable {
                return Ok(false);
            }
            k.storage.wlog = Some(WriteLog::new(kc, vc));
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

    fn do_put(&self, ks: u32, key: &[u8], value: &[u8]) -> Result<()> {
        if key.is_empty() || key.len() > u16::MAX as usize {
            return Err(DeviceError::BadPayload("key length".into()));
        }
        self.ensure_writable(ks)?;
        self.km.with_mut(ks, |k| {
            // Write-ahead: the WAL record lands before the ingest buffer.
            if let Some(dwal) = k.storage.dwal.as_mut() {
                dwal.append(&self.mgr, &self.soc, key, value)?;
            }
            let wlog = k
                .storage
                .wlog
                .as_mut()
                .ok_or_else(|| DeviceError::Internal("writable without wlog".into()))?;
            wlog.put(&self.mgr, &self.soc, key, value)?;
            k.pairs = wlog.pairs;
            k.data_bytes = wlog.data_bytes;
            k.min_key = wlog.min_key.clone();
            k.max_key = wlog.max_key.clone();
            Ok(())
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
            if k.state != KeyspaceState::Writable {
                return Ok(None);
            }
            let (kc, vc, klen, vlen) = {
                let wlog = k
                    .storage
                    .wlog
                    .as_mut()
                    .ok_or_else(|| DeviceError::Internal("writable without wlog".into()))?;
                let (klen, vlen) = wlog.seal(&self.mgr)?;
                (wlog.klog.cluster(), wlog.vlog.cluster(), klen, vlen)
            };
            k.storage.wlog = None;
            k.storage.klog = Some((kc, klen));
            k.storage.vlog = Some((vc, vlen));
            k.transition_to(KeyspaceState::ReadOnly)?;
            Ok(Some(k.storage.dwal.take().map(|w| w.cluster())))
        });
        // On Err the seal failed (keyspace stays WRITABLE, client may
        // retry the put); on Ok(None) the keyspace was not WRITABLE:
        // nothing to freeze either way.
        if let Ok(Some(wal_cluster)) = sealed {
            self.dram.release(INGEST_BUFFER_BYTES as u64);
            if let Some(c) = wal_cluster {
                let _ = self.mgr.release_cluster(c);
            }
            self.soc.ledger().bump("dev_keyspaces_readonly", 1);
            // Persist may fail on an exhausted device; reopen's
            // recovery path re-derives state from the sealed logs.
            let _ = self.persist();
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
        let sealed = self.km.with_mut(ks, |k| {
            match k.state {
                KeyspaceState::Writable => {}
                KeyspaceState::Empty => {
                    // Compacting an empty keyspace: trivially queryable.
                    k.transition_to(KeyspaceState::Compacted)?;
                    return Ok(Seal::Empty);
                }
                // A DEGRADED or READ_ONLY keyspace keeps its sealed logs;
                // re-compaction is just re-entering COMPACTING and
                // re-running the job (for READ_ONLY this is the recovery
                // path once space has been reclaimed).
                KeyspaceState::Degraded | KeyspaceState::ReadOnly
                    if k.storage.klog.is_some() && k.storage.vlog.is_some() =>
                {
                    k.transition_to(KeyspaceState::Compacting)?;
                    return Ok(Seal::Resealed);
                }
                _ => {
                    return Err(DeviceError::BadState {
                        state: k.state.name(),
                        op: "compact",
                    })
                }
            }
            // Seal in place: if the flush hits a transient flash error the
            // wlog stays in `storage` (still WRITABLE) and the client can
            // retry the whole COMPACT command; only a successful seal takes
            // the log out.
            let (kc, vc, klen, vlen) = {
                let wlog = k
                    .storage
                    .wlog
                    .as_mut()
                    .ok_or_else(|| DeviceError::Internal("writable without wlog".into()))?;
                let (klen, vlen) = wlog.seal(&self.mgr)?;
                (wlog.klog.cluster(), wlog.vlog.cluster(), klen, vlen)
            };
            k.storage.wlog = None;
            k.storage.klog = Some((kc, klen));
            k.storage.vlog = Some((vc, vlen));
            k.transition_to(KeyspaceState::Compacting)?;
            // Once the logs are sealed every pair is durable on flash;
            // the WAL has served its purpose.
            Ok(Seal::Sealed(k.storage.dwal.take().map(|w| w.cluster())))
        })?;
        if let Seal::Sealed(wal_cluster) = &sealed {
            self.dram.release(INGEST_BUFFER_BYTES as u64);
            if let Some(c) = wal_cluster {
                self.mgr.release_cluster(*c)?;
            }
        }
        self.persist()?;
        let job = self.enqueue(Job::Compact { ks, specs }, deadline_ns);
        if matches!(sealed, Seal::Empty) {
            // Empty keyspace: nothing to do; complete immediately.
            let mut jobs = self.jobs.lock();
            jobs.queue.retain(|(id, _, _)| *id != job.0);
            self.job_depth.set(jobs.queue.len());
            jobs.states.insert(job.0, JobState::Done);
        }
        Ok(job)
    }

    fn do_delete(&self, ks: u32) -> Result<()> {
        self.run_jobs_for(ks);
        let record = self.km.remove(ks)?;
        // Free every cluster the keyspace owns; zone resets reclaim space
        // without any device-side GC (the ZNS advantage).
        if record.storage.wlog.is_some() {
            self.dram.release(INGEST_BUFFER_BYTES as u64);
        }
        for c in record.storage.clusters() {
            self.mgr.release_cluster(c)?;
        }
        // Space reclaimed: keyspaces that froze READ_ONLY *after* their
        // compaction finished (index intact) are fully queryable again and
        // transition back to COMPACTED. Ones still holding raw logs need a
        // client-driven re-compaction instead.
        self.thaw_read_only_keyspaces();
        self.persist()?;
        Ok(())
    }

    /// READ_ONLY -> COMPACTED for every frozen keyspace whose primary
    /// index survived; called whenever zones are returned to the pool.
    fn thaw_read_only_keyspaces(&self) {
        let ids: Vec<u32> = self.km.with_all(|list| {
            list.iter()
                .filter(|k| k.state == KeyspaceState::ReadOnly && k.storage.pidx.is_some())
                .map(|k| k.id)
                .collect()
        });
        for id in ids {
            let thawed = self.km.with_mut(id, |k| {
                if k.state == KeyspaceState::ReadOnly && k.storage.pidx.is_some() {
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

    fn stat(&self, ks: u32) -> Result<KeyspaceStat> {
        self.km.with(ks, |k| {
            Ok(KeyspaceStat {
                id: k.id,
                name: k.name.clone(),
                state: k.state,
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

/// Install built secondary indexes into `k`. An existing name is never
/// replaced: that would orphan the old index's cluster. The job then
/// fails with `IndexExists` and its orphan sweep releases the new ones.
fn install_sidx(
    k: &mut crate::keyspace::Keyspace,
    specs: &[SecondaryIndexSpec],
    outs: Vec<SidxOutput>,
) -> Result<()> {
    if specs.iter().any(|s| k.storage.sidx.contains_key(&s.name)) {
        return Err(DeviceError::IndexExists);
    }
    for (spec, out) in specs.iter().zip(outs) {
        k.storage.sidx.insert(
            spec.name.clone(),
            SecondaryIndex {
                spec: spec.clone(),
                cluster: out.cluster,
                blocks: out.blocks,
                sketch: out.sketch,
                entries: out.entries,
            },
        );
    }
    Ok(())
}

/// Query-path state check: COMPACTED serves everything; READ_ONLY keeps
/// serving from its primary index when the freeze happened *after*
/// compaction (graceful degradation — reads outlive writes).
fn require_queryable(k: &crate::keyspace::Keyspace, op: &'static str) -> Result<()> {
    match k.state {
        KeyspaceState::Compacted => Ok(()),
        KeyspaceState::ReadOnly if k.storage.pidx.is_some() => Ok(()),
        _ => Err(DeviceError::BadState {
            state: k.state.name(),
            op,
        }),
    }
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
                    let state = self.km.with(id, |k| Ok(k.state))?;
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
                    self.admit_write(ks, &deadline)?;
                    if let Err(e) = self.do_put(ks, &key, &value) {
                        if Self::is_space_exhaustion(&e) {
                            self.freeze_writable_read_only(ks);
                        }
                        return Err(e);
                    }
                    self.soc.ledger().bump("dev_puts", 1);
                    Ok(KvResponse::PutOk)
                }
                KvCommand::BulkPut { ks, payload } => {
                    self.admit_write(ks, &deadline)?;
                    let mut inserted = 0u64;
                    for (key, value) in payload.iter() {
                        if let Err(e) = self.do_put(ks, key, value) {
                            if Self::is_space_exhaustion(&e) {
                                self.freeze_writable_read_only(ks);
                            }
                            return Err(e);
                        }
                        inserted += 1;
                    }
                    self.soc.ledger().bump("dev_bulk_puts", 1);
                    self.soc.ledger().bump("dev_puts", inserted);
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
                    let job = self.enqueue(Job::BuildSidx { ks, spec }, deadline.deadline_ns());
                    Ok(KvResponse::JobStarted { job })
                }
                KvCommand::PollJob { job } => {
                    let jobs = self.jobs.lock();
                    let state = jobs
                        .states
                        .get(&job.0)
                        .cloned()
                        .ok_or(DeviceError::Internal("job not found".into()))
                        .map_err(|_| DeviceError::Internal("job not found".into()))?;
                    Ok(KvResponse::Job { state })
                }
                KvCommand::Get { ks, key } => {
                    self.admit_query(ks, &deadline)?;
                    self.soc.ledger().bump("dev_gets", 1);
                    self.km.with(ks, |k| {
                        require_queryable(k, "get")?;
                        let v = query::point_get(&self.mgr, &self.soc, &k.storage, &key)?;
                        Ok(KvResponse::Value(v))
                    })
                }
                KvCommand::Range { ks, lo, hi, limit } => {
                    self.admit_query(ks, &deadline)?;
                    self.soc.ledger().bump("dev_ranges", 1);
                    self.km.with(ks, |k| {
                        require_queryable(k, "range")?;
                        let es = query::range(&self.mgr, &self.soc, &k.storage, &lo, &hi, limit)?;
                        Ok(KvResponse::Entries(es))
                    })
                }
                KvCommand::SidxGet { ks, index, key } => {
                    self.admit_query(ks, &deadline)?;
                    self.soc.ledger().bump("dev_sidx_gets", 1);
                    self.km.with(ks, |k| {
                        require_queryable(k, "sidx_get")?;
                        let es = query::sidx_get(
                            &self.mgr,
                            &self.soc,
                            &k.storage,
                            &index,
                            &key.encode(),
                        )?;
                        Ok(KvResponse::Entries(es))
                    })
                }
                KvCommand::SidxRange {
                    ks,
                    index,
                    lo,
                    hi,
                    limit,
                } => {
                    self.admit_query(ks, &deadline)?;
                    self.soc.ledger().bump("dev_sidx_ranges", 1);
                    self.km.with(ks, |k| {
                        require_queryable(k, "sidx_range")?;
                        let es = query::sidx_range(
                            &self.mgr, &self.soc, &k.storage, &index, &lo, &hi, limit,
                        )?;
                        Ok(KvResponse::Entries(es))
                    })
                }
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
    use kvcsd_flash::{FlashGeometry, NandArray, ZnsConfig};
    use kvcsd_proto::{Bound, BulkBuilder, SecondaryKeyType, SidxKey};
    use kvcsd_sim::{HardwareSpec, IoLedger};

    fn device() -> KvCsdDevice {
        let geom = FlashGeometry {
            channels: 8,
            blocks_per_channel: 256,
            pages_per_block: 16,
            page_bytes: 4096,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        let zns = Arc::new(ZonedNamespace::new(nand, ZnsConfig::default()));
        KvCsdDevice::new(
            zns,
            CostModel::default(),
            DeviceConfig {
                cluster_width: 8,
                soc_dram_bytes: 8 << 20,
                seed: 1,
                ..DeviceConfig::default()
            },
        )
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
        let geom = FlashGeometry {
            channels: 8,
            blocks_per_channel: 256,
            pages_per_block: 16,
            page_bytes: 4096,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        let zns = Arc::new(ZonedNamespace::new(nand, ZnsConfig::default()));
        let cfg = DeviceConfig {
            cluster_width: 8,
            soc_dram_bytes: 8 << 20,
            seed: 1,
            ..DeviceConfig::default()
        };
        let dev = KvCsdDevice::new(Arc::clone(&zns), CostModel::default(), cfg.clone());
        let ks = create(&dev, "a");
        load_and_compact(&dev, ks, 100);
        drop(dev);
        // Scribble over both ping-pong zones: every durable generation is
        // gone but debris proves generations existed.
        zns.reset(0).unwrap();
        zns.reset(1).unwrap();
        zns.append(0, &[0xAA; 64]).unwrap();
        zns.append(1, &[0xBB; 64]).unwrap();
        let err = KvCsdDevice::reopen(Arc::clone(&zns), CostModel::default(), cfg).unwrap_err();
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
                assert_eq!(k.state, KeyspaceState::Degraded);
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

    #[test]
    fn compact_and_index_falls_back_on_tight_dram() {
        let geom = FlashGeometry {
            channels: 8,
            blocks_per_channel: 512,
            pages_per_block: 16,
            page_bytes: 4096,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        let zns = Arc::new(ZonedNamespace::new(nand, ZnsConfig::default()));
        // DRAM: the 192 KiB ingest buffer plus a sliver. The single-pass
        // job needs gather + two index sorters + value sorter concurrently
        // (4 x 64 KiB minimum reservations) and cannot fit; the separated
        // path never holds more than three.
        let dev = KvCsdDevice::new(
            zns,
            CostModel::default(),
            DeviceConfig {
                cluster_width: 8,
                soc_dram_bytes: (192 << 10) + (20 << 10),
                seed: 1,
                // This test runs at ~90% DRAM by construction; the stall
                // band would otherwise bounce every put.
                admission: AdmissionConfig::permissive(),
                ..DeviceConfig::default()
            },
        );
        let ks = create(&dev, "tight");
        for i in 0..500 {
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
        assert_eq!(
            dev.soc().ledger().custom("dev_single_pass_fallbacks"),
            1,
            "tight DRAM must trigger the separated fallback"
        );
        // What the single pass wrote before it gave up is released.
        assert_eq!(
            dev.referenced_clusters().len(),
            dev.zone_manager().cluster_count()
        );
        // The fallback still delivers a fully indexed keyspace.
        match ok(dev.handle(KvCommand::SidxGet {
            ks,
            index: "energy".into(),
            key: SidxKey::F32(99.0),
        })) {
            KvResponse::Entries(es) => assert_eq!(es.len(), 1),
            other => panic!("{other:?}"),
        }
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
        dev.run_pending_jobs();
        match ok(dev.handle(KvCommand::PollJob { job })) {
            KvResponse::Job { state } => assert_eq!(state, JobState::Done),
            other => panic!("{other:?}"),
        }
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

    /// Build a device whose ZNS handle we keep, so we can "crash" (drop
    /// the device struct) and reopen from flash.
    fn device_with_zns() -> (KvCsdDevice, Arc<ZonedNamespace>) {
        let geom = FlashGeometry {
            channels: 8,
            blocks_per_channel: 256,
            pages_per_block: 16,
            page_bytes: 4096,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        let zns = Arc::new(ZonedNamespace::new(nand, ZnsConfig::default()));
        let dev = KvCsdDevice::new(
            Arc::clone(&zns),
            CostModel::default(),
            DeviceConfig {
                cluster_width: 8,
                soc_dram_bytes: 8 << 20,
                seed: 1,
                ..DeviceConfig::default()
            },
        );
        (dev, zns)
    }

    fn reopen(zns: Arc<ZonedNamespace>) -> KvCsdDevice {
        KvCsdDevice::reopen(
            zns,
            CostModel::default(),
            DeviceConfig {
                cluster_width: 8,
                soc_dram_bytes: 8 << 20,
                seed: 1,
                ..DeviceConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn restart_recovers_compacted_keyspaces() {
        let (dev, zns) = device_with_zns();
        let ks = create(&dev, "persist-me");
        load_and_compact(&dev, ks, 1500);
        let spec = SecondaryIndexSpec {
            name: "energy".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        };
        ok(dev.handle(KvCommand::BuildSecondaryIndex { ks, spec }));
        dev.run_pending_jobs();
        drop(dev); // crash

        let dev2 = reopen(zns);
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
        let (dev, zns) = device_with_zns();
        let ks = create(&dev, "inflight");
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
        drop(dev);

        let dev2 = reopen(zns);
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
        let (dev, zns) = device_with_zns();
        let baseline_free = dev.zone_manager().free_zones();
        let ks = create(&dev, "volatile");
        for i in 0..200 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        drop(dev); // crash with unsynced buffered data

        let dev2 = reopen(zns);
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

    fn device_with_wal(zns: &Arc<ZonedNamespace>) -> KvCsdDevice {
        KvCsdDevice::new(
            Arc::clone(zns),
            CostModel::default(),
            DeviceConfig {
                cluster_width: 8,
                soc_dram_bytes: 8 << 20,
                seed: 1,
                wal: true,
                ..DeviceConfig::default()
            },
        )
    }

    fn reopen_with_wal(zns: Arc<ZonedNamespace>) -> KvCsdDevice {
        KvCsdDevice::reopen(
            zns,
            CostModel::default(),
            DeviceConfig {
                cluster_width: 8,
                soc_dram_bytes: 8 << 20,
                seed: 1,
                wal: true,
                ..DeviceConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn wal_recovers_synced_writes_across_restart() {
        let (dev0, zns) = device_with_zns();
        drop(dev0);
        let dev = device_with_wal(&zns);
        let ks = create(&dev, "durable");
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
        drop(dev); // crash: 200 synced + 30 unsynced (some may sit in full blocks)

        let dev2 = reopen_with_wal(zns);
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
        let (dev0, zns) = device_with_zns();
        drop(dev0);
        let dev = device_with_wal(&zns);
        let ks = create(&dev, "torn");
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
        drop(dev);

        let dev2 = reopen_with_wal(zns);
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
        let (dev0, zns) = device_with_zns();
        drop(dev0);
        let dev = device_with_wal(&zns);
        let free0 = dev.zone_manager().free_zones();
        let ks = create(&dev, "w");
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
        let (dev, zns) = device_with_zns();
        drop(dev); // never persisted anything
        let dev2 = reopen(zns);
        match ok(dev2.handle(KvCommand::ListKeyspaces)) {
            KvResponse::Keyspaces(l) => assert!(l.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_table_mutation_persists() {
        let (dev, _zns) = device_with_zns();
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

    /// Install a fault injector on a live device's NAND array.
    fn arm_faults(dev: &KvCsdDevice, plan: kvcsd_sim::FaultPlan) -> Arc<kvcsd_sim::FaultInjector> {
        let inj = Arc::new(kvcsd_sim::FaultInjector::new(plan));
        dev.zone_manager()
            .zns()
            .nand()
            .set_fault_injector(Some(Arc::clone(&inj)));
        inj
    }

    fn disarm_faults(dev: &KvCsdDevice) {
        dev.zone_manager().zns().nand().set_fault_injector(None);
    }

    #[test]
    fn persistent_media_failure_degrades_keyspace_not_device() {
        let dev = device();
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
        arm_faults(
            &dev,
            kvcsd_sim::FaultPlan {
                seed: 9,
                ..kvcsd_sim::FaultPlan::none()
            }
            .with_error_prob(1.0)
            .with_persistent_fraction(1.0),
        );
        dev.run_pending_jobs();
        disarm_faults(&dev);
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
        let dev = device();
        let ks = create(&dev, "heal");
        for i in 0..150 {
            ok(dev.handle(KvCommand::Put {
                ks,
                key: key(i),
                value: value(i),
            }));
        }
        ok(dev.handle(KvCommand::Compact { ks }));
        arm_faults(
            &dev,
            kvcsd_sim::FaultPlan {
                seed: 5,
                ..kvcsd_sim::FaultPlan::none()
            }
            .with_error_prob(1.0)
            .with_persistent_fraction(1.0),
        );
        dev.run_pending_jobs();
        disarm_faults(&dev);
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
        let dev = device();
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
        arm_faults(
            &dev,
            kvcsd_sim::FaultPlan {
                seed: 11,
                ..kvcsd_sim::FaultPlan::none()
            }
            .with_error_prob(1.0)
            .with_persistent_fraction(1.0),
        );
        dev.run_pending_jobs();
        disarm_faults(&dev);
        ok(dev.handle(KvCommand::DeleteKeyspace { ks }));
        assert_eq!(
            dev.zone_manager().free_zones(),
            free0,
            "all zones reclaimed"
        );
    }

    #[test]
    fn transient_job_failures_are_retried_with_backoff() {
        let dev = device();
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
        arm_faults(
            &dev,
            kvcsd_sim::FaultPlan {
                seed: 2,
                ..kvcsd_sim::FaultPlan::none()
            }
            .with_error_prob(1.0),
        );
        dev.run_pending_jobs();
        disarm_faults(&dev);
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
            let dev = device();
            let ks = create(&dev, "leaky");
            for i in 0..300 {
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
            arm_faults(
                &dev,
                kvcsd_sim::FaultPlan {
                    seed: 21,
                    read_error_prob: 0.15,
                    ..kvcsd_sim::FaultPlan::none()
                }
                .with_persistent_fraction(1.0),
            );
            dev.run_pending_jobs();
            disarm_faults(&dev);
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
        let (dev, zns) = device_with_zns();
        let ks = create(&dev, "fallback");
        load_and_compact(&dev, ks, 400);
        drop(dev);
        // Append a CRC-valid but undecodable frame as the newest
        // generation (version byte 99): reopen must skip it.
        let mut meta = MetaStore::new(Arc::clone(&zns), 0);
        meta.write(&[99u8, 1, 2, 3]).unwrap();

        let dev2 = reopen(zns);
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
        let (dev, zns) = device_with_zns();
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
        arm_faults(
            &dev,
            kvcsd_sim::FaultPlan {
                seed: 31,
                read_error_prob: 1.0,
                ..kvcsd_sim::FaultPlan::none()
            }
            .with_persistent_fraction(1.0),
        );
        dev.run_pending_jobs();
        disarm_faults(&dev);
        drop(dev);

        let dev2 = reopen(zns);
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
