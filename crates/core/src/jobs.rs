//! Deferred background jobs: compaction and secondary-index builds.
//!
//! The paper's device seals a keyspace's logs synchronously and defers
//! the sort and the index builds to background jobs the host polls
//! (Sections IV–V). [`JobQueue`] owns that bookkeeping — job ids, the
//! FIFO, each job's Pending → Running → Done / Failed state and the
//! queue-depth gauge admission reads — and is the only code that changes
//! any of it. The `impl KvCsdDevice` block below executes the jobs.

use std::collections::{HashMap, HashSet, VecDeque};

use kvcsd_proto::{JobId, JobState, KeyspaceState, KvStatus, SecondaryIndexSpec};
use kvcsd_sim::clock::doubling_backoff_ns;
use kvcsd_sim::sync::{Mutex, Shared};

use crate::admission::Deadline;
use crate::compact::run_compaction;
use crate::device::KvCsdDevice;
use crate::error::DeviceError;
use crate::keyspace::{Keyspace, SecondaryIndex};
use crate::sidx::{build_secondary_index, SidxOutput};
use crate::zone_mgr::ClusterId;
use crate::Result;

/// One unit of deferred work on keyspace `ks`.
#[derive(Debug)]
pub(crate) enum Job {
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

/// A queued job: `(id, job, deadline_ns)`. The deadline of the command
/// that enqueued the job rides along so expired work is dropped instead
/// of run.
type Queued = (u64, Job, Option<u64>);

#[derive(Default)]
struct JobTable {
    next: u64,
    states: HashMap<u64, JobState>,
    queue: VecDeque<Queued>,
}

impl JobTable {
    fn issue(&mut self, state: JobState) -> u64 {
        self.next += 1;
        self.states.insert(self.next, state);
        self.next
    }
}

/// The device's job table and the depth gauge that mirrors its queue.
pub(crate) struct JobQueue {
    table: Mutex<JobTable>,
    /// Queue-depth gauge mirroring `table.queue.len()`, set inside the
    /// table's critical sections. Admission pressure probes read this
    /// [`Shared`] cell instead of taking the job lock (DESIGN.md §11).
    depth: Shared<usize>,
}

impl JobQueue {
    pub(crate) fn new() -> Self {
        Self {
            table: Mutex::new(JobTable::default()),
            depth: Shared::new(0),
        }
    }

    /// Jobs waiting to run, from the gauge: no job lock taken.
    pub(crate) fn depth(&self) -> usize {
        self.depth.get()
    }

    /// Queue `job` as Pending.
    pub(crate) fn submit(&self, job: Job, deadline_ns: Option<u64>) -> JobId {
        let mut table = self.table.lock();
        let id = table.issue(JobState::Pending);
        table.queue.push_back((id, job, deadline_ns));
        self.depth.set(table.queue.len());
        JobId(id)
    }

    /// Issue an id for work that finished at submission: it is Done
    /// before anyone polls and never enters the queue.
    pub(crate) fn submit_done(&self) -> JobId {
        JobId(self.table.lock().issue(JobState::Done))
    }

    /// Dequeue the oldest job and mark it Running.
    fn start_next(&self) -> Option<Queued> {
        let mut table = self.table.lock();
        let next = table.queue.pop_front()?;
        self.depth.set(table.queue.len());
        table.states.insert(next.0, JobState::Running);
        Some(next)
    }

    /// Record a Running job's outcome: Done, or Failed with its status.
    fn finish(&self, id: u64, outcome: std::result::Result<(), KvStatus>) {
        let state = outcome.map_or_else(JobState::Failed, |()| JobState::Done);
        self.table.lock().states.insert(id, state);
    }

    /// The state of job `id`, if this device issued it.
    pub(crate) fn state(&self, id: JobId) -> Option<JobState> {
        self.table.lock().states.get(&id.0).cloned()
    }

    fn has_queued_for(&self, ks: u32) -> bool {
        self.table.lock().queue.iter().any(|(_, j, _)| j.ks() == ks)
    }
}

impl KvCsdDevice {
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
        while let Some((id, job, deadline_ns)) = self.jobs.start_next() {
            let deadline = Deadline::new(&self.clock, deadline_ns);
            // An expired job is dropped, not run: its keyspace unwinds
            // below exactly as if the job had failed mid-flight.
            let outcome = deadline
                .check()
                .and_then(|()| self.exec_job_with_retry(&job, &deadline));
            self.jobs
                .finish(id, outcome.clone().map_err(KvStatus::from));
            if let Err(e) = &outcome {
                self.unwind_failed_job(&job, e);
            }
            ran += 1;
        }
        ran
    }

    /// Move a failed job's keyspace to the state that tells clients what
    /// will help. A compaction that died on the media or ran out of time
    /// leaves it DEGRADED: its sealed logs are intact, it can be deleted
    /// or re-compacted, and no other keyspace is affected. One that ran
    /// out of *space* leaves it READ_ONLY: same sealed logs, but writes
    /// will not help until space is reclaimed.
    fn unwind_failed_job(&self, job: &Job, e: &DeviceError) {
        use KeyspaceState::{Compacted, Compacting, Degraded, ReadOnly};
        let is_compaction = matches!(job, Job::Compact { .. });
        let (to, counter) = match e {
            DeviceError::Flash(_) | DeviceError::DeadlineExceeded if is_compaction => {
                (Degraded, "dev_keyspaces_degraded")
            }
            DeviceError::OutOfDram(_) if is_compaction => (ReadOnly, "dev_keyspaces_readonly"),
            // An index build that ran out of zones freezes its (already
            // compacted, still queryable) keyspace so clients stop
            // submitting work the device cannot finish until space is
            // reclaimed.
            DeviceError::OutOfZones { .. } => (ReadOnly, "dev_keyspaces_readonly"),
            _ => return,
        };
        let _ = self.km.with_mut(job.ks(), |k| {
            if k.state() == Compacting || (to == ReadOnly && k.state() == Compacted) {
                k.transition_to(to)?;
            }
            Ok(())
        });
        self.soc.ledger().bump(counter, 1);
        // Persisting may itself fail under power loss; reopen re-derives
        // the state from the sealed logs.
        let _ = self.persist();
    }

    /// Retry budget for transient flash errors inside background jobs.
    const JOB_MAX_RETRIES: u32 = 4;
    /// First backoff step; doubles per retry (simulated time, ledger only).
    const JOB_BACKOFF_BASE_NS: u64 = 50_000;

    /// Run one job, retrying transient flash errors with bounded
    /// exponential backoff. Clusters allocated by a failed attempt are
    /// swept immediately so retries do not leak zones. The deadline is
    /// re-checked before every retry so an expired job stops burning
    /// backoff budget.
    fn exec_job_with_retry(&self, job: &Job, deadline: &Deadline<'_>) -> Result<()> {
        let mut attempt = 0u32;
        loop {
            let first = self.mgr.next_cluster_id();
            let r = match job {
                Job::Compact { ks, specs } => self.exec_compact(*ks, specs, deadline),
                Job::BuildSidx { ks, spec } => self.exec_build_sidx(*ks, spec, deadline),
            };
            if r.is_err() {
                self.sweep_job_orphans(first);
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
                        doubling_backoff_ns(Self::JOB_BACKOFF_BASE_NS, u64::MAX, attempt),
                    );
                }
                other => return other,
            }
        }
    }

    /// Release clusters a failed job allocated that no keyspace ended up
    /// referencing — the in-session analogue of reopen's orphan cleanup.
    /// `first` is the zone manager's next cluster id when the job began:
    /// ids only grow, so what the job allocated is numbered from there.
    fn sweep_job_orphans(&self, first: u32) {
        let referenced = self.referenced_clusters();
        for id in self.mgr.cluster_ids_from(first) {
            // Zone resets can fail too under power loss; reopen's orphan
            // sweep is the backstop.
            if !referenced.contains(&id) && self.mgr.release_cluster(ClusterId(id)).is_ok() {
                self.soc.ledger().bump("dev_job_orphans_released", 1);
            }
        }
    }

    /// Every cluster currently referenced by some keyspace's storage.
    pub(crate) fn referenced_clusters(&self) -> HashSet<u32> {
        self.km.with_all(|list| {
            list.iter()
                .flat_map(|ks| ks.storage.clusters())
                .map(|c| c.0)
                .collect()
        })
    }

    /// Run queued jobs that belong to keyspace `ks` (used before delete).
    pub(crate) fn run_jobs_for(&self, ks: u32) {
        if self.jobs.has_queued_for(ks) {
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
        let first = self.mgr.next_cluster_id();
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
                self.sweep_job_orphans(first);
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
        if out.run_merge {
            self.soc.ledger().bump("dev_run_merge_compactions", 1);
        }
        // Persist first, then reclaim: the logs are erased only once no
        // durable snapshot refers to them. A cut in between leaves them
        // to reopen's orphan sweep, so a failed erase does not fail the
        // finished compaction.
        let _ = self.mgr.release_cluster(klog.0);
        let _ = self.mgr.release_cluster(vlog.0);
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
            (k.storage.pidx.clone().zip(k.storage.svalues))
                .ok_or_else(|| DeviceError::Internal("compacted without pidx/svalues".into()))
        })?;
        let out = build_secondary_index(
            &self.mgr,
            &self.soc,
            &self.dram,
            &pidx,
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
}

/// Install built secondary indexes into `k`. An existing name is never
/// replaced: that would orphan the old index's cluster. The job then
/// fails with `IndexExists` and its orphan sweep releases the new ones.
fn install_sidx(
    k: &mut Keyspace,
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
                index: out.index,
                entries: out.entries,
            },
        );
    }
    Ok(())
}
