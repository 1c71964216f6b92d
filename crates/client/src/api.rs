//! The public client API: device handle, keyspace sessions, background
//! jobs.

use std::sync::Arc;

use kvcsd_proto::{
    Bound, DeviceHandler, JobId, JobState, KeyspaceDesc, KeyspaceStat, KeyspaceState, KvCommand,
    KvResponse, QueuePair, SecondaryIndexSpec, SidxKey,
};
use kvcsd_sim::clock::doubling_backoff_ns;
use kvcsd_sim::{IoLedger, VirtualClock};

use crate::accel::WriteAccelerator;
use crate::error::ClientError;
use crate::window::InflightWindow;
use crate::Result;

/// Bounded retry with exponential backoff for retryable device errors.
///
/// Only statuses where [`kvcsd_proto::KvStatus::is_retryable`] is true
/// (transient device errors) are resent; media errors, power loss, and
/// logical errors surface immediately. Backoff doubles per attempt from
/// `base_backoff_ns`, capped at `max_backoff_ns`; in simulation the wait
/// is charged to the ledger (`client_retry_backoff_ns`) rather than slept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Resends after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff_ns: u64,
    /// Ceiling on the per-retry backoff.
    pub max_backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_backoff_ns: 100_000,
            max_backoff_ns: 10_000_000,
        }
    }
}

impl RetryPolicy {
    /// Fail fast: surface the first error, retryable or not.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// Backoff before retry number `attempt` (1-based), doubling and capped.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        doubling_backoff_ns(self.base_backoff_ns, self.max_backoff_ns, attempt)
    }
}

/// Send `cmd`, resending on retryable statuses within the policy budget.
///
/// This is a thin wrapper over an ephemeral single-op
/// [`InflightWindow`]: the window owns the retry state machine (backoff
/// doubling charged to the ledger and the client clock, failover/fence
/// redirect fast paths, deadline-aware fail-fast with
/// [`KvStatus::DeadlineExceeded`]), so single-op calls and the pipelined
/// ingest path share one implementation. Each call's window is its own
/// completion queue, so concurrent sessions never see each other's
/// completions.
fn exec_with_retry(
    qp: &QueuePair,
    policy: &RetryPolicy,
    clock: &Arc<VirtualClock>,
    deadline_ns: Option<u64>,
    cmd: KvCommand,
) -> Result<KvResponse> {
    InflightWindow::new(qp.clone(), *policy, Arc::clone(clock)).call(deadline_ns, cmd)
}

/// Handle to one KV-CSD device.
#[derive(Debug, Clone)]
pub struct KvCsd {
    qp: QueuePair,
    policy: RetryPolicy,
    clock: Arc<VirtualClock>,
    deadline_ns: Option<u64>,
}

impl KvCsd {
    /// Connect to a device through a new queue pair. The client starts on
    /// a private clock; [`KvCsd::with_clock`] replaces it with the one
    /// the device runs on.
    pub fn connect(device: Arc<dyn DeviceHandler>, ledger: Arc<IoLedger>) -> Self {
        Self {
            qp: QueuePair::new(device, ledger),
            policy: RetryPolicy::default(),
            clock: Arc::new(VirtualClock::new()),
            deadline_ns: None,
        }
    }

    /// Replace the retry policy; sessions and jobs opened afterwards
    /// inherit it.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the private clock with the simulation clock shared with
    /// the device. Retry and poll backoff then advance the device's
    /// clock, and deadline-aware retries can tell when the budget is
    /// spent. Sessions and jobs opened afterwards inherit it.
    pub fn with_clock(mut self, clock: Arc<VirtualClock>) -> Self {
        self.clock = clock;
        self
    }

    /// Set an absolute deadline (sim-clock ns) stamped on every command
    /// issued through this handle and sessions opened from it. The device
    /// rejects expired work with `DeadlineExceeded`; the client retry loop
    /// never schedules a retry past the budget. The deadline is only
    /// meaningful on a clock shared with the device via
    /// [`KvCsd::with_clock`].
    pub fn with_deadline(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }

    fn exec(&self, cmd: KvCommand) -> Result<KvResponse> {
        exec_with_retry(&self.qp, &self.policy, &self.clock, self.deadline_ns, cmd)
    }

    fn session(&self, ks: u32) -> Keyspace {
        Keyspace {
            qp: self.qp.clone(),
            id: ks,
            policy: self.policy,
            clock: self.clock.clone(),
            deadline_ns: self.deadline_ns,
        }
    }

    /// Create a keyspace and open a session on it.
    pub fn create_keyspace(&self, name: &str) -> Result<Keyspace> {
        match self.exec(KvCommand::CreateKeyspace {
            name: name.to_string(),
        })? {
            KvResponse::Created { ks } => Ok(self.session(ks)),
            other => Err(unexpected("Created", &other)),
        }
    }

    /// Open an existing keyspace by name.
    pub fn open_keyspace(&self, name: &str) -> Result<(Keyspace, KeyspaceState)> {
        match self.exec(KvCommand::OpenKeyspace {
            name: name.to_string(),
        })? {
            KvResponse::Opened { ks, state } => Ok((self.session(ks), state)),
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Enumerate keyspaces on the device.
    pub fn list_keyspaces(&self) -> Result<Vec<KeyspaceDesc>> {
        match self.exec(KvCommand::ListKeyspaces)? {
            KvResponse::Keyspaces(l) => Ok(l),
            other => Err(unexpected("Keyspaces", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &KvResponse) -> ClientError {
    ClientError::UnexpectedResponse(format!("wanted {wanted}, got {got:?}"))
}

/// A session on one keyspace.
#[derive(Debug, Clone)]
pub struct Keyspace {
    qp: QueuePair,
    id: u32,
    policy: RetryPolicy,
    clock: Arc<VirtualClock>,
    deadline_ns: Option<u64>,
}

impl Keyspace {
    /// The device-assigned keyspace id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// A session clone whose commands carry an absolute deadline
    /// (sim-clock ns). Expired work fails with `DeadlineExceeded` at the
    /// device; the retry loop never backs off past the budget. Only
    /// meaningful on a clock shared with the device via
    /// [`KvCsd::with_clock`].
    pub fn with_deadline(&self, deadline_ns: u64) -> Keyspace {
        Keyspace {
            deadline_ns: Some(deadline_ns),
            ..self.clone()
        }
    }

    fn exec(&self, cmd: KvCommand) -> Result<KvResponse> {
        exec_with_retry(&self.qp, &self.policy, &self.clock, self.deadline_ns, cmd)
    }

    /// Insert a single key-value pair (one command round trip; prefer
    /// [`Keyspace::write_accelerator`] for load phases — the paper
    /// measures bulk PUT as 7x faster).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        match self.exec(KvCommand::Put {
            ks: self.id,
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            KvResponse::PutOk => Ok(()),
            other => Err(unexpected("PutOk", &other)),
        }
    }

    /// Open a pipelined [`WriteAccelerator`] on this keyspace: staged,
    /// key-sorted ~128 KB bulk PUTs kept in flight at depth instead of
    /// lock-step round trips. See `accel` module docs for the
    /// `flush()`/drop and acked-only durability contract.
    pub fn write_accelerator(&self) -> WriteAccelerator {
        WriteAccelerator::new(
            self.qp.clone(),
            self.id,
            self.policy,
            Arc::clone(&self.clock),
            self.deadline_ns,
        )
    }

    /// Explicit fsync: make buffered writes durable through the device
    /// WAL (a no-op when the device runs with the WAL disabled, the mode
    /// the paper expects of checkpoint-restart production applications).
    pub fn fsync(&self) -> Result<()> {
        match self.exec(KvCommand::Flush { ks: self.id })? {
            KvResponse::Flushed => Ok(()),
            other => Err(unexpected("Flushed", &other)),
        }
    }

    /// Invoke offloaded compaction; returns the background job handle.
    pub fn compact(&self) -> Result<Job> {
        self.start_job(KvCommand::Compact { ks: self.id })
    }

    /// Invoke offloaded compaction that also builds the given secondary
    /// indexes in the same device-side pass (single-step construction;
    /// the device falls back to separated passes when its DRAM is tight).
    pub fn compact_with_indexes(&self, specs: Vec<SecondaryIndexSpec>) -> Result<Job> {
        self.start_job(KvCommand::CompactAndIndex { ks: self.id, specs })
    }

    /// Request construction of a secondary index; returns the job handle.
    pub fn build_secondary_index(&self, spec: SecondaryIndexSpec) -> Result<Job> {
        self.start_job(KvCommand::BuildSecondaryIndex { ks: self.id, spec })
    }

    /// Send a job-starting command and wrap the device's job id.
    fn start_job(&self, cmd: KvCommand) -> Result<Job> {
        match self.exec(cmd)? {
            KvResponse::JobStarted { job } => Ok(Job {
                qp: self.qp.clone(),
                id: job,
                policy: self.policy,
                clock: Arc::clone(&self.clock),
                poll_streak: Arc::new(kvcsd_sim::sync::Shared::new(0)),
            }),
            other => Err(unexpected("JobStarted", &other)),
        }
    }

    /// Point query over the primary key.
    pub fn get(&self, key: &[u8]) -> Result<Vec<u8>> {
        match self.exec(KvCommand::Get {
            ks: self.id,
            key: key.to_vec(),
        })? {
            KvResponse::Value(v) => Ok(v),
            other => Err(unexpected("Value", &other)),
        }
    }

    /// Range query over the primary key.
    pub fn range(
        &self,
        lo: Bound,
        hi: Bound,
        limit: Option<u64>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match self.exec(KvCommand::Range {
            ks: self.id,
            lo,
            hi,
            limit,
        })? {
            KvResponse::Entries(es) => Ok(es),
            other => Err(unexpected("Entries", &other)),
        }
    }

    /// Point query over a secondary index; returns full matching records.
    pub fn sidx_get(&self, index: &str, key: SidxKey) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match self.exec(KvCommand::SidxGet {
            ks: self.id,
            index: index.to_string(),
            key,
        })? {
            KvResponse::Entries(es) => Ok(es),
            other => Err(unexpected("Entries", &other)),
        }
    }

    /// Range query over a secondary index; returns full matching records.
    pub fn sidx_range(
        &self,
        index: &str,
        lo: Bound,
        hi: Bound,
        limit: Option<u64>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match self.exec(KvCommand::SidxRange {
            ks: self.id,
            index: index.to_string(),
            lo,
            hi,
            limit,
        })? {
            KvResponse::Entries(es) => Ok(es),
            other => Err(unexpected("Entries", &other)),
        }
    }

    /// Keyspace metadata.
    pub fn stat(&self) -> Result<KeyspaceStat> {
        match self.exec(KvCommand::Stat { ks: self.id })? {
            KvResponse::Stat(s) => Ok(s),
            other => Err(unexpected("Stat", &other)),
        }
    }

    /// Delete the keyspace (consumes the session).
    pub fn delete(self) -> Result<()> {
        match self.exec(KvCommand::DeleteKeyspace { ks: self.id })? {
            KvResponse::Deleted => Ok(()),
            other => Err(unexpected("Deleted", &other)),
        }
    }
}

/// First repeat-poll backoff; doubles per consecutive non-terminal poll.
const POLL_BACKOFF_BASE_NS: u64 = 10_000;
/// Ceiling on the per-poll backoff charge.
const POLL_BACKOFF_CAP_NS: u64 = 1_000_000;

/// Handle to a device-side background job.
#[derive(Debug, Clone)]
pub struct Job {
    qp: QueuePair,
    id: JobId,
    policy: RetryPolicy,
    clock: Arc<VirtualClock>,
    /// Consecutive non-terminal polls; shared across clones so a spin
    /// loop cannot dodge the backoff by cloning the handle.
    poll_streak: Arc<kvcsd_sim::sync::Shared<u32>>,
}

impl Job {
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Ask the device for the job's state (one command round trip).
    ///
    /// Hot polling is charged: after the first non-terminal answer, each
    /// repeat poll pays a capped, doubling virtual-time backoff
    /// (`client_poll_backoff_ns` on the ledger, advanced on the client
    /// clock) so a spin loop yields background-job time instead of
    /// starving it. A terminal answer resets the streak.
    pub fn poll(&self) -> Result<JobState> {
        let streak = self.poll_streak.get();
        if streak > 0 {
            let backoff = doubling_backoff_ns(POLL_BACKOFF_BASE_NS, POLL_BACKOFF_CAP_NS, streak);
            self.qp.ledger().bump("client_poll_backoff_ns", backoff);
            self.clock.advance(backoff);
        }
        let polled = exec_with_retry(
            &self.qp,
            &self.policy,
            &self.clock,
            None,
            KvCommand::PollJob { job: self.id },
        );
        match polled {
            Ok(KvResponse::Job { state }) => {
                if state.is_terminal() {
                    self.poll_streak.set(0);
                } else {
                    self.poll_streak.update(|s| *s = s.saturating_add(1));
                }
                Ok(state)
            }
            Ok(other) => Err(unexpected("Job", &other)),
            Err(e) => {
                self.poll_streak.set(0);
                Err(e)
            }
        }
    }

    /// True once the device reports the job finished (successfully or not).
    pub fn is_terminal(&self) -> Result<bool> {
        Ok(self.poll()?.is_terminal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_core::{DeviceConfig, DeviceStack, KvCsdDevice};
    use kvcsd_flash::{FlashGeometry, ZnsConfig};
    use kvcsd_proto::{KvStatus, SecondaryKeyType};

    fn testbed() -> (KvCsd, Arc<KvCsdDevice>, Arc<IoLedger>) {
        let stack = DeviceStack::new(
            FlashGeometry {
                channels: 8,
                blocks_per_channel: 256,
                pages_per_block: 16,
                page_bytes: 4096,
            },
            ZnsConfig::default(),
            DeviceConfig {
                cluster_width: 8,
                soc_dram_bytes: 8 << 20,
                seed: 3,
                ..DeviceConfig::default()
            },
        );
        let (dev, ledger) = (stack.device(), stack.ledger());
        let client = KvCsd::connect(
            Arc::<KvCsdDevice>::clone(dev) as Arc<dyn DeviceHandler>,
            Arc::clone(ledger),
        );
        (client, Arc::clone(dev), Arc::clone(ledger))
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }
    fn value(i: u32) -> Vec<u8> {
        let mut v = vec![1u8; 32];
        v[28..].copy_from_slice(&(i as f32).to_le_bytes());
        v
    }

    #[test]
    fn full_application_flow() {
        let (client, dev, _) = testbed();
        let ks = client.create_keyspace("sim001").unwrap();

        let acc = ks.write_accelerator();
        for i in 0..3000u32 {
            acc.put(&key(i), &value(i)).unwrap();
        }
        assert_eq!(acc.flush().unwrap(), 3000);

        let job = ks.compact().unwrap();
        assert_eq!(job.poll().unwrap(), JobState::Pending);
        dev.run_pending_jobs();
        assert_eq!(job.poll().unwrap(), JobState::Done);

        assert_eq!(ks.get(&key(1234)).unwrap(), value(1234));
        assert!(ks.get(b"missing").unwrap_err().is_not_found());

        let es = ks
            .range(Bound::Included(key(10)), Bound::Excluded(key(13)), None)
            .unwrap();
        assert_eq!(es.len(), 3);

        let sidx = ks
            .build_secondary_index(SecondaryIndexSpec {
                name: "energy".into(),
                value_offset: 28,
                value_len: 4,
                key_type: SecondaryKeyType::F32,
            })
            .unwrap();
        dev.run_pending_jobs();
        assert!(sidx.is_terminal().unwrap());

        let hits = ks
            .sidx_range(
                "energy",
                Bound::Included(SidxKey::F32(2995.0).encode()),
                Bound::Unbounded,
                None,
            )
            .unwrap();
        assert_eq!(hits.len(), 5);

        let stat = ks.stat().unwrap();
        assert_eq!(stat.num_pairs, 3000);
        assert_eq!(stat.secondary_indexes, vec!["energy".to_string()]);

        ks.delete().unwrap();
        assert!(client.list_keyspaces().unwrap().is_empty());
    }

    #[test]
    fn accelerator_packs_many_pairs_per_message() {
        let (client, _dev, ledger) = testbed();
        let ks = client.create_keyspace("bulk").unwrap();
        let before = ledger.snapshot();
        let acc = ks.write_accelerator();
        for i in 0..5000u32 {
            acc.put(&[&[0u8][..], &key(i)[..]].concat(), &value(i))
                .unwrap();
        }
        acc.flush().unwrap();
        let d = ledger.snapshot().since(&before);
        // 5000 pairs * ~47B entries ~ 235 KB: a handful of messages, not
        // 5000.
        assert!(
            d.pcie_msgs < 20,
            "write accelerator sent {} messages",
            d.pcie_msgs
        );
    }

    #[test]
    fn single_puts_send_one_message_each() {
        let (client, _dev, ledger) = testbed();
        let ks = client.create_keyspace("single").unwrap();
        let before = ledger.snapshot();
        for i in 0..100u32 {
            ks.put(&key(i), &value(i)).unwrap();
        }
        let d = ledger.snapshot().since(&before);
        assert_eq!(d.pcie_msgs, 100);
    }

    #[test]
    fn oversized_pair_falls_back_to_single_put() {
        let (client, dev, _) = testbed();
        let ks = client.create_keyspace("big").unwrap();
        let acc = ks.write_accelerator();
        let huge = vec![7u8; 200 * 1024]; // bigger than one 128 KiB message
        acc.put(b"big-one", &huge).unwrap();
        acc.put(b"small", b"v").unwrap();
        assert_eq!(acc.flush().unwrap(), 2);
        ks.compact().unwrap();
        dev.run_pending_jobs();
        assert_eq!(ks.get(b"big-one").unwrap(), huge);
        assert_eq!(ks.get(b"small").unwrap(), b"v");
    }

    #[test]
    fn last_staged_duplicate_wins_after_compaction() {
        // Both writes of "dup" land in one staging buffer; the stable key
        // sort keeps them in staging order, so the device applies the
        // second as the overwrite.
        let (client, dev, _) = testbed();
        let ks = client.create_keyspace("dup").unwrap();
        let acc = ks.write_accelerator();
        acc.put(b"dup", b"first").unwrap();
        acc.put(b"other", b"x").unwrap();
        acc.put(b"dup", b"second").unwrap();
        assert_eq!(acc.flush().unwrap(), 3);
        ks.compact().unwrap();
        dev.run_pending_jobs();
        assert_eq!(ks.get(b"dup").unwrap(), b"second");
        assert_eq!(ks.get(b"other").unwrap(), b"x");
    }

    #[test]
    fn device_errors_surface_as_client_errors() {
        let (client, _dev, _) = testbed();
        let ks = client.create_keyspace("dup").unwrap();
        assert!(matches!(
            client.create_keyspace("dup"),
            Err(ClientError::Device(KvStatus::KeyspaceExists))
        ));
        // Query before compaction.
        ks.put(b"k", b"v").unwrap();
        assert!(matches!(
            ks.get(b"k"),
            Err(ClientError::Device(KvStatus::BadKeyspaceState { .. }))
        ));
    }

    #[test]
    fn open_keyspace_reports_state() {
        let (client, dev, _) = testbed();
        let ks = client.create_keyspace("s").unwrap();
        ks.put(b"a", b"1").unwrap();
        let (_, state) = client.open_keyspace("s").unwrap();
        assert_eq!(state, KeyspaceState::Writable);
        ks.compact().unwrap();
        dev.run_pending_jobs();
        let (ks2, state) = client.open_keyspace("s").unwrap();
        assert_eq!(state, KeyspaceState::Compacted);
        assert_eq!(ks2.get(b"a").unwrap(), b"1");
    }

    /// Wraps a real device but fails the first `failures` commands with a
    /// transient error (deterministic flaky transport).
    struct Flaky {
        inner: Arc<KvCsdDevice>,
        remaining: kvcsd_sim::sync::Shared<u32>,
        status: KvStatus,
    }

    impl DeviceHandler for Flaky {
        fn handle(&self, cmd: KvCommand) -> KvResponse {
            let failing = self.remaining.update(|left| {
                let failing = *left > 0;
                *left = left.saturating_sub(1);
                failing
            });
            if failing {
                return KvResponse::Err(self.status.clone());
            }
            self.inner.handle(cmd)
        }
    }

    fn flaky_testbed(failures: u32, status: KvStatus) -> (KvCsd, Arc<IoLedger>) {
        let (_, dev, ledger) = testbed();
        let flaky = Arc::new(Flaky {
            inner: dev,
            remaining: kvcsd_sim::sync::Shared::new(failures),
            status,
        });
        let client = KvCsd::connect(flaky as Arc<dyn DeviceHandler>, Arc::clone(&ledger));
        (client, ledger)
    }

    fn transient() -> KvStatus {
        KvStatus::TransientDeviceError("injected".into())
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let (client, ledger) = flaky_testbed(3, transient());
        let ks = client.create_keyspace("flaky").unwrap();
        assert_eq!(ledger.custom("client_retries"), 3);
        // Backoff doubles from 100us: 100k + 200k + 400k.
        assert_eq!(ledger.custom("client_retry_backoff_ns"), 700_000);
        // Subsequent healthy traffic spends no more retries.
        ks.put(b"k", b"v").unwrap();
        assert_eq!(ledger.custom("client_retries"), 3);
    }

    #[test]
    fn retries_exhausted_is_typed_and_fatal() {
        let (client, ledger) = flaky_testbed(100, transient());
        let err = client.create_keyspace("never").unwrap_err();
        assert_eq!(
            err,
            ClientError::RetriesExhausted {
                attempts: 5,
                last: transient()
            }
        );
        assert!(err.is_fatal());
        // Default budget: 4 retries after the initial attempt.
        assert_eq!(ledger.custom("client_retries"), 4);
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let (client, ledger) = flaky_testbed(100, KvStatus::MediaError("die 3".into()));
        let err = client.create_keyspace("dead").unwrap_err();
        assert_eq!(
            err,
            ClientError::Device(KvStatus::MediaError("die 3".into()))
        );
        assert_eq!(ledger.custom("client_retries"), 0);
    }

    #[test]
    fn retry_policy_none_fails_fast_with_device_error() {
        let (client, ledger) = flaky_testbed(1, transient());
        let client = client.with_retry_policy(RetryPolicy::none());
        let err = client.create_keyspace("fast").unwrap_err();
        assert_eq!(err, ClientError::Device(transient()));
        assert!(err.is_retryable()); // caller may resend by hand
        assert_eq!(ledger.custom("client_retries"), 0);
        // The device is healthy now; a plain resend works.
        client.create_keyspace("fast").unwrap();
    }

    #[test]
    fn device_full_fails_fast_without_burning_backoff() {
        // DeviceFull is degraded mode, not a transient error: the retry
        // loop must surface it immediately instead of spending its whole
        // backoff budget on a condition that cannot clear by resending.
        let (client, ledger) = flaky_testbed(100, KvStatus::DeviceFull);
        let err = client.create_keyspace("full").unwrap_err();
        assert_eq!(err, ClientError::Device(KvStatus::DeviceFull));
        assert!(err.is_degraded());
        assert!(!err.is_fatal());
        assert_eq!(ledger.custom("client_retries"), 0);
        assert_eq!(ledger.custom("client_retry_backoff_ns"), 0);
    }

    #[test]
    fn failover_redirect_resends_immediately_without_backoff() {
        // A dead primary is not an overload signal: the resend goes to the
        // promoted replica, so the loop must not back off against it.
        let (client, ledger) = flaky_testbed(2, KvStatus::FailoverInProgress { shard: 1 });
        client.create_keyspace("fo").unwrap();
        assert_eq!(ledger.custom("client_failover_redirects"), 2);
        assert_eq!(ledger.custom("client_retries"), 0);
        assert_eq!(ledger.custom("client_retry_backoff_ns"), 0);
    }

    #[test]
    fn endless_failover_still_exhausts_the_retry_budget() {
        let (client, ledger) = flaky_testbed(100, KvStatus::FailoverInProgress { shard: 1 });
        let err = client.create_keyspace("fo").unwrap_err();
        assert_eq!(
            err,
            ClientError::RetriesExhausted {
                attempts: 5,
                last: KvStatus::FailoverInProgress { shard: 1 }
            }
        );
        assert_eq!(ledger.custom("client_failover_redirects"), 4);
        assert_eq!(ledger.custom("client_retry_backoff_ns"), 0);
    }

    #[test]
    fn epoch_fence_resends_immediately_without_backoff() {
        // A fenced ack means the command hit a deposed primary; the
        // resend goes to the current-epoch primary, so the loop must not
        // back off against it (same shape as a failover redirect, its own
        // counter so fence storms are visible).
        let (client, ledger) = flaky_testbed(2, KvStatus::EpochFenced { shard: 1 });
        client.create_keyspace("fence").unwrap();
        assert_eq!(ledger.custom("client_fence_redirects"), 2);
        assert_eq!(ledger.custom("client_retries"), 0);
        assert_eq!(ledger.custom("client_retry_backoff_ns"), 0);
    }

    #[test]
    fn endless_fencing_still_exhausts_the_retry_budget() {
        let (client, ledger) = flaky_testbed(100, KvStatus::EpochFenced { shard: 1 });
        let err = client.create_keyspace("fence").unwrap_err();
        assert_eq!(
            err,
            ClientError::RetriesExhausted {
                attempts: 5,
                last: KvStatus::EpochFenced { shard: 1 }
            }
        );
        assert_eq!(ledger.custom("client_fence_redirects"), 4);
        assert_eq!(ledger.custom("client_retry_backoff_ns"), 0);
    }

    #[test]
    fn shard_unavailable_is_degraded_and_fails_fast() {
        let (client, ledger) = flaky_testbed(100, KvStatus::ShardUnavailable { shard: 2 });
        let err = client.create_keyspace("down").unwrap_err();
        assert_eq!(
            err,
            ClientError::Device(KvStatus::ShardUnavailable { shard: 2 })
        );
        assert!(err.is_degraded());
        assert!(!err.is_fatal());
        assert_eq!(ledger.custom("client_retries"), 0);
    }

    #[test]
    fn deadline_aware_retry_never_backs_off_past_the_budget() {
        let (_, dev, ledger) = testbed();
        let flaky = Arc::new(Flaky {
            inner: dev,
            remaining: kvcsd_sim::sync::Shared::new(100),
            status: transient(),
        });
        let clock = Arc::new(kvcsd_sim::VirtualClock::new());
        let client = KvCsd::connect(flaky as Arc<dyn DeviceHandler>, Arc::clone(&ledger))
            .with_clock(Arc::clone(&clock))
            .with_retry_policy(RetryPolicy {
                max_retries: 10,
                base_backoff_ns: 100_000,
                max_backoff_ns: 10_000_000,
            })
            .with_deadline(350_000);
        let err = client.create_keyspace("never").unwrap_err();
        // Backoffs 100k and 200k fit the 350k budget; the third (400k)
        // would land past it, so the loop fails fast instead of waiting.
        assert_eq!(err, ClientError::Device(KvStatus::DeadlineExceeded));
        assert_eq!(ledger.custom("client_retries"), 2);
        assert_eq!(clock.now_ns(), 300_000);
    }

    #[test]
    fn deadline_sessions_are_enforced_by_the_device() {
        let (_, dev, ledger) = testbed();
        let clock = Arc::clone(dev.clock());
        let client = KvCsd::connect(
            Arc::<KvCsdDevice>::clone(&dev) as Arc<dyn DeviceHandler>,
            Arc::clone(&ledger),
        )
        .with_clock(Arc::clone(&clock));
        let ks = client.create_keyspace("dl").unwrap();
        clock.advance(2_000);
        // Expired deadline: the device rejects before doing any work.
        let late = ks.with_deadline(1_000);
        assert_eq!(
            late.put(b"k", b"v").unwrap_err(),
            ClientError::Device(KvStatus::DeadlineExceeded)
        );
        // A live deadline passes through.
        let live = ks.with_deadline(clock.now_ns() + 1_000_000_000);
        live.put(b"k", b"v").unwrap();
    }

    #[test]
    fn keyspace_sessions_inherit_the_retry_policy() {
        let (client, ledger) = flaky_testbed(0, transient());
        let client = client.with_retry_policy(RetryPolicy {
            max_retries: 2,
            base_backoff_ns: 1_000,
            max_backoff_ns: 1_500,
        });
        let ks = client.create_keyspace("inherit").unwrap();
        // Replace the queue pair's device? Not possible; instead verify the
        // policy arithmetic surface: backoff caps at max_backoff_ns.
        assert_eq!(client.policy.backoff_ns(1), 1_000);
        assert_eq!(client.policy.backoff_ns(2), 1_500);
        assert_eq!(ks.policy, client.policy);
        assert_eq!(ledger.custom("client_retries"), 0);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ns(1), 100_000);
        assert_eq!(p.backoff_ns(2), 200_000);
        assert_eq!(p.backoff_ns(1_000), p.max_backoff_ns);
    }

    #[test]
    fn query_moves_only_results_over_the_bus() {
        let (client, dev, ledger) = testbed();
        let ks = client.create_keyspace("io").unwrap();
        let acc = ks.write_accelerator();
        for i in 0..2000u32 {
            acc.put(&key(i), &value(i)).unwrap();
        }
        acc.flush().unwrap();
        ks.compact().unwrap();
        dev.run_pending_jobs();

        let before = ledger.snapshot();
        let es = ks
            .range(Bound::Included(key(500)), Bound::Excluded(key(510)), None)
            .unwrap();
        assert_eq!(es.len(), 10);
        let d = ledger.snapshot().since(&before);
        let result_bytes: u64 = es.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
        // d2h bytes = results + per-entry framing + completion header.
        assert!(d.pcie_d2h_bytes < result_bytes + 10 * 8 + 64);
        // The device read far more from flash than it shipped to the host.
        assert!(d.storage_read_bytes() > d.pcie_d2h_bytes);
    }

    #[test]
    fn hot_job_polling_is_charged_a_capped_backoff() {
        let (_, dev, ledger) = testbed();
        let clock = Arc::clone(dev.clock());
        let client = KvCsd::connect(
            Arc::<KvCsdDevice>::clone(&dev) as Arc<dyn DeviceHandler>,
            Arc::clone(&ledger),
        )
        .with_clock(Arc::clone(&clock));
        let ks = client.create_keyspace("spin").unwrap();
        let acc = ks.write_accelerator();
        for i in 0..100u32 {
            acc.put(&key(i), &value(i)).unwrap();
        }
        acc.flush().unwrap();
        let job = ks.compact().unwrap();

        let t0 = clock.now_ns();
        assert_eq!(job.poll().unwrap(), JobState::Pending);
        assert_eq!(clock.now_ns(), t0, "the first poll is free");
        // A spin loop now yields virtual time: 10us doubling to the 1ms
        // cap (10k + 20k + 40k + ... + 640k + 1M + 1M + ...).
        for _ in 0..10 {
            assert_eq!(job.poll().unwrap(), JobState::Pending);
        }
        let spun = clock.now_ns() - t0;
        assert!(spun > 0, "repeat polls must charge the clock");
        let before = clock.now_ns();
        job.poll().unwrap();
        assert_eq!(
            clock.now_ns() - before,
            1_000_000,
            "the per-poll charge is capped at 1ms"
        );
        assert_eq!(ledger.custom("client_poll_backoff_ns"), clock.now_ns() - t0);

        dev.run_pending_jobs();
        assert_eq!(job.poll().unwrap(), JobState::Done);
        // Terminal answers reset the streak: the next poll is free.
        let before = clock.now_ns();
        assert_eq!(job.poll().unwrap(), JobState::Done);
        assert_eq!(clock.now_ns(), before);
    }
}
