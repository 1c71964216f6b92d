//! The in-flight window: per-op deadline and retry tracking over the
//! pipelined `submit`/`poll_completions` transport path.
//!
//! [`InflightWindow`] is the one place in the client that drives a
//! [`QueuePair`] directly. Every other client path — single-op calls and
//! the write accelerator — goes through it, so deadline propagation,
//! retry accounting and completion matching have exactly one
//! implementation.
//!
//! An operation keeps its [`OpId`] across retries while each resend gets
//! a fresh transport [`CmdId`]; completions are matched out of order by
//! id and either finish the op or feed the retry state machine, whose
//! semantics (backoff doubling, redirect fast paths, deadline fail-fast)
//! are the same ledger counters and clock charges for every op,
//! decoupled from submission order.
//!
//! Internally a pump lock serializes transport access: the submit→track
//! and poll→record steps must be atomic with respect to each other, or a
//! concurrent waiter could observe an empty completion queue after its
//! completion was drained but before it was recorded, and spin. All
//! window state lives behind `kvcsd_sim::sync` shims, so lockdep, the
//! race detector and kvcsd-mc see every acquisition (the
//! `window-matching` mc harness sweeps this file's interleavings
//! bounded-exhaustively).

use std::collections::BTreeMap;
use std::sync::Arc;

use kvcsd_proto::{CmdId, KvCommand, KvResponse, KvStatus, QueuePair};
use kvcsd_sim::sync::Mutex;
use kvcsd_sim::VirtualClock;

use crate::api::RetryPolicy;
use crate::error::ClientError;
use crate::Result;

/// Identifier for an operation tracked by an [`InflightWindow`] — stable
/// across retries, unlike the per-submission transport [`CmdId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(u64);

/// Everything the retry state machine needs to re-drive one op.
struct OpCtx {
    op: OpId,
    /// The wire command, already deadline-wrapped; resends clone it.
    cmd: KvCommand,
    deadline_ns: Option<u64>,
    /// Commands sent so far (first send included).
    attempts: u32,
}

#[derive(Default)]
struct WindowState {
    next_op: u64,
    /// Live submissions, keyed by the transport id of the *latest* send.
    inflight: BTreeMap<CmdId, OpCtx>,
    /// Finished ops waiting for their `wait()` call.
    done: BTreeMap<u64, Result<KvResponse>>,
}

/// Tracks a set of in-flight operations over one queue pair, matching
/// out-of-order completions and applying per-op deadlines and retries.
pub struct InflightWindow {
    qp: QueuePair,
    policy: RetryPolicy,
    /// Charged by retry backoff; read by the deadline fail-fast.
    clock: Arc<VirtualClock>,
    /// Serializes transport access (see module docs).
    pump_lock: Mutex<()>,
    state: Mutex<WindowState>,
}

impl std::fmt::Debug for InflightWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InflightWindow").finish_non_exhaustive()
    }
}

impl InflightWindow {
    /// Open a window over `qp`. The queue pair's completion queue must be
    /// private to this window (a fresh [`QueuePair`] clone guarantees
    /// that), or completions could be drained behind its back.
    pub fn new(qp: QueuePair, policy: RetryPolicy, clock: Arc<VirtualClock>) -> Self {
        Self {
            qp,
            policy,
            clock,
            pump_lock: Mutex::new(()),
            state: Mutex::new(WindowState::default()),
        }
    }

    /// Submit one operation; its completion is claimed with
    /// [`wait`](InflightWindow::wait). A `deadline_ns` wraps the command
    /// in [`KvCommand::WithDeadline`] and arms the deadline-aware retry
    /// fail-fast.
    pub fn submit(&self, deadline_ns: Option<u64>, cmd: KvCommand) -> OpId {
        let cmd = match deadline_ns {
            Some(deadline_ns) => KvCommand::WithDeadline {
                deadline_ns,
                cmd: Box::new(cmd),
            },
            None => cmd,
        };
        let op = {
            let mut st = self.state.lock();
            st.next_op += 1;
            OpId(st.next_op)
        };
        let _pump = self.pump_lock.lock();
        // The pump lock is held across the transport submit by design:
        // the id must be tracked before any concurrent poll can drain
        // its completion. (The checker's recursion filter skips the
        // same-named `submit` call, so no allow tag is needed here.)
        let id = self.qp.submit(cmd.clone());
        self.state.lock().inflight.insert(
            id,
            OpCtx {
                op,
                cmd,
                deadline_ns,
                attempts: 0,
            },
        );
        op
    }

    /// Block (in virtual time) until `op` finishes, pumping completions
    /// and retries for *every* op in the window along the way.
    pub fn wait(&self, op: OpId) -> Result<KvResponse> {
        loop {
            if let Some(r) = self.take_done(op) {
                return r;
            }
            let _pump = self.pump_lock.lock();
            if let Some(r) = self.take_done(op) {
                return r;
            }
            // kvcsd-check: allow(guard-across-wait) -- the pump lock is the submit/poll critical section by design: a drained completion must be recorded before another waiter sees an empty queue
            self.pump_locked();
        }
    }

    /// Poll the transport once and process whatever completed: finish
    /// ops, apply retry/backoff/redirect decisions, resubmit. Never
    /// blocks on a specific op — callers keeping a window full (the
    /// write accelerator) use this between submissions.
    pub fn pump(&self) {
        let _pump = self.pump_lock.lock();
        // kvcsd-check: allow(guard-across-wait) -- the pump lock is the submit/poll critical section by design: completions are recorded under it so waiters never observe a drained-but-unrecorded op
        self.pump_locked();
    }

    /// Submit and wait: the single-op path behind `exec_with_retry`.
    pub fn call(&self, deadline_ns: Option<u64>, cmd: KvCommand) -> Result<KvResponse> {
        let op = self.submit(deadline_ns, cmd);
        self.wait(op)
    }

    /// The shared I/O ledger of the underlying queue pair.
    pub fn ledger(&self) -> &Arc<kvcsd_sim::IoLedger> {
        self.qp.ledger()
    }

    /// Drain the per-completion latencies (virtual ns, submission to
    /// completion) recorded by the underlying queue pair. Zeros when no
    /// pipeline timing model is attached.
    pub fn completion_latencies(&self) -> Vec<u64> {
        self.qp.take_completion_latencies()
    }

    /// Ops submitted but neither finished nor claimed yet.
    pub fn inflight_len(&self) -> usize {
        let st = self.state.lock();
        st.inflight.len() + st.done.len()
    }

    fn take_done(&self, op: OpId) -> Option<Result<KvResponse>> {
        self.state.lock().done.remove(&op.0)
    }

    fn finish(&self, op: OpId, result: Result<KvResponse>) {
        self.state.lock().done.insert(op.0, result);
    }

    fn resend(&self, ctx: OpCtx) {
        let id = self.qp.submit(ctx.cmd.clone());
        self.state.lock().inflight.insert(id, ctx);
    }

    /// Caller holds the pump lock. One poll, then the retry state
    /// machine per completion.
    fn pump_locked(&self) {
        let completions = self.qp.poll_completions();
        for (id, resp) in completions {
            let Some(mut ctx) = self.state.lock().inflight.remove(&id) else {
                // Completion for an op this window no longer tracks
                // (impossible by construction; dropping it is safe).
                continue;
            };
            ctx.attempts += 1;
            match resp.into_result() {
                Ok(resp) => self.finish(ctx.op, Ok(resp)),
                Err(status) if status.is_retryable() => {
                    let retry = ctx.attempts - 1; // retries spent so far
                    if retry >= self.policy.max_retries {
                        let err = if self.policy.max_retries == 0 {
                            ClientError::Device(status)
                        } else {
                            ClientError::RetriesExhausted {
                                attempts: ctx.attempts,
                                last: status,
                            }
                        };
                        self.finish(ctx.op, Err(err));
                        continue;
                    }
                    // A failover redirect is not an overload signal: the
                    // dead primary is gone and the resend reaches the
                    // promoted replica, so backing off only adds latency.
                    if matches!(status, KvStatus::FailoverInProgress { .. }) {
                        self.qp.ledger().bump("client_failover_redirects", 1);
                        self.resend(ctx);
                        continue;
                    }
                    // An epoch fence is the same shape: the resend routes
                    // to the current-epoch primary and can succeed now.
                    if matches!(status, KvStatus::EpochFenced { .. }) {
                        self.qp.ledger().bump("client_fence_redirects", 1);
                        self.resend(ctx);
                        continue;
                    }
                    let backoff = self.policy.backoff_ns(retry + 1);
                    if let Some(d) = ctx.deadline_ns {
                        if self.clock.now_ns().saturating_add(backoff) >= d {
                            self.finish(
                                ctx.op,
                                Err(ClientError::Device(KvStatus::DeadlineExceeded)),
                            );
                            continue;
                        }
                    }
                    self.qp.ledger().bump("client_retries", 1);
                    self.qp.ledger().bump("client_retry_backoff_ns", backoff);
                    self.clock.advance(backoff);
                    self.resend(ctx);
                }
                Err(status) => self.finish(ctx.op, Err(ClientError::Device(status))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_proto::DeviceHandler;
    use kvcsd_sim::sync::Shared;
    use kvcsd_sim::IoLedger;

    /// Echoes GETs; fails the first `failures` commands transiently.
    struct Echo {
        remaining: Shared<u32>,
    }

    impl DeviceHandler for Echo {
        fn handle(&self, cmd: KvCommand) -> KvResponse {
            let failing = self.remaining.update(|left| {
                let failing = *left > 0;
                *left = left.saturating_sub(1);
                failing
            });
            if failing {
                return KvResponse::Err(KvStatus::TransientDeviceError("injected".into()));
            }
            match cmd {
                KvCommand::Get { key, .. } => KvResponse::Value(key),
                KvCommand::Put { .. } => KvResponse::PutOk,
                _ => KvResponse::Err(KvStatus::Internal("unsupported".into())),
            }
        }
    }

    fn window(failures: u32) -> (InflightWindow, Arc<IoLedger>) {
        let ledger = Arc::new(IoLedger::new(16, 4096));
        let qp = QueuePair::new(
            Arc::new(Echo {
                remaining: Shared::new(failures),
            }),
            Arc::clone(&ledger),
        );
        (
            InflightWindow::new(qp, RetryPolicy::default(), Arc::new(VirtualClock::new())),
            ledger,
        )
    }

    fn get(key: Vec<u8>) -> KvCommand {
        KvCommand::Get { ks: 0, key }
    }

    #[test]
    fn many_ops_resolve_out_of_submission_order() {
        let (w, _) = window(0);
        let ops: Vec<OpId> = (0u8..16).map(|i| w.submit(None, get(vec![i]))).collect();
        // Claim in reverse order: matching is by op id, not queue order.
        for (ix, op) in ops.into_iter().enumerate().rev() {
            assert_eq!(w.wait(op).expect("echo"), KvResponse::Value(vec![ix as u8]));
        }
        assert_eq!(w.inflight_len(), 0);
    }

    #[test]
    fn retries_charge_backoff_counters() {
        let (w, ledger) = window(3);
        let resp = w.call(None, get(vec![7])).expect("retried to success");
        assert_eq!(resp, KvResponse::Value(vec![7]));
        assert_eq!(ledger.custom("client_retries"), 3);
        assert_eq!(ledger.custom("client_retry_backoff_ns"), 700_000);
    }

    #[test]
    fn a_retrying_op_does_not_stall_its_neighbors() {
        // Op A hits 2 transient errors; op B is submitted after A and
        // still completes while A is mid-retry.
        let (w, _) = window(2);
        let a = w.submit(None, get(vec![1]));
        let b = w.submit(None, get(vec![2]));
        assert_eq!(w.wait(b).expect("b"), KvResponse::Value(vec![2]));
        assert_eq!(w.wait(a).expect("a"), KvResponse::Value(vec![1]));
    }

    #[test]
    fn exhaustion_is_per_op_and_typed() {
        let (w, ledger) = window(u32::MAX);
        let err = w.call(None, get(vec![1])).expect_err("must exhaust");
        assert_eq!(
            err,
            ClientError::RetriesExhausted {
                attempts: 5,
                last: KvStatus::TransientDeviceError("injected".into()),
            }
        );
        assert_eq!(ledger.custom("client_retries"), 4);
    }
}
