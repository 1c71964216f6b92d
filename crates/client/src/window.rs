//! The in-flight window: the client's one completion queue, with per-op
//! deadline and retry tracking over the pipelined transport.
//!
//! [`InflightWindow`] is the one place in the client that drives a
//! [`QueuePair`] directly. Every other client path — single-op calls and
//! the write accelerator — goes through it, so deadline propagation,
//! retry accounting and completion matching have exactly one
//! implementation.
//!
//! [`QueuePair::submit`] hands back each command's completion with the
//! virtual time it becomes visible. The window holds those completions
//! until they are due, bounds the commands in flight to the queue pair's
//! depth, and handles due completions in `(completion time, send order)`
//! order: each one finishes its op or feeds the retry state machine,
//! whose semantics (backoff doubling, redirect fast paths, deadline
//! fail-fast) are the same ledger counters and clock charges for every
//! op, decoupled from submission order. An operation keeps its [`OpId`]
//! across retries.
//!
//! All window state sits behind one `kvcsd_sim::sync` mutex, and an op is
//! always in exactly one of three places there — a pending completion,
//! the resend slot, or the finished map — so a waiter that takes the lock
//! always finds its op or work that leads to it, and never spins. The
//! lock is dropped only to move the clock (a depth stall, a backoff, the
//! wait for the earliest completion). lockdep, the race detector and
//! kvcsd-mc see every acquisition (the `window-matching` and
//! `window-retry` mc harnesses sweep this file's interleavings
//! bounded-exhaustively).

use std::collections::BTreeMap;
use std::sync::Arc;

use kvcsd_proto::{Completion, KvCommand, KvResponse, KvStatus, QueuePair};
use kvcsd_sim::sync::{waits_under, Mutex};
use kvcsd_sim::VirtualClock;

use crate::api::RetryPolicy;
use crate::error::ClientError;
use crate::Result;

/// Identifier for an operation tracked by an [`InflightWindow`], stable
/// across retries.
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
    /// Sends so far; a send's number orders completions that fall due
    /// at the same virtual time.
    sends: u64,
    /// Completions not handled yet, keyed by (completion time, send).
    pending: BTreeMap<(u64, u64), (OpCtx, Completion)>,
    /// The drain in progress: it handles the completions of the first
    /// `.1` sends that were due at `.0`, then ends.
    drain: Option<(u64, u64)>,
    /// An op between a retry decision and its resend, which goes out
    /// once the client clock reaches `.1`.
    resend: Option<(OpCtx, u64)>,
    /// Finished ops waiting for their `wait()` call.
    done: BTreeMap<OpId, Result<KvResponse>>,
    /// Latencies of every handled completion, for benches.
    lat_log: Vec<u64>,
}

impl WindowState {
    /// The earliest completion still in flight at `now`, if `depth` or
    /// more are: a new send must wait for it.
    fn depth_stall(&self, now: u64, depth: usize) -> Option<u64> {
        let mut inflight = self.pending.range((now + 1, 0)..);
        let (&(earliest, _), _) = inflight.next()?;
        (1 + inflight.count() >= depth).then_some(earliest)
    }
}

/// One unit of window progress, decided under the lock.
enum Step<'a> {
    /// The claimed op finished.
    Claimed(Result<KvResponse>),
    /// State moved; decide again.
    Progress,
    /// Move this clock to the time, then decide again.
    Advance(&'a VirtualClock, u64),
}

/// Tracks a set of in-flight operations over one queue pair, matching
/// out-of-order completions and applying per-op deadlines and retries.
pub struct InflightWindow {
    qp: QueuePair,
    policy: RetryPolicy,
    /// Charged by retry backoff; read by the deadline fail-fast.
    clock: Arc<VirtualClock>,
    /// The queue pair's pipeline clock (the client clock when untimed)
    /// and depth: completions fall due on it, and stalls advance it.
    pipe_clock: Arc<VirtualClock>,
    depth: usize,
    state: Mutex<WindowState>,
}

impl std::fmt::Debug for InflightWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InflightWindow").finish_non_exhaustive()
    }
}

impl InflightWindow {
    /// Open a window over `qp`.
    pub fn new(qp: QueuePair, policy: RetryPolicy, clock: Arc<VirtualClock>) -> Self {
        let (pipe_clock, depth) = match qp.timing() {
            Some((pipe_clock, depth)) => (Arc::clone(pipe_clock), depth),
            None => (Arc::clone(&clock), usize::MAX),
        };
        Self {
            qp,
            policy,
            clock,
            pipe_clock,
            depth,
            state: Mutex::new(WindowState::default()),
        }
    }

    /// Submit one operation; its completion is claimed with
    /// [`wait`](InflightWindow::wait). A `deadline_ns` wraps the command
    /// in [`KvCommand::WithDeadline`] and arms the deadline-aware retry
    /// fail-fast. A full window first stalls the pipeline clock to its
    /// earliest in-flight completion.
    pub fn submit(&self, deadline_ns: Option<u64>, cmd: KvCommand) -> OpId {
        let cmd = match deadline_ns {
            Some(deadline_ns) => KvCommand::WithDeadline {
                deadline_ns,
                cmd: Box::new(cmd),
            },
            None => cmd,
        };
        loop {
            let stall_to = {
                let mut st = self.state.lock();
                match st.depth_stall(self.pipe_clock.now_ns(), self.depth) {
                    Some(t) => t,
                    None => {
                        st.next_op += 1;
                        let op = OpId(st.next_op);
                        let ctx = OpCtx {
                            op,
                            cmd,
                            deadline_ns,
                            attempts: 0,
                        };
                        self.send(&mut st, ctx);
                        return op;
                    }
                }
            };
            self.pipe_clock.advance_to(stall_to);
        }
    }

    /// Block (in virtual time) until `op` finishes, handling completions
    /// and retries for *every* op in the window along the way.
    pub fn wait(&self, op: OpId) -> Result<KvResponse> {
        loop {
            let step = self.step(&mut self.state.lock(), op);
            match step {
                Step::Claimed(r) => return r,
                Step::Progress => {}
                Step::Advance(clock, t) => clock.advance_to(t),
            }
        }
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
    /// completion) recorded so far, in the order the completions were
    /// handled. Zeros when no pipeline timing model is attached.
    pub fn completion_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut self.state.lock().lat_log)
    }

    /// Ops submitted and not claimed yet.
    pub fn inflight_len(&self) -> usize {
        let st = self.state.lock();
        st.pending.len() + usize::from(st.resend.is_some()) + st.done.len()
    }

    /// One unit of progress: resend the op in the resend slot, handle
    /// the next completion of the drain in progress, claim `op` once it
    /// finished, or start the next drain, first waiting for the earliest
    /// completion when none is due.
    fn step(&self, st: &mut WindowState, op: OpId) -> Step<'_> {
        if let Some(&(_, at)) = st.resend.as_ref() {
            if self.clock.now_ns() < at {
                return Step::Advance(&self.clock, at);
            }
            if let Some(t) = st.depth_stall(self.pipe_clock.now_ns(), self.depth) {
                return Step::Advance(&self.pipe_clock, t);
            }
            if let Some((ctx, _)) = st.resend.take() {
                self.send(st, ctx);
            }
            return Step::Progress;
        }
        if let Some((due_ns, sends)) = st.drain {
            let next = st.pending.first_entry();
            match next.filter(|e| e.key().0 <= due_ns && e.key().1 <= sends) {
                Some(entry) => {
                    let (ctx, c) = entry.remove();
                    st.lat_log.push(c.lat_ns);
                    self.complete(st, ctx, c.resp);
                }
                None => st.drain = None,
            }
            return Step::Progress;
        }
        if let Some(r) = st.done.remove(&op) {
            return Step::Claimed(r);
        }
        let Some(&(first_ns, _)) = st.pending.keys().next() else {
            return Step::Claimed(Err(ClientError::UnexpectedResponse(format!(
                "{op:?} is not in flight on this window"
            ))));
        };
        let now = self.pipe_clock.now_ns();
        if first_ns > now {
            return Step::Advance(&self.pipe_clock, first_ns);
        }
        st.drain = Some((now, st.sends));
        Step::Progress
    }

    /// Send `ctx`'s command and hold its completion until it falls due.
    fn send(&self, st: &mut WindowState, ctx: OpCtx) {
        let c = waits_under(
            "the window lock spans the device command, so threads sharing a window \
             submit one at a time; moving the submit out of it is open (DESIGN.md §13)",
            || self.qp.submit(ctx.cmd.clone()),
        );
        st.sends += 1;
        st.pending.insert((c.done_ns, st.sends), (ctx, c));
    }

    /// The retry state machine for one completion of `ctx`'s op: finish
    /// the op, or put it in the resend slot.
    fn complete(&self, st: &mut WindowState, mut ctx: OpCtx, resp: KvResponse) {
        ctx.attempts += 1;
        let result = match resp.into_result() {
            Ok(resp) => Ok(resp),
            Err(status) if status.is_retryable() => {
                // A failover redirect is not an overload signal: the dead
                // primary is gone and the resend reaches the promoted
                // replica, so backing off only adds latency. An epoch
                // fence is the same shape: the resend routes to the
                // current-epoch primary and can succeed now.
                let redirect = match status {
                    KvStatus::FailoverInProgress { .. } => Some("client_failover_redirects"),
                    KvStatus::EpochFenced { .. } => Some("client_fence_redirects"),
                    _ => None,
                };
                let retry = ctx.attempts - 1; // retries spent so far
                let backoff = self.policy.backoff_ns(retry + 1);
                let at = self.clock.now_ns().saturating_add(backoff);
                if retry >= self.policy.max_retries {
                    Err(if self.policy.max_retries == 0 {
                        ClientError::Device(status)
                    } else {
                        ClientError::RetriesExhausted {
                            attempts: ctx.attempts,
                            last: status,
                        }
                    })
                } else if let Some(counter) = redirect {
                    self.qp.ledger().bump(counter, 1);
                    st.resend = Some((ctx, 0));
                    return;
                } else if ctx.deadline_ns.is_some_and(|d| at >= d) {
                    Err(ClientError::Device(KvStatus::DeadlineExceeded))
                } else {
                    self.qp.ledger().bump("client_retries", 1);
                    self.qp.ledger().bump("client_retry_backoff_ns", backoff);
                    st.resend = Some((ctx, at));
                    return;
                }
            }
            Err(status) => Err(ClientError::Device(status)),
        };
        st.done.insert(ctx.op, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_proto::DeviceHandler;
    use kvcsd_sim::sync::Shared;
    use kvcsd_sim::{HardwareSpec, IoLedger};

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

    fn echo_qp(failures: u32) -> (QueuePair, Arc<IoLedger>) {
        let ledger = Arc::new(IoLedger::new(16, 4096));
        let qp = QueuePair::new(
            Arc::new(Echo {
                remaining: Shared::new(failures),
            }),
            Arc::clone(&ledger),
        );
        (qp, ledger)
    }

    fn window(failures: u32) -> (InflightWindow, Arc<IoLedger>) {
        let (qp, ledger) = echo_qp(failures);
        (
            InflightWindow::new(qp, RetryPolicy::default(), Arc::new(VirtualClock::new())),
            ledger,
        )
    }

    /// A window over a pipelined echo queue pair of `depth`, 4 lanes,
    /// whose pipeline and client clocks are the same clock.
    fn timed(depth: usize, failures: u32) -> (InflightWindow, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        let (qp, _) = echo_qp(failures);
        let qp = qp.with_pipeline(Arc::clone(&clock), depth, 4, None);
        let w = InflightWindow::new(qp, RetryPolicy::default(), Arc::clone(&clock));
        (w, clock)
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

    #[test]
    fn waiting_on_a_claimed_op_is_an_error_not_a_hang() {
        let (w, _) = window(0);
        let op = w.submit(None, get(vec![1]));
        assert_eq!(w.wait(op).expect("echo"), KvResponse::Value(vec![1]));
        assert!(matches!(
            w.wait(op),
            Err(ClientError::UnexpectedResponse(_))
        ));
    }

    #[test]
    fn pipelined_commands_overlap_instead_of_serializing() {
        // Lock-step at depth 1: each command pays both pcie_cmd_ns hops
        // end to end. Deep window: propagation pipelines away.
        let spec = HardwareSpec::default();
        let lockstep = {
            let (w, clock) = timed(1, 0);
            for i in 0u8..32 {
                assert_eq!(w.call(None, get(vec![i])), Ok(KvResponse::Value(vec![i])));
            }
            clock.now_ns()
        };
        let pipelined = {
            let (w, clock) = timed(32, 0);
            let ops: Vec<OpId> = (0u8..32).map(|i| w.submit(None, get(vec![i]))).collect();
            for (i, op) in (0u8..).zip(ops) {
                assert_eq!(w.wait(op), Ok(KvResponse::Value(vec![i])));
            }
            clock.now_ns()
        };
        assert!(
            lockstep >= 32 * 2 * spec.pcie_cmd_ns,
            "lock-step pays both hops per op: {lockstep}"
        );
        assert!(
            pipelined * 3 < lockstep,
            "pipelined ({pipelined}) must beat lock-step ({lockstep}) by 3x+"
        );
    }

    #[test]
    fn bounded_depth_stalls_submit_until_a_slot_frees() {
        let (w, clock) = timed(2, 0);
        let ops = vec![w.submit(None, get(vec![1])), w.submit(None, get(vec![2]))];
        assert_eq!(clock.now_ns(), 0, "two sends fit a depth-2 window");
        let third = w.submit(None, get(vec![3]));
        let stalled_to = clock.now_ns();
        assert!(stalled_to > 0, "third submit must wait for the window");
        for (i, op) in (1u8..).zip(ops.into_iter().chain([third])) {
            assert_eq!(w.wait(op), Ok(KvResponse::Value(vec![i])));
        }
        let lats = w.completion_latencies();
        assert_eq!(lats.len(), 3);
        // The first command went out at 0, so its latency is its
        // completion time: the stall waited for exactly that slot.
        assert_eq!(stalled_to, lats[0]);
        assert_eq!(w.inflight_len(), 0);
    }

    #[test]
    fn completion_latencies_are_recorded_per_completion() {
        let (w, _) = timed(8, 0);
        let ops: Vec<OpId> = (0u8..4).map(|i| w.submit(None, get(vec![i]))).collect();
        for op in ops {
            w.wait(op).expect("echo");
        }
        let lats = w.completion_latencies();
        assert_eq!(lats.len(), 4);
        assert!(lats.iter().all(|&l| l > 0));
        assert!(w.completion_latencies().is_empty());
    }

    #[test]
    fn a_timed_retry_waits_out_its_backoff_before_resending() {
        let (w, clock) = timed(1, 1);
        assert_eq!(w.call(None, get(vec![9])), Ok(KvResponse::Value(vec![9])));
        let lats = w.completion_latencies();
        assert_eq!(lats.len(), 2, "one failed attempt, one resend");
        let backoff = RetryPolicy::default().backoff_ns(1);
        assert_eq!(clock.now_ns(), lats[0] + backoff + lats[1]);
    }
}
