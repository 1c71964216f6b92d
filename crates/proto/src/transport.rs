//! The host-device transport: an NVMe queue pair whose DMA traffic is
//! charged to the I/O ledger.
//!
//! The real prototype maps submission/completion queues over PCIe BARs and
//! moves payloads by DMA, bypassing both the host and SoC kernels. Here
//! the "device" is an in-process object implementing [`DeviceHandler`];
//! what we preserve is the *accounting*: every command charges its wire
//! size host-to-device plus one command round trip, and every response
//! charges its wire size device-to-host on the same completion.
//!
//! Commands go through [`QueuePair::submit`] /
//! [`QueuePair::poll_completions`]: submissions return a [`CmdId`]
//! immediately and completions are matched out of order by id. With
//! [`QueuePair::with_pipeline`] attached, each command is charged
//! *per-stage* virtual time (h2d link occupancy, command propagation,
//! device execution lanes, d2h link occupancy), so overlapped commands
//! pipeline instead of serializing (DESIGN.md §16); a depth-1 pipeline is
//! the lock-step round trip.
//!
//! Completion queues are *per clone*: cloning a [`QueuePair`] mirrors a
//! host thread opening its own NVMe queue pair to the same drive, so a
//! clone's completions can never be stolen by another clone's poll. The
//! device, the ledger, and the pipeline's link/lane schedule stay shared.

use std::sync::Arc;

use kvcsd_sim::sync::Mutex;
use kvcsd_sim::{HardwareSpec, IoLedger, VirtualClock};

use crate::command::{KvCommand, KvResponse};

/// Implemented by the device-side command processor.
pub trait DeviceHandler: Send + Sync {
    /// Execute one command to completion (asynchronous jobs return
    /// immediately with a `JobStarted` response and run in the background).
    fn handle(&self, cmd: KvCommand) -> KvResponse;
}

/// Identifier for a submitted command, unique within one [`QueuePair`]
/// clone. Completions are matched against it out of order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmdId(pub u64);

/// Measures device busy-time around a `handle` call, in virtual ns: the
/// pipeline model charges `probe_after - probe_before` as the command's
/// device-execution occupancy. The default probe reads the shared
/// ledger's device-side accumulators.
pub type ExecProbe = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Per-stage timing model for the pipelined path, shared by all clones
/// of a queue pair (the PCIe link and the device's execution lanes are
/// physical resources; completion queues are not).
struct PipeTiming {
    clock: Arc<VirtualClock>,
    /// Max commands in flight per clone before `submit` stalls the
    /// virtual clock to the earliest completion.
    depth: usize,
    probe: ExecProbe,
    pcie_bw_bps: f64,
    pcie_cmd_ns: u64,
    sched: Arc<Mutex<LinkSched>>,
}

/// Earliest-free times for the shared transport resources.
struct LinkSched {
    h2d_free_ns: u64,
    d2h_free_ns: u64,
    lane_free_ns: Vec<u64>,
}

/// One completion waiting to be polled.
struct Completion {
    id: CmdId,
    resp: KvResponse,
    /// Virtual time at which the completion becomes visible (0 when no
    /// pipeline timing is attached).
    done_ns: u64,
    /// Submission-to-completion latency in virtual ns.
    lat_ns: u64,
}

/// Per-clone submission/completion bookkeeping.
struct QueueState {
    next_id: u64,
    ready: Vec<Completion>,
    /// Latencies of every completion returned so far, for benches.
    lat_log: Vec<u64>,
}

/// A submission/completion queue pair bound to one device.
///
/// Cloning is cheap; clones share the device, ledger, and pipeline
/// schedule, mirroring how multiple host threads each own an NVMe queue
/// pair to the same drive — but each clone's completion queue is its
/// own, so in-flight commands are private to the submitting clone.
pub struct QueuePair {
    device: Arc<dyn DeviceHandler>,
    ledger: Arc<IoLedger>,
    pipe: Option<Arc<PipeTiming>>,
    queue: Arc<Mutex<QueueState>>,
}

impl Clone for QueuePair {
    fn clone(&self) -> Self {
        Self {
            device: Arc::clone(&self.device),
            ledger: Arc::clone(&self.ledger),
            pipe: self.pipe.clone(),
            // Fresh completion queue: completions arrive on the queue
            // pair that submitted them.
            queue: Arc::new(Mutex::new(QueueState {
                next_id: 1,
                ready: Vec::new(),
                lat_log: Vec::new(),
            })),
        }
    }
}

impl std::fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuePair").finish_non_exhaustive()
    }
}

impl QueuePair {
    pub fn new(device: Arc<dyn DeviceHandler>, ledger: Arc<IoLedger>) -> Self {
        Self {
            device,
            ledger,
            pipe: None,
            queue: Arc::new(Mutex::new(QueueState {
                next_id: 1,
                ready: Vec::new(),
                lat_log: Vec::new(),
            })),
        }
    }

    pub fn ledger(&self) -> &Arc<IoLedger> {
        &self.ledger
    }

    /// Attach the per-stage pipeline timing model: submitted commands
    /// occupy the h2d link, one of `lanes` device execution slots, and
    /// the d2h link, each stage charged at [`HardwareSpec`] rates, with
    /// at most `depth` commands in flight before `submit` stalls.
    ///
    /// `probe` measures device busy-time around each `handle` call; when
    /// `None`, the shared ledger's device-side accumulators (SoC CPU +
    /// bridge + busiest flash channel) are used.
    pub fn with_pipeline(
        mut self,
        clock: Arc<VirtualClock>,
        depth: usize,
        lanes: usize,
        probe: Option<ExecProbe>,
    ) -> Self {
        let spec = HardwareSpec::default();
        let probe = probe.unwrap_or_else(|| {
            let ledger = Arc::clone(&self.ledger);
            Arc::new(move || {
                let s = ledger.snapshot();
                s.soc_cpu_ns + s.bridge_busy_ns + s.max_channel_busy_ns()
            })
        });
        self.pipe = Some(Arc::new(PipeTiming {
            clock,
            depth: depth.max(1),
            probe,
            pcie_bw_bps: spec.pcie_bw_bps,
            pcie_cmd_ns: spec.pcie_cmd_ns,
            sched: Arc::new(Mutex::new(LinkSched {
                h2d_free_ns: 0,
                d2h_free_ns: 0,
                lane_free_ns: vec![0; lanes.max(1)],
            })),
        }));
        self
    }

    /// Submit a command without waiting; its completion is matched by
    /// the returned id in a later [`poll_completions`] on *this* clone.
    ///
    /// With pipeline timing attached, a full window (≥ depth in-flight
    /// completions not yet visible) stalls the virtual clock to the
    /// earliest completion time before admitting the new command.
    ///
    /// [`poll_completions`]: QueuePair::poll_completions
    pub fn submit(&self, cmd: KvCommand) -> CmdId {
        if let Some(pipe) = &self.pipe {
            // Bounded queue depth: admission waits for a free slot.
            loop {
                let stall_to = {
                    let q = self.queue.lock();
                    let now = pipe.clock.now_ns();
                    let inflight = q.ready.iter().filter(|c| c.done_ns > now).count();
                    if inflight >= pipe.depth {
                        q.ready
                            .iter()
                            .filter(|c| c.done_ns > now)
                            .map(|c| c.done_ns)
                            .min()
                    } else {
                        None
                    }
                };
                match stall_to {
                    Some(t) => {
                        pipe.clock.advance_to(t);
                    }
                    None => break,
                }
            }
        }
        let cmd_bytes = cmd.wire_size();
        self.ledger.dma_h2d(cmd_bytes);

        let (submit_ns, h2d_done) = match &self.pipe {
            Some(pipe) => {
                let now = pipe.clock.now_ns();
                let xfer = Self::xfer_ns(cmd_bytes, pipe.pcie_bw_bps);
                let done = {
                    let mut s = pipe.sched.lock();
                    let start = s.h2d_free_ns.max(now);
                    s.h2d_free_ns = start + xfer;
                    s.h2d_free_ns
                };
                (now, done)
            }
            None => (0, 0),
        };

        let exec_before = self.pipe.as_ref().map(|p| (p.probe)());
        let resp = self.device.handle(cmd);
        let resp_bytes = resp.wire_size();
        self.ledger.dma_d2h_payload(resp_bytes);

        let done_ns = match &self.pipe {
            Some(pipe) => {
                let exec_ns = (pipe.probe)().saturating_sub(exec_before.unwrap_or(0));
                let arrive = h2d_done + pipe.pcie_cmd_ns;
                let d2h_xfer = Self::xfer_ns(resp_bytes, pipe.pcie_bw_bps);
                let mut s = pipe.sched.lock();
                // Earliest-free device execution lane.
                let mut lane = 0;
                for (ix, free) in s.lane_free_ns.iter().enumerate() {
                    if *free < s.lane_free_ns[lane] {
                        lane = ix;
                    }
                }
                let exec_done = s.lane_free_ns[lane].max(arrive) + exec_ns;
                s.lane_free_ns[lane] = exec_done;
                let d2h_done = s.d2h_free_ns.max(exec_done) + d2h_xfer;
                s.d2h_free_ns = d2h_done;
                d2h_done + pipe.pcie_cmd_ns
            }
            None => 0,
        };

        let mut q = self.queue.lock();
        let id = CmdId(q.next_id);
        q.next_id += 1;
        q.ready.push(Completion {
            id,
            resp,
            done_ns,
            lat_ns: done_ns.saturating_sub(submit_ns),
        });
        id
    }

    /// Drain the completions visible on this clone, out of order by id.
    ///
    /// Without pipeline timing every submitted command is already
    /// complete. With it, completions whose virtual completion time has
    /// passed are returned; if none has but some are in flight, the
    /// clock is advanced to the earliest completion (the host genuinely
    /// has nothing to do but wait). An empty queue returns an empty vec.
    pub fn poll_completions(&self) -> Vec<(CmdId, KvResponse)> {
        let stall_to = match &self.pipe {
            Some(pipe) => {
                let q = self.queue.lock();
                let now = pipe.clock.now_ns();
                if q.ready.is_empty() || q.ready.iter().any(|c| c.done_ns <= now) {
                    None
                } else {
                    q.ready.iter().map(|c| c.done_ns).min()
                }
            }
            None => None,
        };
        if let (Some(t), Some(pipe)) = (stall_to, &self.pipe) {
            pipe.clock.advance_to(t);
        }
        let now = self.pipe.as_ref().map(|p| p.clock.now_ns());
        let mut q = self.queue.lock();
        let mut out = Vec::new();
        let mut keep = Vec::new();
        for c in q.ready.drain(..) {
            match now {
                Some(now) if c.done_ns > now => keep.push(c),
                _ => out.push(c),
            }
        }
        q.ready = keep;
        out.sort_by_key(|c| (c.done_ns, c.id));
        for c in &out {
            q.lat_log.push(c.lat_ns);
        }
        out.into_iter().map(|c| (c.id, c.resp)).collect()
    }

    /// Completion latencies (virtual ns) recorded on this clone since
    /// the last take, in completion order. Benches use this for p50/p99.
    pub fn take_completion_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut self.queue.lock().lat_log)
    }

    fn xfer_ns(bytes: u64, bw_bps: f64) -> u64 {
        ((bytes as f64) * 1e9 / bw_bps).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{KvCommand, KvResponse};
    use crate::status::KvStatus;

    /// Echo device used to exercise the transport accounting.
    struct Echo;

    impl DeviceHandler for Echo {
        fn handle(&self, cmd: KvCommand) -> KvResponse {
            match cmd {
                KvCommand::Get { key, .. } => KvResponse::Value(key),
                KvCommand::Put { .. } => KvResponse::PutOk,
                _ => KvResponse::Err(KvStatus::Internal("unsupported".into())),
            }
        }
    }

    fn qp() -> QueuePair {
        QueuePair::new(Arc::new(Echo), Arc::new(IoLedger::new(16, 4096)))
    }

    fn get(key: Vec<u8>) -> KvCommand {
        KvCommand::Get { ks: 0, key }
    }

    /// Submit one command and claim its completion.
    fn round_trip(qp: &QueuePair, cmd: KvCommand) -> KvResponse {
        let id = qp.submit(cmd);
        let mut done = qp.poll_completions();
        assert_eq!(done.len(), 1);
        let (got, resp) = done.remove(0);
        assert_eq!(got, id);
        resp
    }

    #[test]
    fn submit_routes_to_device() {
        let qp = qp();
        let resp = round_trip(&qp, get(vec![1, 2, 3]));
        assert_eq!(resp, KvResponse::Value(vec![1, 2, 3]));
    }

    #[test]
    fn dma_accounting_per_command() {
        let qp = qp();
        let cmd = KvCommand::Put {
            ks: 0,
            key: vec![0; 16],
            value: vec![0; 32],
        };
        let cmd_bytes = cmd.wire_size();
        round_trip(&qp, cmd);
        let s = qp.ledger().snapshot();
        assert_eq!(s.pcie_h2d_bytes, cmd_bytes);
        assert_eq!(s.pcie_d2h_bytes, KvResponse::PutOk.wire_size());
        // One round trip per command, not two.
        assert_eq!(s.pcie_msgs, 1);
    }

    #[test]
    fn response_payload_bytes_are_charged() {
        let qp = qp();
        round_trip(&qp, get(vec![7; 100]));
        let s = qp.ledger().snapshot();
        assert_eq!(
            s.pcie_d2h_bytes,
            KvResponse::Value(vec![7; 100]).wire_size()
        );
    }

    #[test]
    fn clones_share_ledger() {
        let qp1 = qp();
        let qp2 = qp1.clone();
        let put = || KvCommand::Put {
            ks: 0,
            key: vec![1],
            value: vec![2],
        };
        round_trip(&qp1, put());
        round_trip(&qp2, put());
        assert_eq!(qp1.ledger().snapshot().pcie_msgs, 2);
    }

    #[test]
    fn completions_are_matched_by_id_across_many_submissions() {
        let qp = qp();
        let ids: Vec<CmdId> = (0u8..10).map(|i| qp.submit(get(vec![i]))).collect();
        let mut done = qp.poll_completions();
        done.sort_by_key(|(id, _)| *id);
        assert_eq!(done.len(), 10);
        for (ix, (id, resp)) in done.into_iter().enumerate() {
            assert_eq!(id, ids[ix]);
            assert_eq!(resp, KvResponse::Value(vec![ix as u8]));
        }
        assert!(qp.poll_completions().is_empty());
    }

    #[test]
    fn clones_have_private_completion_queues() {
        let qp1 = qp();
        let qp2 = qp1.clone();
        let id1 = qp1.submit(get(vec![1]));
        let id2 = qp2.submit(get(vec![2]));
        // Ids are per-clone, so both start at 1 — and neither clone can
        // drain the other's completions.
        assert_eq!(id1, id2);
        assert_eq!(qp2.poll_completions().len(), 1);
        assert_eq!(qp1.poll_completions().len(), 1);
        assert!(qp1.poll_completions().is_empty());
    }

    #[test]
    fn pipelined_commands_overlap_instead_of_serializing() {
        // Lock-step at depth 1: each command pays both pcie_cmd_ns hops
        // end to end. Deep window: propagation pipelines away.
        let spec = HardwareSpec::default();
        let lockstep = {
            let clock = Arc::new(VirtualClock::new());
            let qp = qp().with_pipeline(Arc::clone(&clock), 1, 4, None);
            for i in 0u8..32 {
                qp.submit(get(vec![i]));
                qp.poll_completions();
            }
            clock.now_ns()
        };
        let pipelined = {
            let clock = Arc::new(VirtualClock::new());
            let qp = qp().with_pipeline(Arc::clone(&clock), 32, 4, None);
            for i in 0u8..32 {
                qp.submit(get(vec![i]));
            }
            while !qp.poll_completions().is_empty() {}
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
        let clock = Arc::new(VirtualClock::new());
        let qp = qp().with_pipeline(Arc::clone(&clock), 2, 4, None);
        qp.submit(get(vec![1]));
        qp.submit(get(vec![2]));
        let before = clock.now_ns();
        qp.submit(get(vec![3]));
        assert!(
            clock.now_ns() > before,
            "third submit must wait for the window"
        );
        let mut n = 0;
        loop {
            let batch = qp.poll_completions();
            if batch.is_empty() {
                break;
            }
            n += batch.len();
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn completion_latencies_are_recorded_per_completion() {
        let clock = Arc::new(VirtualClock::new());
        let qp = qp().with_pipeline(Arc::clone(&clock), 8, 4, None);
        for i in 0u8..4 {
            qp.submit(get(vec![i]));
        }
        while !qp.poll_completions().is_empty() {}
        let lats = qp.take_completion_latencies();
        assert_eq!(lats.len(), 4);
        assert!(lats.iter().all(|&l| l > 0));
        assert!(qp.take_completion_latencies().is_empty());
    }
}
