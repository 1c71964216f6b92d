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
//! The device runs each command synchronously, so [`QueuePair::submit`]
//! hands back the command's [`Completion`]: the response, the virtual
//! time it becomes visible and its latency. The transport keeps no queue
//! of its own; holding completions until they are due, bounding the
//! queue depth and matching them to operations is the client's in-flight
//! window (DESIGN.md §16). With [`QueuePair::with_pipeline`] attached,
//! each command is charged *per-stage* virtual time (h2d link occupancy,
//! command propagation, device execution lanes, d2h link occupancy), so
//! overlapped commands pipeline instead of serializing; a depth-1
//! pipeline is the lock-step round trip.
//!
//! Cloning a [`QueuePair`] mirrors a host thread opening its own NVMe
//! queue pair to the same drive: the device, the ledger, and the
//! pipeline's link/lane schedule stay shared.

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

/// Measures device busy-time around a `handle` call, in virtual ns: the
/// pipeline model charges `probe_after - probe_before` as the command's
/// device-execution occupancy. The default probe is the shared
/// ledger's [`IoLedger::device_busy_ns`].
pub type ExecProbe = Arc<dyn Fn() -> u64 + Send + Sync>;

/// One command's completion, as [`QueuePair::submit`] returns it.
#[derive(Debug)]
pub struct Completion {
    pub resp: KvResponse,
    /// Virtual time at which the completion becomes visible to the host
    /// (0 when no pipeline timing is attached).
    pub done_ns: u64,
    /// Submission-to-completion latency in virtual ns.
    pub lat_ns: u64,
}

/// Per-stage timing model for the pipelined path, shared by all clones
/// of a queue pair (the PCIe link and the device's execution lanes are
/// physical resources).
struct PipeTiming {
    clock: Arc<VirtualClock>,
    /// Commands a submitter keeps in flight before it stalls the clock
    /// to the earliest completion.
    depth: usize,
    probe: ExecProbe,
    pcie_bw_bps: f64,
    pcie_cmd_ns: u64,
    sched: Mutex<LinkSched>,
}

/// Earliest-free times for the shared transport resources.
struct LinkSched {
    h2d_free_ns: u64,
    d2h_free_ns: u64,
    lane_free_ns: Vec<u64>,
}

/// A submission/completion queue pair bound to one device.
///
/// Cloning is cheap; clones share the device, ledger, and pipeline
/// schedule, mirroring how multiple host threads each own an NVMe queue
/// pair to the same drive.
#[derive(Clone)]
pub struct QueuePair {
    device: Arc<dyn DeviceHandler>,
    ledger: Arc<IoLedger>,
    pipe: Option<Arc<PipeTiming>>,
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
        }
    }

    pub fn ledger(&self) -> &Arc<IoLedger> {
        &self.ledger
    }

    /// Attach the per-stage pipeline timing model: submitted commands
    /// occupy the h2d link, one of `lanes` device execution slots, and
    /// the d2h link, each stage charged at [`HardwareSpec`] rates, and a
    /// submitter keeps at most `depth` commands in flight.
    ///
    /// `probe` measures device busy-time around each `handle` call; when
    /// `None`, the shared ledger's busy read is used: SoC CPU, bridge
    /// and busiest flash channel ([`IoLedger::device_busy_ns`]).
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
            Arc::new(move || ledger.device_busy_ns())
        });
        self.pipe = Some(Arc::new(PipeTiming {
            clock,
            depth: depth.max(1),
            probe,
            pcie_bw_bps: spec.pcie_bw_bps,
            pcie_cmd_ns: spec.pcie_cmd_ns,
            sched: Mutex::new(LinkSched {
                h2d_free_ns: 0,
                d2h_free_ns: 0,
                lane_free_ns: vec![0; lanes.max(1)],
            }),
        }));
        self
    }

    /// The pipeline's clock and queue depth; `None` when no timing model
    /// is attached and every completion is visible at once.
    pub fn timing(&self) -> Option<(&Arc<VirtualClock>, usize)> {
        self.pipe.as_ref().map(|p| (&p.clock, p.depth))
    }

    /// Send one command and return its completion. The device runs it
    /// now; with pipeline timing attached, the completion is scheduled
    /// after the h2d transfer, the command hop, the earliest-free
    /// execution lane, the d2h transfer and the return hop. Submission
    /// never waits: bounding the commands in flight is the caller's job.
    pub fn submit(&self, cmd: KvCommand) -> Completion {
        let cmd_bytes = cmd.wire_size();
        self.ledger.dma_h2d(cmd_bytes);

        let (submit_ns, h2d_done) = match &self.pipe {
            Some(pipe) => {
                let now = pipe.clock.now_ns();
                let xfer = Self::xfer_ns(cmd_bytes, pipe.pcie_bw_bps);
                let mut s = pipe.sched.lock();
                let start = s.h2d_free_ns.max(now);
                s.h2d_free_ns = start + xfer;
                (now, s.h2d_free_ns)
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
        Completion {
            resp,
            done_ns,
            lat_ns: done_ns.saturating_sub(submit_ns),
        }
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

    #[test]
    fn submit_routes_to_device() {
        let qp = qp();
        let c = qp.submit(get(vec![1, 2, 3]));
        assert_eq!(c.resp, KvResponse::Value(vec![1, 2, 3]));
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
        qp.submit(cmd);
        let s = qp.ledger().snapshot();
        assert_eq!(s.pcie_h2d_bytes, cmd_bytes);
        assert_eq!(s.pcie_d2h_bytes, KvResponse::PutOk.wire_size());
        // One round trip per command, not two.
        assert_eq!(s.pcie_msgs, 1);
    }

    #[test]
    fn response_payload_bytes_are_charged() {
        let qp = qp();
        qp.submit(get(vec![7; 100]));
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
        qp1.submit(put());
        qp2.submit(put());
        assert_eq!(qp1.ledger().snapshot().pcie_msgs, 2);
    }

    #[test]
    fn untimed_completions_are_visible_at_once() {
        let qp = qp();
        assert!(qp.timing().is_none());
        let c = qp.submit(get(vec![1]));
        assert_eq!((c.done_ns, c.lat_ns), (0, 0));
    }

    #[test]
    fn timed_completions_carry_their_time_and_latency() {
        let spec = HardwareSpec::default();
        let clock = Arc::new(VirtualClock::new());
        let qp = qp().with_pipeline(Arc::clone(&clock), 4, 2, None);
        assert_eq!(qp.timing().map(|(_, depth)| depth), Some(4));
        clock.advance(1_000);
        let a = qp.submit(get(vec![1]));
        let b = qp.submit(get(vec![2]));
        // Submission never moves the clock; the completion carries its
        // own time, both command hops included.
        assert_eq!(clock.now_ns(), 1_000);
        assert_eq!(a.lat_ns, a.done_ns - 1_000);
        assert!(a.lat_ns >= 2 * spec.pcie_cmd_ns, "{a:?}");
        // The second command queues behind the first on the shared link.
        assert!(b.done_ns > a.done_ns, "{a:?} then {b:?}");
    }
}
