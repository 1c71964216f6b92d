//! Deterministic ingest benchmark: lock-step vs. pipelined vs.
//! accelerated writes over the explicit in-flight window, in *virtual*
//! time, on a single device and on a 2-shard cluster.
//!
//! Three arms per topology, all inserting the same seeded key/value
//! stream:
//!
//! * `lock_step` — queue depth 1, one `PUT` per round trip: the paper
//!   client's original submission model. Every command pays both PCIe
//!   command hops plus its device execution before the next may start.
//! * `pipelined` — queue depth 32, still one `PUT` per command, but the
//!   in-flight window keeps the submission queue full so transfer,
//!   execution lanes and completion overlap across commands.
//! * `accelerated` — queue depth 32 and the host-side write
//!   accelerator: entries are staged, key-sorted and packed into
//!   ~128 KB `BULK_PUT` messages that stream through the same window.
//!
//! Every number derives from virtual clocks and ledgers, so the output
//! is byte-identical across machines; CI diffs stdout against the
//! committed `BENCH_ingest.json`. The binary itself enforces the
//! ingest trajectory this refactor was gated on: accelerated ingest
//! must beat lock-step by at least 3x on the same seed (it panics —
//! and fails CI — otherwise).

use std::sync::Arc;

use kvcsd_bench::Testbed;
use kvcsd_client::{InflightWindow, RetryPolicy, WriteAccelerator};
use kvcsd_cluster::{ClusterConfig, ClusterRouter};
use kvcsd_proto::{DeviceHandler, ExecProbe, KvCommand, KvResponse, QueuePair};
use kvcsd_sim::stats::nearest_rank;
use kvcsd_sim::{IoLedger, VirtualClock};

const PAIRS: u32 = 4000;
const VALUE_BYTES: usize = 64;
const DEPTH: usize = 32;
const LANES: usize = 4;
const ACCEL_OUTSTANDING: usize = 8;
const SEED: u64 = 42;

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    LockStep,
    Pipelined,
    Accelerated,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::LockStep => "lock_step",
            Arm::Pipelined => "pipelined",
            Arm::Accelerated => "accelerated",
        }
    }

    fn depth(self) -> usize {
        match self {
            Arm::LockStep => 1,
            Arm::Pipelined | Arm::Accelerated => DEPTH,
        }
    }
}

fn key_for(i: u32) -> Vec<u8> {
    // Seed-dependent shuffle so the accelerator's sort has real work.
    let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ SEED;
    format!("k{:06}x{:04}", x % PAIRS as u64, i % 10_000).into_bytes()
}

fn value_for(key: &[u8]) -> Vec<u8> {
    let mut x = 0x243f_6a88_85a3_08d3u64 ^ SEED;
    for &b in key {
        x ^= b as u64;
        x = x.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (0..VALUE_BYTES)
        .map(|i| ((x >> ((i % 8) * 8)) as u8).wrapping_add(i as u8))
        .collect()
}

struct ArmStats {
    arm: &'static str,
    pairs: u64,
    total_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
    pcie_h2d_bytes: u64,
    pcie_d2h_bytes: u64,
    pcie_msgs: u64,
}

impl ArmStats {
    fn ops_per_vsec(&self) -> f64 {
        self.pairs as f64 * 1e9 / self.total_ns.max(1) as f64
    }

    fn to_json(&self) -> String {
        format!(
            "      {{\"arm\": \"{}\", \"pairs\": {}, \"virtual_ns\": {}, \"ops_per_vsec\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, \"pcie_h2d_bytes\": {}, \"pcie_d2h_bytes\": {}, \"pcie_msgs\": {}}}",
            self.arm,
            self.pairs,
            self.total_ns,
            self.ops_per_vsec(),
            self.p50_ns,
            self.p99_ns,
            self.pcie_h2d_bytes,
            self.pcie_d2h_bytes,
            self.pcie_msgs
        )
    }
}

/// Drive one arm over an already-pipelined queue pair whose shared
/// ledger is `ledger`; returns the arm's virtual-time statistics.
fn drive(arm: Arm, qp: QueuePair, ledger: &Arc<IoLedger>, clock: &Arc<VirtualClock>) -> ArmStats {
    let win = InflightWindow::new(qp.clone(), RetryPolicy::none(), Arc::clone(clock));
    let ks = match win.call(
        None,
        KvCommand::CreateKeyspace {
            name: "ingest".into(),
        },
    ) {
        Ok(KvResponse::Created { ks }) => ks,
        other => panic!("create: {other:?}"),
    };
    // Drop the setup command's latency sample before measuring.
    win.completion_latencies();
    let led0 = ledger.snapshot();
    let t0 = clock.now_ns();

    let mut lats = match arm {
        Arm::LockStep | Arm::Pipelined => {
            let mut ops = Vec::with_capacity(PAIRS as usize);
            for i in 0..PAIRS {
                let k = key_for(i);
                let v = value_for(&k);
                ops.push(win.submit(
                    None,
                    KvCommand::Put {
                        ks,
                        key: k,
                        value: v,
                    },
                ));
            }
            for op in ops {
                match win.wait(op) {
                    Ok(KvResponse::PutOk) => {}
                    other => panic!("put: {other:?}"),
                }
            }
            win.completion_latencies()
        }
        Arm::Accelerated => {
            let accel = WriteAccelerator::new(qp, ks, RetryPolicy::none(), Arc::clone(clock), None)
                .with_depth(ACCEL_OUTSTANDING);
            for i in 0..PAIRS {
                let k = key_for(i);
                let v = value_for(&k);
                accel.put(&k, &v).expect("accelerated put");
            }
            let acked = accel.flush().expect("flush");
            assert_eq!(acked, PAIRS as u64, "every staged pair must be acked");
            accel.completion_latencies()
        }
    };
    lats.sort_unstable();

    let led = ledger.snapshot().since(&led0);
    ArmStats {
        arm: arm.name(),
        pairs: PAIRS as u64,
        total_ns: clock.now_ns() - t0,
        p50_ns: nearest_rank(&lats, 50),
        p99_ns: nearest_rank(&lats, 99),
        pcie_h2d_bytes: led.pcie_h2d_bytes,
        pcie_d2h_bytes: led.pcie_d2h_bytes,
        pcie_msgs: led.pcie_msgs,
    }
}

/// One arm against a fresh single device.
fn run_single(arm: Arm) -> ArmStats {
    let tb = Testbed::new();
    let (dev, _client) = tb.kvcsd(4 << 20, 64 << 20, 1);
    let clock = Arc::new(VirtualClock::new());
    let qp = QueuePair::new(dev as Arc<dyn DeviceHandler>, Arc::clone(&tb.ledger)).with_pipeline(
        Arc::clone(&clock),
        arm.depth(),
        LANES,
        None,
    );
    drive(arm, qp, &tb.ledger, &clock)
}

/// One arm against a fresh 2-shard cluster. The execution probe is the
/// router's host clock, which fan-outs advance by the slowest shard's
/// busy delta — so a scattered bulk costs the router the slowest
/// shard's time while both shards' windows are driven concurrently.
fn run_two_shard(arm: Arm) -> ArmStats {
    let r = Arc::new(ClusterRouter::new(ClusterConfig {
        shards: 2,
        ..ClusterConfig::default()
    }));
    let hc = Arc::clone(r.host_clock());
    let probe: ExecProbe = Arc::new(move || hc.now_ns());
    let ledger = Arc::new(IoLedger::new(16, 4096));
    let clock = Arc::new(VirtualClock::new());
    let qp = QueuePair::new(r as Arc<dyn DeviceHandler>, Arc::clone(&ledger)).with_pipeline(
        Arc::clone(&clock),
        arm.depth(),
        LANES,
        Some(probe),
    );
    drive(arm, qp, &ledger, &clock)
}

fn emit(label: &str, arms: &[ArmStats], last: bool) -> String {
    let lock_step = arms[0].ops_per_vsec();
    let accelerated = arms[2].ops_per_vsec();
    let speedup = accelerated / lock_step.max(f64::MIN_POSITIVE);
    // The gate this refactor rode in on: accelerated pipelined BULK_PUT
    // ingest must beat lock-step single-PUT at queue depth 1 by >= 3x.
    assert!(
        speedup >= 3.0,
        "{label}: accelerated ingest regressed to {speedup:.2}x lock-step (< 3x)"
    );
    let mut out = format!("  \"{label}\": {{\n    \"arms\": [\n");
    let rows: Vec<String> = arms.iter().map(ArmStats::to_json).collect();
    out.push_str(&rows.join(",\n"));
    out.push_str(&format!(
        "\n    ],\n    \"speedup_accel_vs_lock_step\": {speedup:.1}\n"
    ));
    out.push_str(if last { "  }\n" } else { "  },\n" });
    out
}

fn main() {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"pairs\": {PAIRS}, \"value_bytes\": {VALUE_BYTES}, \"depth\": {DEPTH}, \"lanes\": {LANES}, \"seed\": {SEED}}},\n"
    ));
    let arms = [Arm::LockStep, Arm::Pipelined, Arm::Accelerated];
    let single: Vec<ArmStats> = arms.iter().map(|&a| run_single(a)).collect();
    out.push_str(&emit("single_device", &single, false));
    let cluster: Vec<ArmStats> = arms.iter().map(|&a| run_two_shard(a)).collect();
    out.push_str(&emit("two_shard", &cluster, true));
    out.push_str("}\n");
    print!("{out}");
}
