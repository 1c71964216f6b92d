//! Deterministic cluster benchmark: replicated PUT / COMPACT / RANGE
//! with and without link faults, in *virtual* time.
//!
//! Every number here is derived from the per-shard virtual clocks and
//! the shared fabric ledger, never from wall time, so the output is
//! byte-identical across machines and build profiles. CI runs this
//! binary and diffs stdout against the committed `BENCH_cluster.json`:
//! any change to the cost model, the ship protocol or the link fault
//! lane shows up as a reviewable snapshot diff.
//!
//! Two invariants are visible in the snapshot itself:
//!
//! * PUT and RANGE latencies are identical between the clean and lossy
//!   runs — point ops and scatter-gather never touch the replication
//!   bus, and the link fault lane draws from its own RNG stream, so
//!   enabling link faults must not perturb device-side schedules.
//! * The COMPACT phase (synchronous seal + replica ship) and the bus
//!   counters are where the lossy link costs land: retries, duplicate
//!   deliveries and delay faults all surface as fabric traffic and
//!   ship latency, not as data loss.

use kvcsd_cluster::{ClusterConfig, ClusterRouter};
use kvcsd_proto::{Bound, DeviceHandler, JobState, KvCommand, KvResponse};
use kvcsd_sim::stats::nearest_rank;
use kvcsd_sim::FaultPlan;

const SHARDS: u32 = 2;
const KEYSPACES: u32 = 6;
const KEYS: u32 = 1200;
const RANGES: u32 = 160;
const VALUE_BYTES: usize = 64;
const SEED: u64 = 42;

fn value_for(key: &[u8]) -> Vec<u8> {
    let mut x = 0x243f_6a88_85a3_08d3u64;
    for &b in key {
        x ^= b as u64;
        x = x.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (0..VALUE_BYTES)
        .map(|i| ((x >> ((i % 8) * 8)) as u8).wrapping_add(i as u8))
        .collect()
}

/// Fleet-wide virtual time: SoC/host CPU, bridge and NAND-channel
/// occupancy plus admission waits per shard, the replication channel
/// clocks (ack timeouts + retransmit backoff) and fabric occupancy.
/// Every term is monotonic and charged only by the cost model, so the
/// delta across one op is that op's deterministic virtual latency.
fn fleet_ns(r: &ClusterRouter) -> u64 {
    let mut t = 0u64;
    for ix in 0..SHARDS {
        let s = r.shard_ledger(ix).snapshot();
        t += s.soc_cpu_ns + s.host_cpu_ns + s.bridge_busy_ns;
        t += s.channel_busy_ns.iter().sum::<u64>();
        t += r.shard_clock(ix).now_ns();
        t += r.replica_log(ix).clock().now_ns();
    }
    t + r.fabric_ledger().custom("bus_busy_ns")
}

struct Phase {
    name: &'static str,
    ops: u64,
    total_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
}

impl Phase {
    fn from_lats(name: &'static str, mut lats: Vec<u64>) -> Self {
        lats.sort_unstable();
        Self {
            name,
            ops: lats.len() as u64,
            total_ns: lats.iter().sum(),
            p50_ns: nearest_rank(&lats, 50),
            p99_ns: nearest_rank(&lats, 99),
        }
    }

    /// Virtual-time throughput, 1 decimal (deterministic formatting).
    fn ops_per_vsec(&self) -> String {
        format!(
            "{:.1}",
            self.ops as f64 * 1e9 / (self.total_ns.max(1)) as f64
        )
    }

    fn to_json(&self) -> String {
        format!(
            "    {{\"phase\": \"{}\", \"ops\": {}, \"virtual_ns\": {}, \"ops_per_vsec\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
            self.name,
            self.ops,
            self.total_ns,
            self.ops_per_vsec(),
            self.p50_ns,
            self.p99_ns
        )
    }
}

fn run_mode(lossy: bool) -> (Vec<Phase>, u64, u64) {
    let mut plan = if lossy {
        FaultPlan::none()
            .with_link_faults(0.25, 0.25, 0.10, 0.50)
            .with_link_delay_ns(50_000)
    } else {
        FaultPlan::none()
    };
    plan.seed = SEED;
    let r = ClusterRouter::new(ClusterConfig {
        shards: SHARDS,
        fault_plan: plan,
        ..ClusterConfig::default()
    });
    // Several keyspaces so the seal/ship path crosses the bus often
    // enough for the link fault probabilities to matter.
    let spaces: Vec<(u32, Vec<Vec<u8>>)> = (0..KEYSPACES)
        .map(|s| {
            let ks = match r.handle(KvCommand::CreateKeyspace {
                name: format!("bench{s}"),
            }) {
                KvResponse::Created { ks } => ks,
                other => panic!("create: {other:?}"),
            };
            let keys = (0..KEYS / KEYSPACES)
                .map(|i| format!("s{s}k{i:06}").into_bytes())
                .collect();
            (ks, keys)
        })
        .collect();

    // PUT phase: device-local, replication untouched.
    let mut put_lats = Vec::with_capacity(KEYS as usize);
    for (ks, keys) in &spaces {
        for k in keys {
            let before = fleet_ns(&r);
            match r.handle(KvCommand::Put {
                ks: *ks,
                key: k.clone(),
                value: value_for(k),
            }) {
                KvResponse::PutOk => {}
                other => panic!("put: {other:?}"),
            }
            put_lats.push(fleet_ns(&r) - before);
        }
    }

    // COMPACT phase: synchronous seal + replica ship (the bus path),
    // then polling runs the background jobs, and anti-entropy ships the
    // built indexes.
    let mut compact_lats = Vec::with_capacity(spaces.len());
    for (ks, _) in &spaces {
        let before = fleet_ns(&r);
        let job = match r.handle(KvCommand::Compact { ks: *ks }) {
            KvResponse::JobStarted { job } => job,
            other => panic!("compact: {other:?}"),
        };
        loop {
            match r.handle(KvCommand::PollJob { job }) {
                KvResponse::Job {
                    state: JobState::Done,
                } => break,
                KvResponse::Job {
                    state: JobState::Failed(e),
                } => panic!("compact failed: {e}"),
                KvResponse::Job { .. } => {}
                other => panic!("poll: {other:?}"),
            }
        }
        while r.run_background() > 0 {}
        compact_lats.push(fleet_ns(&r) - before);
    }
    let compact = Phase::from_lats("compact_seal_ship", compact_lats);

    // RANGE phase: bounded scatter-gather windows over the sealed data.
    let mut range_lats = Vec::with_capacity(RANGES as usize);
    for i in 0..RANGES {
        let (ks, keys) = &spaces[i as usize % spaces.len()];
        let lo = (i as usize * 7) % keys.len();
        let hi = (lo + 48).min(keys.len() - 1);
        let before = fleet_ns(&r);
        match r.handle(KvCommand::Range {
            ks: *ks,
            lo: Bound::Included(keys[lo].clone()),
            hi: Bound::Included(keys[hi].clone()),
            limit: None,
        }) {
            KvResponse::Entries(es) => assert!(!es.is_empty()),
            other => panic!("range: {other:?}"),
        }
        range_lats.push(fleet_ns(&r) - before);
    }

    let phases = vec![
        Phase::from_lats("put", put_lats),
        compact,
        Phase::from_lats("range", range_lats),
    ];
    let fabric = r.fabric_ledger();
    (
        phases,
        fabric.custom("bus_msgs"),
        fabric.custom("bus_bytes"),
    )
}

fn main() {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"shards\": {SHARDS}, \"keyspaces\": {KEYSPACES}, \"keys\": {KEYS}, \"ranges\": {RANGES}, \"value_bytes\": {VALUE_BYTES}, \"seed\": {SEED}}},\n"
    ));
    for (label, lossy) in [("clean", false), ("lossy_link", true)] {
        let (phases, bus_msgs, bus_bytes) = run_mode(lossy);
        out.push_str(&format!("  \"{label}\": {{\n"));
        out.push_str("    \"phases\": [\n");
        let rows: Vec<String> = phases
            .iter()
            .map(|p| format!("  {}", p.to_json()))
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n    ],\n");
        out.push_str(&format!(
            "    \"bus_msgs\": {bus_msgs}, \"bus_bytes\": {bus_bytes}\n"
        ));
        out.push_str(if label == "clean" { "  },\n" } else { "  }\n" });
    }
    out.push_str("}\n");
    print!("{out}");
}
