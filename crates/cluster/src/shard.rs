//! One shard of the cluster: a full simulated device stack.
//!
//! A [`ShardInstance`] owns everything a single `kvcsd-core` device needs —
//! NAND array, ZNS namespace, I/O ledger, virtual clock and fault
//! injector — so shards fail, stall and account for time independently.
//! The router never reaches around an instance to its internals; the
//! accessors here exist for tests and for the router's failover path.

use std::sync::Arc;

use kvcsd_core::{DeviceStack, KvCsdDevice};
use kvcsd_sim::sync::Shared;
use kvcsd_sim::{FaultInjector, FaultPlan, IoLedger, VirtualClock};

use crate::ClusterConfig;

/// Router-visible health of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Primary is serving.
    Healthy,
    /// Primary died; the router is promoting the replica. Commands bounce
    /// with the retryable `KvStatus::FailoverInProgress`.
    FailingOver,
    /// Primary died and there is nothing to promote (replication off).
    /// Commands fail with the non-retryable `KvStatus::ShardUnavailable`.
    Dead,
}

/// A complete device stack for one shard.
pub struct ShardInstance {
    stack: DeviceStack,
    clock: Arc<VirtualClock>,
    injector: Arc<FaultInjector>,
    /// Fencing epoch this instance was built to serve. A promotion mints
    /// the next epoch, so an instance whose epoch trails the shard's
    /// current epoch is a deposed primary: the router rejects its acks
    /// with `KvStatus::EpochFenced` and the replica log rejects its ships
    /// at the receive fence.
    epoch: u64,
}

impl ShardInstance {
    /// Build a fresh stack for shard `device_id` under `plan`, serving
    /// fencing epoch `epoch`. The plan is re-keyed per device, so one
    /// fleet-wide seed yields deterministic but *distinct* failure
    /// schedules per shard.
    pub fn build(cfg: &ClusterConfig, device_id: u32, plan: FaultPlan, epoch: u64) -> Self {
        let clock = Arc::new(VirtualClock::new());
        let mut dev_cfg = cfg.device.clone();
        dev_cfg.seed ^= (device_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        dev_cfg.clock = Some(Arc::clone(&clock));
        let mut stack = DeviceStack::new(cfg.geometry, cfg.zns, dev_cfg);
        let injector = stack.arm(plan.for_device(device_id));
        Self {
            stack,
            clock,
            injector,
            epoch,
        }
    }

    /// The fencing epoch this instance serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn device(&self) -> &Arc<KvCsdDevice> {
        self.stack.device()
    }

    pub fn ledger(&self) -> &Arc<IoLedger> {
        self.stack.ledger()
    }

    /// This shard's private virtual clock. Latency charged here never
    /// moves any other shard's clock — the stall-isolation property the
    /// torture test asserts.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }
}

/// Per-shard health flag plus promotion generation, in shim-checked
/// shared cells so the race detector covers router state.
pub struct HealthCell {
    health: Shared<ShardHealth>,
    generation: Shared<u32>,
}

impl HealthCell {
    pub fn new() -> Self {
        Self {
            health: Shared::new(ShardHealth::Healthy),
            generation: Shared::new(0),
        }
    }

    pub fn get(&self) -> ShardHealth {
        self.health.get()
    }

    pub fn set(&self, h: ShardHealth) {
        self.health.set(h);
    }

    /// Atomically move `Healthy -> FailingOver`; returns `false` if some
    /// other path already began (or finished) a failover.
    pub fn begin_failover(&self) -> bool {
        self.health.update(|h| {
            if *h == ShardHealth::Healthy {
                *h = ShardHealth::FailingOver;
                true
            } else {
                false
            }
        })
    }

    /// Number of completed promotions on this shard.
    pub fn generation(&self) -> u32 {
        self.generation.get()
    }

    pub fn bump_generation(&self) -> u32 {
        self.generation.update(|g| {
            *g += 1;
            *g
        })
    }
}

impl Default for HealthCell {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_sim::fault::OpClass;

    #[test]
    fn shards_get_distinct_deterministic_fault_schedules() {
        let cfg = ClusterConfig::default();
        let plan = FaultPlan::none().with_error_prob(0.5);
        let a = ShardInstance::build(&cfg, 0, plan.clone(), 1);
        let b = ShardInstance::build(&cfg, 1, plan.clone(), 1);
        let a2 = ShardInstance::build(&cfg, 0, plan, 1);
        let seq = |s: &ShardInstance| {
            (0..32)
                .map(|_| s.injector().decide(OpClass::NandRead, 0))
                .collect::<Vec<_>>()
        };
        let (sa, sb, sa2) = (seq(&a), seq(&b), seq(&a2));
        assert_eq!(sa, sa2, "same device id => same schedule");
        assert_ne!(sa, sb, "different device ids => different schedules");
    }

    #[test]
    fn shard_clocks_are_independent() {
        let cfg = ClusterConfig::default();
        let a = ShardInstance::build(&cfg, 0, FaultPlan::none(), 1);
        let b = ShardInstance::build(&cfg, 1, FaultPlan::none(), 1);
        a.clock().advance(1_000_000);
        assert_eq!(a.clock().now_ns(), 1_000_000);
        assert_eq!(b.clock().now_ns(), 0, "shard B must not observe A's time");
    }

    #[test]
    fn health_cell_failover_cas_fires_once() {
        let h = HealthCell::new();
        assert!(h.begin_failover());
        assert!(!h.begin_failover(), "second detector must lose the race");
        assert_eq!(h.get(), ShardHealth::FailingOver);
        h.set(ShardHealth::Healthy);
        assert_eq!(h.bump_generation(), 1);
    }
}
