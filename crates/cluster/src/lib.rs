//! A sharded multi-device KV-CSD cluster with replication and failover.
//!
//! The single-device crates reproduce the paper's prototype; the ROADMAP
//! north star is a production-scale deployment, and this crate models its
//! first structural step: **N independent simulated KV-CSD instances
//! behind a host-side router**. ZCSD motivates treating computational
//! storage devices as independently-failing instances; Vardoulakis et al.
//! supply the replication shape — ship the *built* indexes (and the
//! sealed logs that precede them), never a write stream, so a replica is
//! promoted by installing artifacts rather than re-doing compaction work.
//!
//! The moving parts:
//!
//! * [`ShardStrategy`] — hash- or range-partitions every keyspace's keys
//!   across the shards; each cluster-level keyspace exists on every
//!   device under the same name.
//! * [`ClusterRouter`] — implements [`kvcsd_proto::DeviceHandler`], so
//!   the ordinary `kvcsd-client` sessions work unchanged against a whole
//!   fleet (routed sessions). Point ops go to the owning shard; RANGE and
//!   SIDX queries scatter-gather and merge in (secondary-)key order.
//! * [`replica::ReplicaLog`] — the sealed-artifact log a primary ships to
//!   its designated peer over a ledger-charged [`kvcsd_sim::BusResource`].
//! * Failover — when the fault injector kills a primary (including
//!   mid-compaction, which the idempotent seal makes safe), the router
//!   promotes a replacement from the replica log and replays it; every
//!   *sealed-and-shipped* write remains readable. Clients see one
//!   [`kvcsd_proto::KvStatus::FailoverInProgress`] bounce and their
//!   immediate resend lands on the promoted replica.
//!
//! Each shard runs its own virtual clock, ledger and fault injector:
//! a stalled or dead shard charges time only to commands routed at its
//! keyspace ranges, never to the rest of the fleet. All router/replica
//! shared state uses the `kvcsd_sim::sync` shims, so lockdep and the
//! happens-before race detector cover the cluster layer from day one.
//!
//! Durability contract (DESIGN.md §12): a PUT ack means device-buffered
//! (volatile, as on the single device); a COMPACT ack means sealed on the
//! primary *and* shipped to the replica log; artifacts in the replica log
//! survive any single-device death.
//!
//! `tests/partition.rs` samples the link-fault guarantees under seeded
//! fault draws; `tests/mc.rs` drives this router through every scripted
//! replication-link decision sequence to a depth bound (kvcsd-mc's
//! network explorer) and checks each run against the client contract.

#![warn(clippy::unwrap_used, clippy::expect_used)]

mod merge;
pub mod replica;
pub mod router;
pub mod shard;

pub use replica::{ReplicaLog, ShipError, ShipOutcome, ShipPolicy};
pub use router::{ClusterRouter, FailoverEvent};
pub use shard::{ShardHealth, ShardInstance};

use kvcsd_core::DeviceConfig;
use kvcsd_flash::{FlashGeometry, ZnsConfig};
use kvcsd_sim::fault::FaultPlan;
use kvcsd_sim::BusConfig;

/// How keys are partitioned across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStrategy {
    /// FNV-1a hash of the key, modulo the shard count. Spreads any
    /// keyspace uniformly; range queries always touch every shard.
    HashKeys,
    /// Split points dividing the key space into contiguous runs: keys
    /// below `boundaries[0]` go to shard 0, and so on. Requires exactly
    /// `shards - 1` boundaries; the router prunes a range query to the
    /// covering shards, whose per-shard results stay contiguous.
    RangeKeys { boundaries: Vec<Vec<u8>> },
}

impl ShardStrategy {
    /// The shard owning `key` in an `n`-shard cluster.
    pub fn shard_for(&self, key: &[u8], n: u32) -> u32 {
        match self {
            ShardStrategy::HashKeys => {
                let mut h = 0xCBF2_9CE4_8422_2325u64;
                for &b in key {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1_0000_01B3);
                }
                (h % n as u64) as u32
            }
            ShardStrategy::RangeKeys { boundaries } => {
                (boundaries.partition_point(|b| b.as_slice() <= key) as u32).min(n - 1)
            }
        }
    }
}

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shards (device instances). Each gets its own NAND array,
    /// ZNS namespace, ledger, clock and fault injector.
    pub shards: u32,
    pub strategy: ShardStrategy,
    /// Ship sealed artifacts to a replica log and promote on failure.
    /// When off, a dead primary makes its shard `ShardUnavailable`.
    pub replicate: bool,
    /// Fabric constants for every shard's replication channel.
    pub bus: BusConfig,
    /// Per-device flash geometry.
    pub geometry: FlashGeometry,
    pub zns: ZnsConfig,
    /// Per-device configuration; each shard clones this (the router
    /// installs a per-shard clock on top).
    pub device: DeviceConfig,
    /// One declarative fault plan for the whole fleet. Shard `i`'s
    /// injector is built from `plan.for_device(i)` and its replication
    /// link's from `plan.for_link(i)`, so per-shard device *and* link
    /// failure schedules are deterministic and distinct under one seed —
    /// and independent of each other (the link lane draws from its own
    /// generator, so enabling link faults never perturbs device faults).
    pub fault_plan: FaultPlan,
    /// Stop-and-wait retry discipline for every replication ship.
    pub ship: ShipPolicy,
    /// When a seal-time ship exhausts its retry budget (the replication
    /// link looks down), depose the primary as *suspected* — promote the
    /// replica side under a freshly minted fencing epoch — instead of
    /// acking without replica durability. The deposed instance is kept
    /// around (it is not dead hardware) and every ack or ship it attempts
    /// is rejected at the epoch fence, so at most one primary acks per
    /// epoch even while both sides of a partition keep executing.
    ///
    /// When off, the seal bounces with a retryable error, the shard keeps
    /// its primary, and anti-entropy reconciliation re-ships the gap
    /// after the partition heals (availability over replica durability).
    pub partition_failover: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            shards: 3,
            strategy: ShardStrategy::HashKeys,
            replicate: true,
            bus: BusConfig::default(),
            geometry: FlashGeometry {
                channels: 8,
                blocks_per_channel: 256,
                pages_per_block: 16,
                page_bytes: 4096,
            },
            zns: ZnsConfig::default(),
            device: DeviceConfig {
                cluster_width: 8,
                soc_dram_bytes: 8 << 20,
                ..DeviceConfig::default()
            },
            fault_plan: FaultPlan::none(),
            ship: ShipPolicy::default(),
            partition_failover: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_sharding_is_deterministic_and_covers_all_shards() {
        let s = ShardStrategy::HashKeys;
        let mut hit = [false; 4];
        for i in 0..200u32 {
            let key = format!("key-{i:08}");
            let a = s.shard_for(key.as_bytes(), 4);
            assert_eq!(a, s.shard_for(key.as_bytes(), 4));
            hit[a as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "200 keys must touch all 4 shards");
    }

    #[test]
    fn range_sharding_respects_boundaries() {
        let s = ShardStrategy::RangeKeys {
            boundaries: vec![b"g".to_vec(), b"p".to_vec()],
        };
        assert_eq!(s.shard_for(b"apple", 3), 0);
        assert_eq!(s.shard_for(b"g", 3), 1, "boundary key goes right");
        assert_eq!(s.shard_for(b"melon", 3), 1);
        assert_eq!(s.shard_for(b"zebra", 3), 2);
    }
}
