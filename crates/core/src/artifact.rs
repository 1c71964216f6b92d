//! Replication artifacts: sealed index/block state exported for shipping.
//!
//! The cluster layer replicates *artifacts*, not writes. A shard's
//! primary exports the durable by-products of its own work — sealed
//! KLOG/VLOG pairs the moment a compaction starts, and the built
//! primary/secondary indexes once it finishes — and ships them to a
//! replica device, which installs them verbatim. The replica never
//! re-sorts and never re-extracts secondary keys; this is the
//! index-replication argument of Vardoulakis et al. applied to KV-CSD's
//! in-storage builds, and it is what makes failover cheap: promotion is
//! "install the latest artifact per keyspace, re-run at most one
//! compaction", not "replay a write stream".
//!
//! The types here are the in-memory form. The wire envelope
//! ([`kvcsd_proto::ReplicaShip`]) frames [`KeyspaceArtifacts::wire_bytes`]
//! on the replication bus; export/import live on
//! [`crate::device::KvCsdDevice`] because they touch keyspace-table and
//! zone-manager internals.

use kvcsd_proto::{SecondaryIndexSpec, ShipKind};

/// One built index, primary or secondary: its raw blocks and its sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexArtifact {
    /// The index blocks, concatenated (length = blocks × 4 KiB).
    pub data: Vec<u8>,
    /// Sketch pivots (first key of each index block).
    pub pivots: Vec<Vec<u8>>,
}

impl IndexArtifact {
    /// Bytes on the bus: the blocks plus each pivot and its length.
    fn wire_bytes(&self) -> usize {
        self.data.len() + self.pivots.iter().map(|p| p.len() + 4).sum::<usize>()
    }
}

/// One secondary index, fully built: spec, entry count and the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SidxArtifact {
    pub spec: SecondaryIndexSpec,
    pub entries: u64,
    pub index: IndexArtifact,
}

/// What was exported, by compaction phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactPayload {
    /// The sealed write logs of a keyspace whose compaction has not
    /// finished. Every acked-and-sealed pair is in here; the importer
    /// installs them DEGRADED and re-runs compaction locally.
    SealedLogs { klog: Vec<u8>, vlog: Vec<u8> },
    /// The finished product: the primary index, sorted values, and every
    /// built secondary index. Installed verbatim as COMPACTED — the
    /// importer does no sorting at all.
    Compacted {
        pidx: IndexArtifact,
        /// Sorted value log (exact byte length).
        svalues: Vec<u8>,
        sidx: Vec<SidxArtifact>,
    },
}

/// Everything a replica needs to serve one keyspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyspaceArtifacts {
    pub name: String,
    pub pairs: u64,
    pub data_bytes: u64,
    pub min_key: Option<Vec<u8>>,
    pub max_key: Option<Vec<u8>>,
    pub payload: ArtifactPayload,
}

impl KeyspaceArtifacts {
    /// The [`kvcsd_proto::ShipKind`] this payload frames as on the bus.
    pub fn ship_kind(&self) -> ShipKind {
        match self.payload {
            ArtifactPayload::SealedLogs { .. } => ShipKind::SealedLogs,
            ArtifactPayload::Compacted { .. } => ShipKind::Compacted,
        }
    }

    /// Payload bytes that cross the replication bus (data blocks plus
    /// pivot/spec metadata; the envelope header is counted by
    /// [`kvcsd_proto::ReplicaShip::wire_size`]).
    pub fn wire_bytes(&self) -> u64 {
        let keys = self.min_key.as_ref().map_or(0, |k| k.len())
            + self.max_key.as_ref().map_or(0, |k| k.len());
        let payload = match &self.payload {
            ArtifactPayload::SealedLogs { klog, vlog } => klog.len() + vlog.len(),
            ArtifactPayload::Compacted {
                pidx,
                svalues,
                sidx,
            } => {
                pidx.wire_bytes()
                    + svalues.len()
                    + sidx
                        .iter()
                        .map(|s| s.index.wire_bytes() + s.spec.name.len() + 16)
                        .sum::<usize>()
            }
        };
        (keys + payload) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(name: &str, klog: usize, vlog: usize) -> KeyspaceArtifacts {
        KeyspaceArtifacts {
            name: name.into(),
            pairs: 10,
            data_bytes: (klog + vlog) as u64,
            min_key: Some(b"a".to_vec()),
            max_key: Some(b"z".to_vec()),
            payload: ArtifactPayload::SealedLogs {
                klog: vec![0; klog],
                vlog: vec![0; vlog],
            },
        }
    }

    #[test]
    fn ship_kind_matches_payload() {
        assert_eq!(sealed("a", 1, 1).ship_kind(), ShipKind::SealedLogs);
        let built = KeyspaceArtifacts {
            payload: ArtifactPayload::Compacted {
                pidx: IndexArtifact {
                    data: vec![0; 4096],
                    pivots: vec![b"a".to_vec()],
                },
                svalues: vec![0; 100],
                sidx: vec![],
            },
            ..sealed("a", 0, 0)
        };
        assert_eq!(built.ship_kind(), ShipKind::Compacted);
    }

    #[test]
    fn wire_bytes_counts_every_data_byte() {
        let a = sealed("events", 4096, 8192);
        // min/max keys (2) + klog + vlog.
        assert_eq!(a.wire_bytes(), 2 + 4096 + 8192);
    }
}
