//! Typed command and response messages exchanged between the host client
//! library and the KV-CSD device.
//!
//! Commands map 1:1 to the paper's operational flow (Section V): keyspace
//! lifecycle, regular and bulk PUT, offloaded compaction, secondary-index
//! construction, and point/range queries over primary and secondary keys.

use crate::bulk::BulkPayload;
use crate::status::KvStatus;
use crate::KeyspaceId;

/// Fixed overhead of one NVMe command capsule on the wire, in bytes
/// (submission-queue entry size in NVMe is 64 B).
pub const CMD_HEADER_BYTES: u64 = 64;
/// Fixed overhead of one completion on the wire (CQ entry is 16 B).
pub const RESP_HEADER_BYTES: u64 = 16;

/// Identifier of an asynchronous device-side job (compaction, index build).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Lifecycle state of a device-side background job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    Pending,
    Running,
    Done,
    Failed(KvStatus),
}

impl JobState {
    /// True once the job has stopped, successfully or not.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed(_))
    }
}

/// Keyspace lifecycle states (Section IV of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyspaceState {
    /// Newly created, no data yet.
    Empty,
    /// Opened for writes; accepting PUTs.
    Writable,
    /// Compaction in flight; read-only, not yet queryable.
    Compacting,
    /// Sorted and indexed; queryable. Secondary indexes may be added.
    Compacted,
    /// A background job hit a persistent media error. The keyspace is not
    /// poisoned: its sealed logs remain intact, it stays deletable, and a
    /// new compaction may be requested to retry from them.
    Degraded,
    /// Zone/space exhaustion (or a background job dying on it) froze the
    /// keyspace: reads and scans keep serving wherever an index exists,
    /// writes fail fast with a typed error. A successful re-compaction or
    /// space reclaim transitions back to COMPACTING / COMPACTED.
    ReadOnly,
}

impl KeyspaceState {
    pub fn name(self) -> &'static str {
        match self {
            KeyspaceState::Empty => "EMPTY",
            KeyspaceState::Writable => "WRITABLE",
            KeyspaceState::Compacting => "COMPACTING",
            KeyspaceState::Compacted => "COMPACTED",
            KeyspaceState::Degraded => "DEGRADED",
            KeyspaceState::ReadOnly => "READ_ONLY",
        }
    }
}

/// One row of a ListKeyspaces response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyspaceDesc {
    pub id: KeyspaceId,
    pub name: String,
    pub state: KeyspaceState,
}

/// Metadata the keyspace manager tracks per keyspace.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyspaceStat {
    pub id: KeyspaceId,
    pub name: String,
    pub state: KeyspaceState,
    pub num_pairs: u64,
    pub min_key: Option<Vec<u8>>,
    pub max_key: Option<Vec<u8>>,
    pub secondary_indexes: Vec<String>,
    /// Bytes of raw key-value data stored in the keyspace.
    pub data_bytes: u64,
}

/// Range bound over byte-string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound {
    Unbounded,
    Included(Vec<u8>),
    Excluded(Vec<u8>),
}

impl Bound {
    /// True if `key` satisfies this bound interpreted as a *lower* bound.
    pub fn admits_from_below(&self, key: &[u8]) -> bool {
        match self {
            Bound::Unbounded => true,
            Bound::Included(b) => key >= b.as_slice(),
            Bound::Excluded(b) => key > b.as_slice(),
        }
    }

    /// True if `key` satisfies this bound interpreted as an *upper* bound.
    pub fn admits_from_above(&self, key: &[u8]) -> bool {
        match self {
            Bound::Unbounded => true,
            Bound::Included(b) => key <= b.as_slice(),
            Bound::Excluded(b) => key < b.as_slice(),
        }
    }

    fn wire_len(&self) -> u64 {
        match self {
            Bound::Unbounded => 0,
            Bound::Included(b) | Bound::Excluded(b) => b.len() as u64,
        }
    }
}

/// Element type of a secondary index key, as declared by the application.
///
/// The paper's example: "an application can request creating a secondary
/// index on the last 4 bytes of the values and have KV-CSD treat them as
/// 32-bit integers."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecondaryKeyType {
    U32,
    I32,
    U64,
    I64,
    F32,
    F64,
    /// Raw bytes compared lexicographically.
    Bytes,
}

impl SecondaryKeyType {
    /// Width in bytes of one key of this type, if fixed.
    pub fn width(self) -> Option<usize> {
        match self {
            SecondaryKeyType::U32 | SecondaryKeyType::I32 | SecondaryKeyType::F32 => Some(4),
            SecondaryKeyType::U64 | SecondaryKeyType::I64 | SecondaryKeyType::F64 => Some(8),
            SecondaryKeyType::Bytes => None,
        }
    }
}

/// A typed secondary-index key supplied in a query.
#[derive(Debug, Clone, PartialEq)]
pub enum SidxKey {
    U32(u32),
    I32(i32),
    U64(u64),
    I64(i64),
    F32(f32),
    F64(f64),
    Bytes(Vec<u8>),
}

impl SidxKey {
    /// Order-preserving byte encoding: for any two keys of the same type,
    /// `a < b` iff `a.encode() < b.encode()` lexicographically. Signed
    /// integers get a sign-bit flip; floats use the standard monotone
    /// IEEE-754 total-order mapping (negative values bit-inverted).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            SidxKey::Bytes(b) => b.clone(),
            fixed => fixed.encode_fixed(&mut [0; 8]).to_vec(),
        }
    }

    /// A fixed-width key's [`SidxKey::encode`] bytes, written into `buf`
    /// (empty for `Bytes`, which encodes as its own bytes).
    fn encode_fixed<'b>(&self, buf: &'b mut [u8; 8]) -> &'b [u8] {
        let mut put = |be: &[u8]| {
            buf[..be.len()].copy_from_slice(be);
            be.len()
        };
        let n = match *self {
            SidxKey::U32(v) => put(&v.to_be_bytes()),
            SidxKey::I32(v) => put(&((v as u32) ^ 0x8000_0000).to_be_bytes()),
            SidxKey::U64(v) => put(&v.to_be_bytes()),
            SidxKey::I64(v) => put(&((v as u64) ^ 0x8000_0000_0000_0000).to_be_bytes()),
            SidxKey::F32(v) => {
                let bits = v.to_bits();
                let mapped = if bits & 0x8000_0000 != 0 {
                    !bits
                } else {
                    bits | 0x8000_0000
                };
                put(&mapped.to_be_bytes())
            }
            SidxKey::F64(v) => {
                let bits = v.to_bits();
                let mapped = if bits & 0x8000_0000_0000_0000 != 0 {
                    !bits
                } else {
                    bits | 0x8000_0000_0000_0000
                };
                put(&mapped.to_be_bytes())
            }
            SidxKey::Bytes(_) => 0,
        };
        &buf[..n]
    }

    /// Decode raw little-endian value bytes (as applications lay out their
    /// records in memory) into a typed key, then use [`SidxKey::encode`]
    /// for the index representation.
    pub fn from_value_bytes(ty: SecondaryKeyType, raw: &[u8]) -> Option<SidxKey> {
        match ty {
            SecondaryKeyType::U32 => Some(SidxKey::U32(u32::from_le_bytes(raw.try_into().ok()?))),
            SecondaryKeyType::I32 => Some(SidxKey::I32(i32::from_le_bytes(raw.try_into().ok()?))),
            SecondaryKeyType::U64 => Some(SidxKey::U64(u64::from_le_bytes(raw.try_into().ok()?))),
            SecondaryKeyType::I64 => Some(SidxKey::I64(i64::from_le_bytes(raw.try_into().ok()?))),
            SecondaryKeyType::F32 => Some(SidxKey::F32(f32::from_le_bytes(raw.try_into().ok()?))),
            SecondaryKeyType::F64 => Some(SidxKey::F64(f64::from_le_bytes(raw.try_into().ok()?))),
            SecondaryKeyType::Bytes => Some(SidxKey::Bytes(raw.to_vec())),
        }
    }
}

/// Application-supplied description of a secondary index: which byte range
/// of each value holds the key, and how to interpret it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecondaryIndexSpec {
    /// Name used to reference the index in queries.
    pub name: String,
    /// Byte offset of the key within each value.
    pub value_offset: usize,
    /// Byte length of the key within each value.
    pub value_len: usize,
    /// How to interpret those bytes.
    pub key_type: SecondaryKeyType,
}

impl SecondaryIndexSpec {
    /// Extract the order-preserving encoded secondary key from a value.
    /// Returns `None` when the value is too short or the width mismatches.
    pub fn extract(&self, value: &[u8]) -> Option<Vec<u8>> {
        self.extract_into(value, &mut [0; 8]).map(<[u8]>::to_vec)
    }

    /// [`SecondaryIndexSpec::extract`] without an allocation: a
    /// fixed-width key is encoded into `buf`, a `Bytes` key is borrowed
    /// from `value` itself.
    pub fn extract_into<'a>(&self, value: &'a [u8], buf: &'a mut [u8; 8]) -> Option<&'a [u8]> {
        if let Some(w) = self.key_type.width() {
            if w != self.value_len {
                return None;
            }
        }
        let raw = value.get(self.value_offset..self.value_offset + self.value_len)?;
        match self.key_type {
            SecondaryKeyType::Bytes => Some(raw),
            ty => Some(SidxKey::from_value_bytes(ty, raw)?.encode_fixed(buf)),
        }
    }
}

/// A command capsule sent host -> device.
#[derive(Debug, Clone, PartialEq)]
pub enum KvCommand {
    /// Create a keyspace with a unique application-chosen name.
    CreateKeyspace { name: String },
    /// Delete a keyspace and free its zones.
    DeleteKeyspace { ks: KeyspaceId },
    /// Look up a keyspace by name.
    OpenKeyspace { name: String },
    /// Enumerate live keyspaces.
    ListKeyspaces,
    /// Insert a single key-value pair.
    Put {
        ks: KeyspaceId,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    /// Insert a packed batch of pairs in one 128 KB-class message.
    BulkPut {
        ks: KeyspaceId,
        payload: BulkPayload,
    },
    /// Explicit fsync: make the keyspace's buffered writes durable via
    /// the device WAL (no-op when the WAL is disabled).
    Flush { ks: KeyspaceId },
    /// Start offloaded compaction (sort + primary index build).
    Compact { ks: KeyspaceId },
    /// Start offloaded compaction that also builds the given secondary
    /// indexes in the same data pass (single-step index construction; the
    /// device falls back to separated construction when SoC DRAM is
    /// tight).
    CompactAndIndex {
        ks: KeyspaceId,
        specs: Vec<SecondaryIndexSpec>,
    },
    /// Start offloaded secondary-index construction.
    BuildSecondaryIndex {
        ks: KeyspaceId,
        spec: SecondaryIndexSpec,
    },
    /// Poll an asynchronous job.
    PollJob { job: JobId },
    /// Point query over the primary key.
    Get { ks: KeyspaceId, key: Vec<u8> },
    /// Range query over the primary key.
    Range {
        ks: KeyspaceId,
        lo: Bound,
        hi: Bound,
        limit: Option<u64>,
    },
    /// Point query over a secondary index (returns full records).
    SidxGet {
        ks: KeyspaceId,
        index: String,
        key: SidxKey,
    },
    /// Range query over a secondary index (returns full records).
    SidxRange {
        ks: KeyspaceId,
        index: String,
        lo: Bound,
        hi: Bound,
        limit: Option<u64>,
    },
    /// Fetch keyspace metadata.
    Stat { ks: KeyspaceId },
    /// Attach a completion deadline (absolute sim-clock nanoseconds) to
    /// the wrapped command. The device checks the deadline at admission
    /// and at background-job step boundaries; expired work returns
    /// [`KvStatus::DeadlineExceeded`] and unwinds through the idempotent
    /// seal path.
    WithDeadline {
        deadline_ns: u64,
        cmd: Box<KvCommand>,
    },
}

impl KvCommand {
    /// Bytes this command occupies on the PCIe bus (capsule + payload).
    pub fn wire_size(&self) -> u64 {
        CMD_HEADER_BYTES
            + match self {
                KvCommand::CreateKeyspace { name } | KvCommand::OpenKeyspace { name } => {
                    name.len() as u64
                }
                KvCommand::DeleteKeyspace { .. }
                | KvCommand::ListKeyspaces
                | KvCommand::Flush { .. }
                | KvCommand::Compact { .. }
                | KvCommand::PollJob { .. }
                | KvCommand::Stat { .. } => 0,
                KvCommand::Put { key, value, .. } => (key.len() + value.len()) as u64,
                KvCommand::BulkPut { payload, .. } => payload.wire_bytes() as u64,
                KvCommand::BuildSecondaryIndex { spec, .. } => spec.name.len() as u64 + 16,
                KvCommand::CompactAndIndex { specs, .. } => {
                    specs.iter().map(|s| s.name.len() as u64 + 16).sum()
                }
                KvCommand::Get { key, .. } => key.len() as u64,
                KvCommand::Range { lo, hi, .. } => lo.wire_len() + hi.wire_len(),
                KvCommand::SidxGet { index, key, .. } => {
                    index.len() as u64 + key.encode().len() as u64
                }
                KvCommand::SidxRange { index, lo, hi, .. } => {
                    index.len() as u64 + lo.wire_len() + hi.wire_len()
                }
                // The deadline rides in the capsule header's otherwise
                // unused dwords plus an 8-byte timestamp; the inner
                // command's header is not re-sent.
                KvCommand::WithDeadline { cmd, .. } => 8 + cmd.wire_size() - CMD_HEADER_BYTES,
            }
    }

    /// The innermost command, stripped of any [`KvCommand::WithDeadline`]
    /// wrappers, along with the tightest (smallest) deadline found.
    pub fn unwrap_deadline(self) -> (Option<u64>, KvCommand) {
        let mut deadline: Option<u64> = None;
        let mut cmd = self;
        while let KvCommand::WithDeadline {
            deadline_ns,
            cmd: inner,
        } = cmd
        {
            deadline = Some(deadline.map_or(deadline_ns, |d: u64| d.min(deadline_ns)));
            cmd = *inner;
        }
        (deadline, cmd)
    }
}

/// A completion capsule sent device -> host.
#[derive(Debug, Clone, PartialEq)]
pub enum KvResponse {
    /// Keyspace created.
    Created { ks: KeyspaceId },
    /// Keyspace opened.
    Opened {
        ks: KeyspaceId,
        state: KeyspaceState,
    },
    /// Keyspace deleted.
    Deleted,
    /// Keyspace listing.
    Keyspaces(Vec<KeyspaceDesc>),
    /// PUT acknowledged.
    PutOk,
    /// Bulk PUT acknowledged with the number of pairs inserted.
    BulkPutOk { inserted: u64 },
    /// Explicit fsync acknowledged; buffered writes are durable.
    Flushed,
    /// Asynchronous job accepted.
    JobStarted { job: JobId },
    /// Job status in response to a poll.
    Job { state: JobState },
    /// Point-query result.
    Value(Vec<u8>),
    /// Range / secondary query result set (key, value) in key order.
    Entries(Vec<(Vec<u8>, Vec<u8>)>),
    /// Keyspace metadata.
    Stat(KeyspaceStat),
    /// Command failed.
    Err(KvStatus),
}

impl KvResponse {
    /// Bytes this response occupies on the PCIe bus (completion + payload).
    /// Query responses carry only *results* — this is the data-movement
    /// asymmetry at the heart of the paper's query speedups.
    pub fn wire_size(&self) -> u64 {
        RESP_HEADER_BYTES
            + match self {
                KvResponse::Created { .. }
                | KvResponse::Opened { .. }
                | KvResponse::Deleted
                | KvResponse::PutOk
                | KvResponse::BulkPutOk { .. }
                | KvResponse::Flushed
                | KvResponse::JobStarted { .. }
                | KvResponse::Job { .. }
                | KvResponse::Err(_) => 0,
                KvResponse::Keyspaces(list) => list.iter().map(|d| d.name.len() as u64 + 8).sum(),
                KvResponse::Value(v) => v.len() as u64,
                KvResponse::Entries(es) => {
                    es.iter().map(|(k, v)| (k.len() + v.len()) as u64 + 8).sum()
                }
                KvResponse::Stat(_) => 64,
            }
    }

    /// Convenience: view this response as a `Result`.
    pub fn into_result(self) -> Result<KvResponse, KvStatus> {
        match self {
            KvResponse::Err(e) => Err(e),
            ok => Ok(ok),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_admit_correctly() {
        let lo = Bound::Included(vec![5]);
        assert!(lo.admits_from_below(&[5]));
        assert!(lo.admits_from_below(&[6]));
        assert!(!lo.admits_from_below(&[4]));
        let lo_x = Bound::Excluded(vec![5]);
        assert!(!lo_x.admits_from_below(&[5]));
        assert!(lo_x.admits_from_below(&[6]));
        let hi = Bound::Included(vec![9]);
        assert!(hi.admits_from_above(&[9]));
        assert!(!hi.admits_from_above(&[10]));
        let hi_x = Bound::Excluded(vec![9]);
        assert!(!hi_x.admits_from_above(&[9]));
        assert!(hi_x.admits_from_above(&[8]));
        assert!(Bound::Unbounded.admits_from_below(&[0]));
        assert!(Bound::Unbounded.admits_from_above(&[255; 8]));
    }

    #[test]
    fn sidx_u32_encoding_preserves_order() {
        let vals = [0u32, 1, 7, 100, u32::MAX / 2, u32::MAX];
        for w in vals.windows(2) {
            assert!(SidxKey::U32(w[0]).encode() < SidxKey::U32(w[1]).encode());
        }
    }

    #[test]
    fn sidx_i32_encoding_preserves_order() {
        let vals = [i32::MIN, -100, -1, 0, 1, 100, i32::MAX];
        for w in vals.windows(2) {
            assert!(SidxKey::I32(w[0]).encode() < SidxKey::I32(w[1]).encode());
        }
    }

    #[test]
    fn sidx_i64_encoding_preserves_order() {
        let vals = [i64::MIN, -5_000_000_000, -1, 0, 1, 5_000_000_000, i64::MAX];
        for w in vals.windows(2) {
            assert!(SidxKey::I64(w[0]).encode() < SidxKey::I64(w[1]).encode());
        }
    }

    #[test]
    fn sidx_f32_encoding_preserves_order() {
        let vals = [
            f32::NEG_INFINITY,
            -1e30,
            -1.5,
            -0.0,
            0.0,
            1e-10,
            2.5,
            1e30,
            f32::INFINITY,
        ];
        for w in vals.windows(2) {
            let (a, b) = (SidxKey::F32(w[0]).encode(), SidxKey::F32(w[1]).encode());
            if w[0] == w[1] {
                // -0.0 and 0.0 may order arbitrarily between themselves;
                // both encodings must still be adjacent/equal-comparable.
                continue;
            }
            assert!(a < b, "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn sidx_f64_encoding_preserves_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            0.0,
            3.25,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(SidxKey::F64(w[0]).encode() < SidxKey::F64(w[1]).encode());
        }
    }

    #[test]
    fn from_value_bytes_roundtrip() {
        let raw = 12345.678f32.to_le_bytes();
        match SidxKey::from_value_bytes(SecondaryKeyType::F32, &raw) {
            Some(SidxKey::F32(v)) => assert_eq!(v, 12345.678),
            other => panic!("{other:?}"),
        }
        assert!(SidxKey::from_value_bytes(SecondaryKeyType::F32, &[0u8; 3]).is_none());
    }

    #[test]
    fn spec_extracts_paper_example() {
        // "create a secondary index on the last 4 bytes of the values and
        //  have KV-CSD treat them as 32-bit integers"
        let spec = SecondaryIndexSpec {
            name: "tail-int".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::I32,
        };
        let mut value = vec![0u8; 32];
        value[28..].copy_from_slice(&(-7i32).to_le_bytes());
        let enc = spec.extract(&value).unwrap();
        assert_eq!(enc, SidxKey::I32(-7).encode());
    }

    #[test]
    fn extract_into_borrows_what_extract_copies() {
        use SecondaryKeyType::*;
        let value: Vec<u8> = (0..24u8).map(|b| b.wrapping_mul(37)).collect();
        for (ty, len) in [
            (U32, 4),
            (I32, 4),
            (F32, 4),
            (U64, 8),
            (I64, 8),
            (F64, 8),
            (Bytes, 0),
            (Bytes, 5),
            (Bytes, 11),
        ] {
            let spec = SecondaryIndexSpec {
                name: "x".into(),
                value_offset: 3,
                value_len: len,
                key_type: ty,
            };
            let raw = &value[3..3 + len];
            let want = SidxKey::from_value_bytes(ty, raw).unwrap().encode();
            let mut buf = [0u8; 8];
            assert_eq!(
                spec.extract_into(&value, &mut buf),
                Some(&want[..]),
                "{ty:?}"
            );
            assert_eq!(spec.extract(&value), Some(want), "{ty:?}");
        }
    }

    #[test]
    fn spec_rejects_out_of_bounds_and_bad_width() {
        let spec = SecondaryIndexSpec {
            name: "x".into(),
            value_offset: 30,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        };
        assert!(spec.extract(&[0u8; 32]).is_none()); // 30+4 > 32
        let bad_width = SecondaryIndexSpec {
            name: "x".into(),
            value_offset: 0,
            value_len: 3,
            key_type: SecondaryKeyType::U32,
        };
        assert!(bad_width.extract(&[0u8; 32]).is_none());
    }

    #[test]
    fn wire_sizes_reflect_payloads() {
        let get = KvCommand::Get {
            ks: 1,
            key: vec![0; 16],
        };
        assert_eq!(get.wire_size(), CMD_HEADER_BYTES + 16);
        let put = KvCommand::Put {
            ks: 1,
            key: vec![0; 16],
            value: vec![0; 32],
        };
        assert_eq!(put.wire_size(), CMD_HEADER_BYTES + 48);
        let resp = KvResponse::Value(vec![0; 32]);
        assert_eq!(resp.wire_size(), RESP_HEADER_BYTES + 32);
        let empty = KvResponse::PutOk;
        assert_eq!(empty.wire_size(), RESP_HEADER_BYTES);
        // A deadline costs 8 bytes on the wire, not a second capsule.
        let deadlined = KvCommand::WithDeadline {
            deadline_ns: 1_000_000,
            cmd: Box::new(KvCommand::Get {
                ks: 1,
                key: vec![0; 16],
            }),
        };
        assert_eq!(deadlined.wire_size(), CMD_HEADER_BYTES + 16 + 8);
    }

    #[test]
    fn unwrap_deadline_strips_wrappers_and_keeps_the_tightest() {
        let plain = KvCommand::ListKeyspaces;
        assert_eq!(plain.clone().unwrap_deadline(), (None, plain));
        let nested = KvCommand::WithDeadline {
            deadline_ns: 500,
            cmd: Box::new(KvCommand::WithDeadline {
                deadline_ns: 200,
                cmd: Box::new(KvCommand::ListKeyspaces),
            }),
        };
        assert_eq!(
            nested.unwrap_deadline(),
            (Some(200), KvCommand::ListKeyspaces)
        );
    }

    #[test]
    fn entries_response_counts_all_records() {
        let es = vec![(vec![1u8; 16], vec![2u8; 32]); 10];
        let r = KvResponse::Entries(es);
        assert_eq!(r.wire_size(), RESP_HEADER_BYTES + 10 * (16 + 32 + 8));
    }

    #[test]
    fn job_state_terminality() {
        assert!(!JobState::Pending.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed(KvStatus::DeviceFull).is_terminal());
    }

    #[test]
    fn into_result_maps_errors() {
        assert!(KvResponse::PutOk.into_result().is_ok());
        assert_eq!(
            KvResponse::Err(KvStatus::KeyNotFound).into_result(),
            Err(KvStatus::KeyNotFound)
        );
    }
}
