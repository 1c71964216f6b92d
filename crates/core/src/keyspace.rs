//! The keyspace manager: named key-value containers and their lifecycle.
//!
//! "Each keyspace in KV-CSD can exist in one of the following four
//! states: EMPTY, WRITABLE, COMPACTING, and COMPACTED. ... The keyspace
//! manager keeps track of the state and other metadata information (such
//! as the number of key-value pairs, the minimum and the maximum keys,
//! and the zone mapping information) of all live keyspaces. It does so by
//! maintaining an in-memory keyspace table backed by a metadata zone in
//! the underlying ZNS SSD for data persistence." (Section IV)
//!
//! Sketches — "a pivot primary index key and a block pointer for every
//! constituent PIDX data block" — live here too, as keyspace metadata.

use std::collections::{BTreeMap, HashMap};

use kvcsd_proto::{KeyspaceState, SecondaryIndexSpec};
use kvcsd_sim::sync::Mutex;

use crate::error::DeviceError;
use crate::ingest::WriteLog;
use crate::zone_mgr::ClusterId;
use crate::Result;

/// Block-level index sketch: the first (pivot) key of every 4 KiB block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sketch {
    pivots: Vec<Vec<u8>>,
}

impl Sketch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record block `i`'s pivot; blocks must be pushed in order.
    pub fn push(&mut self, pivot: Vec<u8>) {
        debug_assert!(self.pivots.last().is_none_or(|p| p <= &pivot));
        self.pivots.push(pivot);
    }

    /// Rebuild a sketch from persisted pivots (snapshot restore).
    pub fn from_pivots(pivots: Vec<Vec<u8>>) -> Self {
        debug_assert!(pivots.windows(2).all(|w| w[0] <= w[1]));
        Self { pivots }
    }

    /// The pivot keys, one per block (snapshot serialization).
    pub fn pivots(&self) -> &[Vec<u8>] {
        &self.pivots
    }

    /// Number of blocks covered.
    pub fn blocks(&self) -> u32 {
        self.pivots.len() as u32
    }

    pub fn is_empty(&self) -> bool {
        self.pivots.is_empty()
    }

    /// Approximate in-memory footprint (for DRAM accounting).
    pub fn approx_bytes(&self) -> u64 {
        self.pivots.iter().map(|p| p.len() as u64 + 24).sum()
    }

    /// Block where a search for `key` must start: the last block whose
    /// pivot is <= `key` (or block 0 when `key` precedes every pivot —
    /// the caller's scan will simply start at the beginning).
    pub fn locate(&self, key: &[u8]) -> Option<u32> {
        if self.pivots.is_empty() {
            return None;
        }
        let ix = self.pivots.partition_point(|p| p.as_slice() <= key);
        Some(ix.saturating_sub(1) as u32)
    }

    /// Block where a scan for entries `>= key` must start when keys may
    /// repeat across blocks (secondary indexes): the last block whose
    /// pivot is < `key`, since entries equal to `key` can end that block
    /// (or block 0 when no pivot precedes `key`).
    pub fn locate_first(&self, key: &[u8]) -> Option<u32> {
        if self.pivots.is_empty() {
            return None;
        }
        let ix = self.pivots.partition_point(|p| p.as_slice() < key);
        Some(ix.saturating_sub(1) as u32)
    }

    /// Number of pivot comparisons a binary search performs (for cost
    /// charging).
    pub fn search_cost(&self) -> f64 {
        (self.pivots.len().max(2) as f64).log2()
    }
}

/// A built secondary index attached to a COMPACTED keyspace.
#[derive(Debug)]
pub struct SecondaryIndex {
    pub spec: SecondaryIndexSpec,
    pub cluster: ClusterId,
    pub blocks: u32,
    pub sketch: Sketch,
    pub entries: u64,
}

/// Per-keyspace storage attachments, by lifecycle phase.
#[derive(Debug, Default)]
pub struct KsStorage {
    /// WRITABLE phase: live write log (owns KLOG/VLOG writers).
    pub wlog: Option<WriteLog>,
    /// WRITABLE phase with WAL enabled: the device write-ahead log.
    pub dwal: Option<crate::wal::DeviceWal>,
    /// COMPACTING/COMPACTED: sealed log clusters and their byte lengths.
    pub klog: Option<(ClusterId, u64)>,
    pub vlog: Option<(ClusterId, u64)>,
    /// COMPACTED: primary index and sorted values.
    pub pidx: Option<(ClusterId, u32)>,
    pub pidx_sketch: Sketch,
    pub svalues: Option<(ClusterId, u64)>,
    /// COMPACTED: secondary indexes by name.
    pub sidx: BTreeMap<String, SecondaryIndex>,
}

impl KsStorage {
    /// Every cluster these attachments hold, write-log phase first.
    pub fn clusters(&self) -> Vec<ClusterId> {
        let wlog = self
            .wlog
            .iter()
            .flat_map(|w| [w.klog.cluster(), w.vlog.cluster()]);
        let sealed = [self.klog.map(|c| c.0), self.vlog.map(|c| c.0)];
        let compacted = [self.pidx.map(|c| c.0), self.svalues.map(|c| c.0)];
        wlog.chain(self.dwal.as_ref().map(|w| w.cluster()))
            .chain(sealed.into_iter().chain(compacted).flatten())
            .chain(self.sidx.values().map(|i| i.cluster))
            .collect()
    }
}

/// One keyspace's full record in the keyspace table.
#[derive(Debug)]
pub struct Keyspace {
    pub id: u32,
    pub name: String,
    pub state: KeyspaceState,
    pub pairs: u64,
    pub data_bytes: u64,
    pub min_key: Option<Vec<u8>>,
    pub max_key: Option<Vec<u8>>,
    pub storage: KsStorage,
}

impl Keyspace {
    /// A fresh EMPTY keyspace record (public for snapshot restore).
    pub fn new(id: u32, name: String) -> Self {
        Self {
            id,
            name,
            state: KeyspaceState::Empty,
            pairs: 0,
            data_bytes: 0,
            min_key: None,
            max_key: None,
            storage: KsStorage::default(),
        }
    }

    /// The single checkpoint through which every keyspace state change
    /// flows: checks the edge against
    /// [`crate::lifecycle::KEYSPACE_TRANSITIONS`] and rejects illegal
    /// ones without moving the state.
    pub fn transition_to(&mut self, to: KeyspaceState) -> Result<()> {
        match crate::lifecycle::KEYSPACE_TRANSITIONS.check(self.state, to) {
            Ok(()) => {
                self.state = to;
                Ok(())
            }
            Err(_) => Err(DeviceError::IllegalTransition {
                machine: "keyspace",
                from: self.state.name(),
                to: to.name(),
            }),
        }
    }

    /// Guard: error unless the keyspace is in `expect`.
    pub fn require_state(&self, expect: KeyspaceState, op: &'static str) -> Result<()> {
        if self.state != expect {
            return Err(DeviceError::BadState {
                state: self.state.name(),
                op,
            });
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct KmInner {
    by_id: HashMap<u32, Keyspace>,
    by_name: HashMap<String, u32>,
    next_id: u32,
}

/// The in-memory keyspace table. Persistence lives one level up: the
/// device serializes the whole table (plus zone-manager state) into the
/// metadata zone after every table mutation — see `crate::snapshot`.
#[derive(Debug, Default)]
pub struct KeyspaceManager {
    inner: Mutex<KmInner>,
}

impl KeyspaceManager {
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(KmInner {
                by_id: HashMap::new(),
                by_name: HashMap::new(),
                next_id: 1,
            }),
        }
    }

    /// Create a keyspace; name must be unique.
    pub fn create(&self, name: &str) -> Result<u32> {
        let mut inner = self.inner.lock();
        if inner.by_name.contains_key(name) {
            return Err(DeviceError::KeyspaceExists);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.by_name.insert(name.to_string(), id);
        inner.by_id.insert(id, Keyspace::new(id, name.to_string()));
        Ok(id)
    }

    /// Reinstall a keyspace record during snapshot restore.
    pub fn insert_restored(&self, ks: Keyspace) {
        let mut inner = self.inner.lock();
        inner.next_id = inner.next_id.max(ks.id + 1);
        inner.by_name.insert(ks.name.clone(), ks.id);
        inner.by_id.insert(ks.id, ks);
    }

    /// Look up a keyspace id by name.
    pub fn lookup(&self, name: &str) -> Result<u32> {
        self.inner
            .lock()
            .by_name
            .get(name)
            .copied()
            .ok_or(DeviceError::KeyspaceNotFound)
    }

    /// Remove a keyspace from the table, returning its record (the caller
    /// releases its clusters).
    pub fn remove(&self, id: u32) -> Result<Keyspace> {
        let ks = {
            let mut inner = self.inner.lock();
            let ks = inner
                .by_id
                .remove(&id)
                .ok_or(DeviceError::KeyspaceNotFound)?;
            inner.by_name.remove(&ks.name);
            ks
        };
        Ok(ks)
    }

    /// Run `f` with mutable access to a keyspace record.
    pub fn with_mut<T>(&self, id: u32, f: impl FnOnce(&mut Keyspace) -> Result<T>) -> Result<T> {
        let mut inner = self.inner.lock();
        let ks = inner
            .by_id
            .get_mut(&id)
            .ok_or(DeviceError::KeyspaceNotFound)?;
        f(ks)
    }

    /// Run `f` with shared access to a keyspace record.
    pub fn with<T>(&self, id: u32, f: impl FnOnce(&Keyspace) -> Result<T>) -> Result<T> {
        let inner = self.inner.lock();
        let ks = inner.by_id.get(&id).ok_or(DeviceError::KeyspaceNotFound)?;
        f(ks)
    }

    /// Enumerate `(id, name, state)` of all live keyspaces, by id.
    pub fn list(&self) -> Vec<(u32, String, KeyspaceState)> {
        let inner = self.inner.lock();
        let mut v: Vec<_> = inner
            .by_id
            .values()
            .map(|k| (k.id, k.name.clone(), k.state))
            .collect();
        v.sort_by_key(|e| e.0);
        v
    }

    /// Number of live keyspaces.
    pub fn len(&self) -> usize {
        self.inner.lock().by_id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of all live keyspaces (used when building snapshots).
    pub fn ids(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.inner.lock().by_id.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Run `f` over all keyspace records (sorted by id) under the table
    /// lock — the snapshot-serialization entry point.
    pub fn with_all<T>(&self, f: impl FnOnce(&[&Keyspace]) -> T) -> T {
        let inner = self.inner.lock();
        let mut refs: Vec<&Keyspace> = inner.by_id.values().collect();
        refs.sort_by_key(|k| k.id);
        f(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn km() -> KeyspaceManager {
        KeyspaceManager::new()
    }

    #[test]
    fn create_lookup_remove() {
        let km = km();
        let id = km.create("particles").unwrap();
        assert_eq!(km.lookup("particles").unwrap(), id);
        assert_eq!(km.len(), 1);
        assert!(matches!(
            km.create("particles"),
            Err(DeviceError::KeyspaceExists)
        ));
        let ks = km.remove(id).unwrap();
        assert_eq!(ks.name, "particles");
        assert!(matches!(
            km.lookup("particles"),
            Err(DeviceError::KeyspaceNotFound)
        ));
        // Names are reusable after deletion.
        km.create("particles").unwrap();
    }

    #[test]
    fn new_keyspace_starts_empty() {
        let km = km();
        let id = km.create("x").unwrap();
        km.with(id, |ks| {
            assert_eq!(ks.state, KeyspaceState::Empty);
            assert_eq!(ks.pairs, 0);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn state_guard_errors_carry_context() {
        let km = km();
        let id = km.create("x").unwrap();
        let err = km
            .with(id, |ks| ks.require_state(KeyspaceState::Compacted, "query"))
            .unwrap_err();
        assert!(matches!(
            err,
            DeviceError::BadState {
                state: "EMPTY",
                op: "query"
            }
        ));
    }

    #[test]
    fn list_is_sorted_by_id() {
        let km = km();
        km.create("b").unwrap();
        km.create("a").unwrap();
        let list = km.list();
        assert_eq!(list.len(), 2);
        assert!(list[0].0 < list[1].0);
        assert_eq!(list[0].1, "b");
    }

    #[test]
    fn insert_restored_bumps_next_id() {
        let km = km();
        km.insert_restored(Keyspace::new(7, "restored".into()));
        assert_eq!(km.lookup("restored").unwrap(), 7);
        // Fresh creations never collide with restored ids.
        let id = km.create("new").unwrap();
        assert!(id > 7);
        assert_eq!(km.ids(), vec![7, id]);
    }

    #[test]
    fn many_keyspaces_supported() {
        let km = km();
        for i in 0..300 {
            km.create(&format!("ks{i}")).unwrap();
        }
        assert_eq!(km.len(), 300);
        assert_eq!(km.ids().len(), 300);
    }

    #[test]
    fn sketch_locate() {
        let mut s = Sketch::new();
        assert!(s.locate(b"anything").is_none());
        s.push(b"b".to_vec());
        s.push(b"f".to_vec());
        s.push(b"m".to_vec());
        assert_eq!(s.blocks(), 3);
        assert_eq!(s.locate(b"a"), Some(0), "before first pivot clamps to 0");
        assert_eq!(s.locate(b"b"), Some(0));
        assert_eq!(s.locate(b"e"), Some(0));
        assert_eq!(s.locate(b"f"), Some(1));
        assert_eq!(s.locate(b"g"), Some(1));
        assert_eq!(s.locate(b"z"), Some(2));
        assert!(s.search_cost() > 1.0);
        assert!(s.approx_bytes() > 0);
    }
}
