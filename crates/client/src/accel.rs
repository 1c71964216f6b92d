//! The host-side write accelerator: staging, key-sorting and pipelined
//! ~128 KB bulk PUTs over an [`InflightWindow`].
//!
//! The paper's client ships one command per round trip; "A Host-SSD
//! Collaborative Write Accelerator" shows ingest throughput comes from
//! staging entries host-side, packing them key-sorted into large BULK_PUT
//! messages, and keeping the submission queue full. This module is that
//! accelerator: [`WriteAccelerator::put`] stages pairs into a per-session
//! buffer; a full buffer is key-sorted by a stable MSD radix sort (host
//! CPU charged for the key ops and bytes it counts, never more than a
//! comparison sort plus one counting pass), packed, and submitted
//! through the window without waiting for earlier bulks to complete, up
//! to a bounded number of outstanding bulk commands.
//!
//! ## Durability contract
//!
//! Acked-only: a pair counts as durable exactly when the device's
//! `BulkPutOk`/`PutOk` completion for its batch has been claimed.
//! [`WriteAccelerator::flush`] ships the partial buffer, claims every
//! outstanding ack, and returns the cumulative acked-pair count — the
//! only durability statement the accelerator ever makes. Dropping the
//! accelerator without `flush()` *discards* staged entries and abandons
//! unclaimed acks; nothing un-flushed is ever reported durable, so a
//! power cut mid-batch loses only writes the caller was never told were
//! safe (`tests/pipeline.rs` sweeps exactly this).

use std::sync::Arc;

use kvcsd_proto::{BulkBuilder, KvCommand, KvResponse, QueuePair, DEFAULT_BULK_BYTES};
use kvcsd_sim::ledger::whole_ns;
use kvcsd_sim::sync::Mutex;
use kvcsd_sim::{CostModel, VirtualClock};

use crate::api::RetryPolicy;
use crate::window::{InflightWindow, OpId};
use crate::Result;

/// Outstanding bulk commands before `put` claims the oldest ack.
const DEFAULT_DEPTH: usize = 8;

/// One staged pair: its key, then its value, back to back in the arena
/// from `at`.
#[derive(Debug)]
struct Entry {
    at: usize,
    klen: usize,
    vlen: usize,
}

impl Entry {
    fn key<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.at..self.at + self.klen]
    }

    fn value<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        let at = self.at + self.klen;
        &arena[at..at + self.vlen]
    }
}

/// Staged pairs: every key and value copied once into one flat arena,
/// and a small entry per pair that locates them. The sort and the packer
/// work on borrowed slices of the arena; no pair is copied again until
/// it lands in a bulk message.
#[derive(Debug, Default)]
struct Staging {
    arena: Vec<u8>,
    entries: Vec<Entry>,
    /// Wire bytes the staged pairs take in a bulk message.
    wire_bytes: usize,
    /// Host CPU charged for copying them in, rounded per pair as the
    /// ledger rounds a charge; booked when they ship or are dropped.
    staging_ns: u64,
}

impl Staging {
    fn push(&mut self, key: &[u8], value: &[u8], memcpy_ns: f64) {
        self.entries.push(Entry {
            at: self.arena.len(),
            klen: key.len(),
            vlen: value.len(),
        });
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value);
        self.wire_bytes += BulkBuilder::entry_bytes(key, value);
        self.staging_ns += whole_ns((key.len() + value.len()) as f64 * memcpy_ns);
    }

    /// Take the staged pairs, leaving room for as many again.
    fn take(&mut self) -> Staging {
        let room = Staging {
            arena: Vec::with_capacity(self.arena.len()),
            entries: Vec::with_capacity(self.entries.len()),
            ..Staging::default()
        };
        std::mem::replace(self, room)
    }
}

struct AccelState {
    staged: Staging,
    /// Shipped batches not yet acked, oldest first, with expected pairs.
    pending: Vec<(OpId, u64)>,
    acked: u64,
}

/// Stages writes for one keyspace and streams them as pipelined,
/// key-sorted bulk PUTs. See the module docs for the durability
/// contract.
pub struct WriteAccelerator {
    window: InflightWindow,
    ks: u32,
    deadline_ns: Option<u64>,
    target_bytes: usize,
    depth: usize,
    state: Mutex<AccelState>,
}

impl std::fmt::Debug for WriteAccelerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteAccelerator")
            .field("ks", &self.ks)
            .finish_non_exhaustive()
    }
}

impl WriteAccelerator {
    /// Open an accelerator for keyspace `ks` over `qp`; its window is the
    /// accelerator's own completion queue.
    pub fn new(
        qp: QueuePair,
        ks: u32,
        policy: RetryPolicy,
        clock: Arc<VirtualClock>,
        deadline_ns: Option<u64>,
    ) -> Self {
        Self {
            window: InflightWindow::new(qp, policy, clock),
            ks,
            deadline_ns,
            target_bytes: DEFAULT_BULK_BYTES,
            depth: DEFAULT_DEPTH,
            state: Mutex::new(AccelState {
                staged: Staging::default(),
                pending: Vec::new(),
                acked: 0,
            }),
        }
    }

    /// Override the staging-buffer / bulk-message target size.
    pub fn with_target_bytes(mut self, bytes: usize) -> Self {
        self.target_bytes = bytes.max(64);
        self
    }

    /// Override the outstanding-bulk-command bound.
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth.max(1);
        self
    }

    /// Stage one pair; first ships the staged buffer as a sorted bulk
    /// message if this pair would overflow it, so every full bulk holds
    /// as many pairs as one message takes. An error reported here means
    /// a *previously shipped* batch failed — none of its pairs are
    /// durable, and the current pair stays staged.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let memcpy_ns = CostModel::default().memcpy_ns_per_byte;
        let entry = BulkBuilder::entry_bytes(key, value);
        let full = {
            let mut st = self.state.lock();
            let staged = &mut st.staged;
            let full = (!staged.entries.is_empty()
                && staged.wire_bytes + entry > self.target_bytes)
                .then(|| staged.take());
            staged.push(key, value, memcpy_ns);
            full
        };
        match full {
            Some(staged) => self.ship(staged),
            None => Ok(()),
        }
    }

    /// Ship the partial staging buffer, claim every outstanding ack, and
    /// return the cumulative count of durably acked pairs.
    pub fn flush(&self) -> Result<u64> {
        let staged = self.state.lock().staged.take();
        self.ship(staged)?;
        loop {
            let oldest = {
                let mut st = self.state.lock();
                if st.pending.is_empty() {
                    return Ok(st.acked);
                }
                st.pending.remove(0)
            };
            self.claim(oldest)?;
        }
    }

    /// Pairs acked by the device so far (durable under the contract).
    pub fn acked_pairs(&self) -> u64 {
        self.state.lock().acked
    }

    /// Drain the per-completion latencies of the accelerator's window
    /// (one sample per bulk command, virtual ns).
    pub fn completion_latencies(&self) -> Vec<u64> {
        self.window.completion_latencies()
    }

    /// Charge the host for staging `staged`, key-sort it (host CPU
    /// charged for the radix sort's key ops and the bytes it moves), pack
    /// it into bulk messages straight from the arena and submit them all;
    /// then claim oldest acks until at most `depth` remain outstanding.
    fn ship(&self, staged: Staging) -> Result<()> {
        let ledger = self.window.ledger();
        ledger.charge_host_cpu_ns(staged.staging_ns);
        if !staged.entries.is_empty() {
            let arena = &staged.arena;
            let mut pairs: Vec<(&[u8], &[u8])> = staged
                .entries
                .iter()
                .map(|e| (e.key(arena), e.value(arena)))
                .collect();
            // Stable sort: duplicate keys keep insertion order, so the
            // device applies overwrites in the order they were staged.
            let work = crate::radix::sort_by_key(&mut pairs, |p| p.0, |p| p.0.len() + p.1.len());
            let cost = CostModel::default();
            ledger.charge_host_cpu(
                work.key_ops * cost.key_cmp_ns + work.bytes_moved as f64 * cost.memcpy_ns_per_byte,
            );

            let mut builder = BulkBuilder::new(self.target_bytes);
            for (key, value) in pairs {
                if builder.push(key, value) {
                    continue;
                }
                if !builder.is_empty() {
                    let full = std::mem::replace(&mut builder, BulkBuilder::new(self.target_bytes));
                    self.submit_bulk(full);
                }
                if !builder.push(key, value) {
                    // A pair no message can carry: send it alone.
                    let op = self.window.submit(
                        self.deadline_ns,
                        KvCommand::Put {
                            ks: self.ks,
                            key: key.to_vec(),
                            value: value.to_vec(),
                        },
                    );
                    self.state.lock().pending.push((op, 1));
                }
            }
            if !builder.is_empty() {
                self.submit_bulk(builder);
            }
        }
        loop {
            let oldest = {
                let mut st = self.state.lock();
                if st.pending.len() <= self.depth {
                    return Ok(());
                }
                st.pending.remove(0)
            };
            self.claim(oldest)?;
        }
    }

    fn submit_bulk(&self, builder: BulkBuilder) {
        let payload = builder.finish();
        let pairs = payload.len() as u64;
        let op = self.window.submit(
            self.deadline_ns,
            KvCommand::BulkPut {
                ks: self.ks,
                payload,
            },
        );
        self.state.lock().pending.push((op, pairs));
    }

    /// Claim one batch's ack and credit its pairs as durable.
    fn claim(&self, (op, pairs): (OpId, u64)) -> Result<()> {
        match self.window.wait(op)? {
            KvResponse::BulkPutOk { inserted } => {
                debug_assert_eq!(inserted, pairs);
                self.state.lock().acked += inserted;
                Ok(())
            }
            KvResponse::PutOk => {
                self.state.lock().acked += pairs;
                Ok(())
            }
            other => Err(crate::error::ClientError::UnexpectedResponse(format!(
                "wanted BulkPutOk, got {other:?}"
            ))),
        }
    }
}

/// Staged pairs are discarded unshipped (see the durability contract),
/// but copying them in was work done: the host is charged for it.
impl Drop for WriteAccelerator {
    fn drop(&mut self) {
        let ns = std::mem::take(&mut self.state.lock().staged.staging_ns);
        self.window.ledger().charge_host_cpu_ns(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_proto::{DeviceHandler, KvStatus};
    use kvcsd_sim::sync::Shared;
    use kvcsd_sim::IoLedger;

    /// Counts pairs, records each bulk's pair count, and asserts bulk
    /// payloads arrive key-sorted.
    struct SortSpy {
        pairs: Arc<Shared<u64>>,
        bulks: Arc<Shared<Vec<u64>>>,
    }

    impl DeviceHandler for SortSpy {
        fn handle(&self, cmd: KvCommand) -> KvResponse {
            match cmd {
                KvCommand::BulkPut { payload, .. } => {
                    let entries: Vec<(Vec<u8>, Vec<u8>)> = payload
                        .iter()
                        .map(|(k, v)| (k.to_vec(), v.to_vec()))
                        .collect();
                    assert!(
                        entries.windows(2).all(|w| w[0].0 <= w[1].0),
                        "bulk payload must arrive key-sorted"
                    );
                    let n = entries.len() as u64;
                    self.pairs.update(|p| *p += n);
                    self.bulks.update(|b| b.push(n));
                    KvResponse::BulkPutOk { inserted: n }
                }
                KvCommand::Put { .. } => {
                    self.pairs.update(|p| *p += 1);
                    KvResponse::PutOk
                }
                _ => KvResponse::Err(KvStatus::Internal("unsupported".into())),
            }
        }
    }

    /// A spy's view: pairs seen, and each bulk's pair count.
    type Seen = (Arc<Shared<u64>>, Arc<Shared<Vec<u64>>>);

    fn accel(target: usize) -> (WriteAccelerator, Seen) {
        let pairs = Arc::new(Shared::new(0));
        let bulks = Arc::new(Shared::new(Vec::new()));
        let dev = Arc::new(SortSpy {
            pairs: Arc::clone(&pairs),
            bulks: Arc::clone(&bulks),
        });
        let qp = QueuePair::new(dev, Arc::new(IoLedger::new(16, 4096)));
        (
            WriteAccelerator::new(
                qp,
                0,
                RetryPolicy::default(),
                Arc::new(VirtualClock::new()),
                None,
            )
            .with_target_bytes(target),
            (pairs, bulks),
        )
    }

    #[test]
    fn stages_sorts_and_packs_into_bulk_messages() {
        let (a, (pairs, bulks)) = accel(1024);
        // Reverse-ordered keys force the sort to do something.
        for i in (0..500u32).rev() {
            a.put(format!("k{i:06}").as_bytes(), &[7u8; 16]).unwrap();
        }
        assert_eq!(a.flush().unwrap(), 500);
        assert_eq!(pairs.get(), 500);
        let b = bulks.read().len();
        assert!(b > 1 && b < 500, "packed into a few bulks, got {b}");
    }

    #[test]
    fn full_buffers_ship_as_one_full_bulk_each() {
        // 26-byte entries (6 header + 4 key + 16 value): 39 fit in 1 KiB.
        let (a, (pairs, bulks)) = accel(1024);
        for i in (0..500u32).rev() {
            a.put(format!("{i:04}").as_bytes(), &[7u8; 16]).unwrap();
        }
        assert_eq!(a.flush().unwrap(), 500);
        assert_eq!(pairs.get(), 500);
        let sizes = bulks.read().clone();
        let (last, full) = sizes.split_last().unwrap();
        assert!(
            full.iter().all(|&n| n == 39),
            "every shipped buffer is one full bulk, no one-pair overflow: {sizes:?}"
        );
        assert_eq!(*last, 500 % 39, "the flush ships the partial rest");
    }

    #[test]
    fn unflushed_writes_are_never_reported_durable() {
        let (a, (pairs, _)) = accel(64 * 1024);
        for i in 0..10u32 {
            a.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        // Nothing shipped, nothing acked: the 10 pairs are staged only.
        assert_eq!(a.acked_pairs(), 0);
        assert_eq!(pairs.get(), 0);
        drop(a); // drop-flush contract: staged entries are discarded
        assert_eq!(pairs.get(), 0);
    }

    /// The host CPU the model charges for staging, sorting and shipping
    /// 500 reverse-ordered pairs, and for staging 10 pairs that are then
    /// dropped unflushed: staged pairs are charged whether or not they
    /// ever ship.
    #[test]
    fn host_charges_are_pinned() {
        let (a, _) = accel(1024);
        let ledger = Arc::clone(a.window.ledger());
        for i in (0..500u32).rev() {
            a.put(format!("k{i:06}").as_bytes(), &[7u8; 16]).unwrap();
        }
        a.flush().unwrap();
        assert_eq!(ledger.snapshot().host_cpu_ns, 55151);

        let (a, _) = accel(64 * 1024);
        let ledger = Arc::clone(a.window.ledger());
        for i in 0..10u32 {
            a.put(format!("k{i}").as_bytes(), &vec![1u8; 40 + 13 * i as usize])
                .unwrap();
        }
        drop(a);
        assert_eq!(ledger.snapshot().host_cpu_ns, 46);
    }

    #[test]
    fn oversized_pair_ships_alone() {
        let (a, (pairs, bulks)) = accel(1024);
        a.put(b"huge", &vec![1u8; 4096]).unwrap();
        a.put(b"tiny", b"v").unwrap();
        assert_eq!(a.flush().unwrap(), 2);
        assert_eq!(pairs.get(), 2);
        assert_eq!(*bulks.read(), [1], "the tiny pair still rides a bulk");
    }
}
