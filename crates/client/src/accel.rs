//! The host-side write accelerator: staging, key-sorting and pipelined
//! ~128 KB bulk PUTs over an [`InflightWindow`].
//!
//! The paper's client ships one command per round trip; "A Host-SSD
//! Collaborative Write Accelerator" shows ingest throughput comes from
//! staging entries host-side, packing them key-sorted into large BULK_PUT
//! messages, and keeping the submission queue full. This module is that
//! accelerator: [`WriteAccelerator::put`] stages pairs into a per-session
//! buffer; a full buffer is sorted (host CPU charged), packed, and
//! submitted through the window without waiting for earlier bulks to
//! complete, up to a bounded number of outstanding bulk commands.
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
use kvcsd_sim::sync::Mutex;
use kvcsd_sim::VirtualClock;

use crate::api::RetryPolicy;
use crate::window::{InflightWindow, OpId};
use crate::Result;

/// Outstanding bulk commands before `put` claims the oldest ack.
const DEFAULT_DEPTH: usize = 8;

struct AccelState {
    staged: Vec<(Vec<u8>, Vec<u8>)>,
    staged_bytes: usize,
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
    /// Open an accelerator for keyspace `ks` over `qp` (the clone's
    /// completion queue becomes private to this accelerator's window).
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
                staged: Vec::new(),
                staged_bytes: 0,
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

    /// Stage one pair; ships a sorted bulk message when the staging
    /// buffer reaches the target size. An error reported here means a
    /// *previously shipped* batch failed — none of its pairs are
    /// durable, and the current pair stays staged.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        // Host-side staging cost (memcpy into the staging buffer).
        let memcpy_ns = kvcsd_sim::config::CostModel::default().memcpy_ns_per_byte;
        self.window
            .ledger()
            .charge_host_cpu((key.len() + value.len()) as f64 * memcpy_ns);
        let ship = {
            let mut st = self.state.lock();
            st.staged_bytes += BulkBuilder::entry_bytes(key, value);
            st.staged.push((key.to_vec(), value.to_vec()));
            st.staged_bytes >= self.target_bytes
        };
        if ship {
            self.ship_staged()?;
        }
        Ok(())
    }

    /// Ship the partial staging buffer, claim every outstanding ack, and
    /// return the cumulative count of durably acked pairs.
    pub fn flush(&self) -> Result<u64> {
        self.ship_staged()?;
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

    /// Take the staging buffer, key-sort it (host CPU charged: n·log₂n
    /// comparisons), pack it into bulk messages and submit them all;
    /// then claim oldest acks until at most `depth` remain outstanding.
    fn ship_staged(&self) -> Result<()> {
        let staged = {
            let mut st = self.state.lock();
            st.staged_bytes = 0;
            std::mem::take(&mut st.staged)
        };
        if !staged.is_empty() {
            let mut staged = staged;
            let n = staged.len() as f64;
            let key_cmp_ns = kvcsd_sim::config::CostModel::default().key_cmp_ns;
            if staged.len() > 1 {
                self.window
                    .ledger()
                    .charge_host_cpu(n * n.log2() * key_cmp_ns);
            }
            // Stable sort: duplicate keys keep insertion order, so the
            // device applies overwrites in the order they were staged.
            staged.sort_by(|a, b| a.0.cmp(&b.0));

            let mut builder = BulkBuilder::new(self.target_bytes);
            for (key, value) in staged {
                if builder.push(&key, &value) {
                    continue;
                }
                if !builder.is_empty() {
                    let full = std::mem::replace(&mut builder, BulkBuilder::new(self.target_bytes));
                    self.submit_bulk(full);
                }
                if !builder.push(&key, &value) {
                    // Single pair larger than a message: send it alone.
                    let op = self.window.submit(
                        self.deadline_ns,
                        KvCommand::Put {
                            ks: self.ks,
                            key,
                            value,
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

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_proto::{DeviceHandler, KvStatus};
    use kvcsd_sim::sync::Shared;
    use kvcsd_sim::IoLedger;

    /// Counts pairs and asserts bulk payloads arrive key-sorted.
    struct SortSpy {
        pairs: Arc<Shared<u64>>,
        bulks: Arc<Shared<u64>>,
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
                    self.bulks.update(|b| *b += 1);
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

    fn accel(target: usize) -> (WriteAccelerator, Arc<Shared<u64>>, Arc<Shared<u64>>) {
        let pairs = Arc::new(Shared::new(0));
        let bulks = Arc::new(Shared::new(0));
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
            pairs,
            bulks,
        )
    }

    #[test]
    fn stages_sorts_and_packs_into_bulk_messages() {
        let (a, pairs, bulks) = accel(1024);
        // Reverse-ordered keys force the sort to do something.
        for i in (0..500u32).rev() {
            a.put(format!("k{i:06}").as_bytes(), &[7u8; 16]).unwrap();
        }
        assert_eq!(a.flush().unwrap(), 500);
        assert_eq!(pairs.get(), 500);
        let b = bulks.get();
        assert!(b > 1 && b < 500, "packed into a few bulks, got {b}");
    }

    #[test]
    fn unflushed_writes_are_never_reported_durable() {
        let (a, pairs, _) = accel(64 * 1024);
        for i in 0..10u32 {
            a.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        // Nothing shipped, nothing acked: the 10 pairs are staged only.
        assert_eq!(a.acked_pairs(), 0);
        assert_eq!(pairs.get(), 0);
        drop(a); // drop-flush contract: staged entries are discarded
        assert_eq!(pairs.get(), 0);
    }

    #[test]
    fn oversized_pair_ships_alone() {
        let (a, pairs, bulks) = accel(1024);
        a.put(b"huge", &vec![1u8; 4096]).unwrap();
        a.put(b"tiny", b"v").unwrap();
        assert_eq!(a.flush().unwrap(), 2);
        assert_eq!(pairs.get(), 2);
        assert_eq!(bulks.get(), 1, "the tiny pair still rides a bulk");
    }
}
