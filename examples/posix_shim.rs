//! A tiny POSIX-to-KV shim, in the spirit of TableFS and DeltaFS.
//!
//! "For applications that cannot easily switch from POSIX to key-value in
//! order to use KV-CSD, a lightweight shim layer may be used to translate
//! file I/O into key-value operations as prior work such as TableFS and
//! DeltaFS does." (Section IV)
//!
//! Files are chunked into 4 KiB extents stored as `path \0 chunk_index`
//! keys; file metadata lives under `path \0 0xFF`. Because keys sort by
//! (path, chunk), a whole file is one device-side range query.
//!
//! ```sh
//! cargo run --release --example posix_shim
//! ```

use std::sync::Arc;

use kvcsd::device::{DeviceConfig, DeviceStack};
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::{Bound, DeviceHandler};
use kvcsd::sim::config::SimConfig;
use kvcsd_client::{Keyspace, KvCsd};

const CHUNK: usize = 4096;

/// Write-once file shim over one keyspace.
struct ShimFs {
    ks: Keyspace,
}

impl ShimFs {
    fn chunk_key(path: &str, ix: u32) -> Vec<u8> {
        let mut k = path.as_bytes().to_vec();
        k.push(0);
        k.extend_from_slice(&ix.to_be_bytes());
        k
    }

    fn meta_key(path: &str) -> Vec<u8> {
        let mut k = path.as_bytes().to_vec();
        k.push(0);
        k.extend_from_slice(&[0xFF; 4]);
        k
    }

    /// "creat + write + close" — the shim turns the stream into chunks.
    fn write_file(&self, acc: &kvcsd_client::WriteAccelerator, path: &str, data: &[u8]) {
        for (ix, chunk) in data.chunks(CHUNK).enumerate() {
            acc.put(&Self::chunk_key(path, ix as u32), chunk).unwrap();
        }
        acc.put(&Self::meta_key(path), &(data.len() as u64).to_le_bytes())
            .unwrap();
    }

    /// "open + read" — one range query per file, processed on the device.
    fn read_file(&self, path: &str) -> Option<Vec<u8>> {
        let size = self.ks.get(&Self::meta_key(path)).ok()?;
        let size = u64::from_le_bytes(size.try_into().ok()?);
        let entries = self
            .ks
            .range(
                Bound::Included(Self::chunk_key(path, 0)),
                Bound::Included(Self::chunk_key(path, u32::MAX)),
                None,
            )
            .ok()?;
        let mut out = Vec::with_capacity(size as usize);
        for (_, chunk) in entries {
            out.extend_from_slice(&chunk);
        }
        out.truncate(size as usize);
        Some(out)
    }

    /// "stat" — metadata only.
    fn stat(&self, path: &str) -> Option<u64> {
        let size = self.ks.get(&Self::meta_key(path)).ok()?;
        Some(u64::from_le_bytes(size.try_into().ok()?))
    }
}

fn main() {
    let cfg = SimConfig::default();
    let geom = FlashGeometry {
        channels: cfg.hw.flash_channels,
        blocks_per_channel: 512,
        pages_per_block: 16,
        page_bytes: cfg.hw.page_bytes,
    };
    let stack = DeviceStack::new(geom, ZnsConfig::default(), DeviceConfig::default());
    let (device, ledger) = (stack.device(), stack.ledger());
    let client = KvCsd::connect(
        Arc::clone(device) as Arc<dyn DeviceHandler>,
        Arc::clone(ledger),
    );

    let ks = client.create_keyspace("shimfs").unwrap();
    let fs = ShimFs { ks: ks.clone() };

    // Write a few "files" of different sizes through the shim.
    let files: Vec<(String, Vec<u8>)> = vec![
        ("checkpoint/rank-0000.dat".into(), pattern(100_000, 1)),
        ("checkpoint/rank-0001.dat".into(), pattern(50_000, 2)),
        ("logs/run.log".into(), b"step 1 ok\nstep 2 ok\n".to_vec()),
    ];
    let acc = ks.write_accelerator();
    for (path, data) in &files {
        fs.write_file(&acc, path, data);
    }
    acc.flush().unwrap();
    ks.compact().unwrap();
    device.run_pending_jobs();

    // Read back through the shim and verify.
    for (path, data) in &files {
        let got = fs.read_file(path).expect("file readable");
        assert_eq!(&got, data, "{path}");
        println!(
            "{path:28} {} bytes ({} chunks), stat says {}",
            got.len(),
            data.len().div_ceil(CHUNK),
            fs.stat(path).unwrap()
        );
    }
    println!("\nall files round-tripped through the KV shim.");
}

fn pattern(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}
