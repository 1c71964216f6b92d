//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Bulk PUT vs regular PUT** — the paper quotes bulk messages as "7x
//!    faster than regular puts".
//! 2. **Zone-cluster stripe width** — striping across more zones spreads
//!    writes over more NAND channels ("maximizing SSD bandwidth
//!    utilization").
//! 3. **SoC DRAM budget** — less sort memory means more merge-sort rounds
//!    during deferred compaction ("multiple rounds of merge sorts,
//!    depending on available SoC DRAM space").
//! 4. **Deferred vs blocking compaction** — what the host would pay if it
//!    waited for compaction instead of letting the device hide it.

use kvcsd_bench::report::{fmt_secs, speedup};
use kvcsd_bench::{kvcsd, Args, Testbed};
use kvcsd_sim::stats::TextTable;
use kvcsd_workloads::PutWorkload;

fn main() {
    let args = Args::parse();
    let wl = PutWorkload::new(args.keys, 16, args.value_bytes, args.seed);
    println!(
        "Ablations over {} keys x {}B values\n",
        args.keys, args.value_bytes
    );

    // ---- 1. bulk vs single PUT -------------------------------------------
    let mut tb = Testbed::new();
    let bulk = kvcsd::load(&mut tb, 4, 1, &wl, true);
    let mut tb = Testbed::new();
    let single = kvcsd::load(&mut tb, 4, 1, &wl, false);
    println!("1) Bulk PUT vs regular PUT (4 threads):");
    let mut t = TextTable::new(["mode", "insert", "speedup"]);
    t.row([
        "regular put".into(),
        fmt_secs(single.insert_s),
        "1.0x".into(),
    ]);
    t.row([
        "bulk put (128KiB)".into(),
        fmt_secs(bulk.insert_s),
        speedup(single.insert_s, bulk.insert_s),
    ]);
    print!("{}", t.render());

    // ---- 2. zone-cluster stripe width --------------------------------------
    // Larger values make the phases I/O-bound so channel striping shows.
    let wide = PutWorkload::new(args.keys / 4, 16, 2048, args.seed);
    println!("\n2) Zone-cluster stripe width (2KiB values; insert + device compaction):");
    let mut t = TextTable::new(["width", "insert", "bg-compaction"]);
    for width in [1u32, 2, 4, 8, 16] {
        let wl = &wide;
        let tb = Testbed::new();
        let data = wl.keys * (16 + 2048);
        let (dev, client) = tb.kvcsd_with_width(data, 64 << 20, 1, width);
        let ks = client.create_keyspace("w").unwrap();
        let mut tbm = tb;
        tbm.runner.foreground("insert", 4, || {
            for th in 0..4 {
                let acc = ks.write_accelerator();
                for (k, v) in wl.shard(th, 4) {
                    acc.put(&k, &v).unwrap();
                }
                acc.flush().unwrap();
            }
            ks.compact().unwrap();
        });
        let insert_s = tbm.runner.last_elapsed_s();
        tbm.runner.background("compact", || {
            dev.run_pending_jobs();
        });
        let compact_s = tbm.runner.last_elapsed_s();
        t.row([width.to_string(), fmt_secs(insert_s), fmt_secs(compact_s)]);
    }
    print!("{}", t.render());

    // ---- 3. SoC DRAM budget -------------------------------------------------
    println!("\n3) SoC DRAM budget vs deferred-compaction time (2KiB values):");
    let mut t = TextTable::new(["dram", "bg-compaction"]);
    for dram_mb in [1u64, 4, 16, 64] {
        let wl = &wide;
        let tb = Testbed::new();
        let (dev, client) = tb.kvcsd(wl.keys * (16 + 2048), dram_mb << 20, 1);
        let ks = client.create_keyspace("d").unwrap();
        let mut tbm = tb;
        tbm.runner.foreground("insert", 4, || {
            let acc = ks.write_accelerator();
            for (k, v) in wl.shard(0, 1) {
                acc.put(&k, &v).unwrap();
            }
            acc.flush().unwrap();
            ks.compact().unwrap();
        });
        tbm.runner.background("compact", || {
            dev.run_pending_jobs();
        });
        t.row([
            format!("{dram_mb} MiB"),
            fmt_secs(tbm.runner.last_elapsed_s()),
        ]);
    }
    print!("{}", t.render());

    // ---- 4. deferred vs blocking compaction ----------------------------------
    println!("\n4) Deferred (device-async) vs blocking compaction:");
    let mut tb = Testbed::new();
    let l = kvcsd::load(&mut tb, 4, 1, &wl, true);
    let mut t = TextTable::new(["policy", "host-visible time"]);
    t.row(["deferred (paper)".into(), fmt_secs(l.insert_s)]);
    t.row([
        "blocking (host waits)".into(),
        fmt_secs(l.insert_s + l.compact_s),
    ]);
    print!("{}", t.render());

    // ---- 5. separated vs single-pass index construction ------------------------
    // The paper's future work: build compaction's primary index and the
    // secondary indexes in one data pass instead of re-scanning.
    println!("\n5) Separated vs single-pass compaction + secondary index:");
    use kvcsd_proto::{SecondaryIndexSpec, SecondaryKeyType};
    let spec = SecondaryIndexSpec {
        name: "tail".into(),
        value_offset: args.value_bytes.saturating_sub(4).max(8),
        value_len: 4,
        key_type: SecondaryKeyType::U32,
    };
    let run = |single_pass: bool| {
        let tb = Testbed::new();
        let data = wl.keys * (16 + args.value_bytes as u64);
        let (dev, client) = tb.kvcsd(data, 64 << 20, 1);
        let ks = client.create_keyspace("p").unwrap();
        let acc = ks.write_accelerator();
        for (k, v) in wl.shard(0, 1) {
            acc.put(&k, &v).unwrap();
        }
        acc.flush().unwrap();
        if single_pass {
            ks.compact_with_indexes(vec![spec.clone()]).unwrap();
        } else {
            ks.compact().unwrap();
        }
        let mut tbm = tb;
        let before = tbm.ledger.snapshot();
        tbm.runner.background("jobs", || {
            dev.run_pending_jobs();
            if !single_pass {
                ks.build_secondary_index(spec.clone()).unwrap();
                dev.run_pending_jobs();
            }
        });
        let work = tbm.ledger.snapshot().since(&before);
        (tbm.runner.background_secs(), work.storage_read_bytes())
    };
    let (sep_s, sep_read) = run(false);
    let (one_s, one_read) = run(true);
    let mut t = TextTable::new(["path", "bg time", "device bytes read"]);
    t.row([
        "separated (current design)".into(),
        fmt_secs(sep_s),
        format!("{sep_read}"),
    ]);
    t.row([
        "single pass (future work)".into(),
        fmt_secs(one_s),
        format!("{one_read}"),
    ]);
    t.row([
        "saving".into(),
        speedup(sep_s, one_s),
        format!(
            "{:.0}% fewer reads",
            100.0 * (1.0 - one_read as f64 / sep_read as f64)
        ),
    ]);
    print!("{}", t.render());

    // ---- 6. ZNS zone resets vs conventional-FTL garbage collection -------------
    // "ZNS shows advantage when SSD space is heavily utilized making
    // SSD-level garbage collection a performance bottleneck. ... This
    // prevents leaving 'holes' in zones when created keyspaces are
    // deleted, simplifying KV-CSD's internal garbage collection process."
    println!("\n6) Space reclamation under churn: ZNS resets vs FTL GC:");
    let churn_rounds = 8u32;
    // ZNS side: create, fill and delete keyspaces on a deliberately small
    // device so churn matters.
    let zns_moved = {
        let tb = Testbed::new();
        let (dev, client) = tb.kvcsd(2 << 20, 16 << 20, 2);
        for round in 0..churn_rounds {
            let ks = client.create_keyspace(&format!("gen{round}")).unwrap();
            let acc = ks.write_accelerator();
            for i in 0..8_000u32 {
                acc.put(format!("k{i:06}").as_bytes(), &[round as u8; 32])
                    .unwrap();
            }
            acc.flush().unwrap();
            ks.compact().unwrap();
            dev.run_pending_jobs();
            ks.delete().unwrap();
        }
        // Zone resets relocate nothing, ever.
        tb.ledger.custom("ftl_gc_moved_pages")
    };
    // FTL side: interleaved log rotation at high space utilization — the
    // pattern that fragments erase blocks (pages of many files share a
    // block, files die at different times) and forces GC to relocate
    // still-live pages.
    let (ftl_moved, ftl_amp) = {
        use kvcsd_blockfs::{BlockFs, FsConfig};
        use kvcsd_flash::{ConvConfig, ConventionalNamespace, FlashGeometry, NandArray};
        use kvcsd_sim::IoLedger;
        use std::sync::Arc;
        // A deliberately small conventional SSD (16 MiB) run at ~70%
        // space utilization.
        let geom = FlashGeometry {
            channels: 8,
            blocks_per_channel: 32,
            pages_per_block: 16,
            page_bytes: 4096,
        };
        let cfg = kvcsd_sim::config::SimConfig::default();
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(geom, &cfg.hw, Arc::clone(&ledger)));
        let conv = Arc::new(ConventionalNamespace::new(nand, ConvConfig::default()));
        let fs = Arc::new(BlockFs::format(
            conv,
            cfg.cost.clone(),
            FsConfig {
                page_cache_pages: 512,
                journal: true,
            },
        ));
        let n_logs = 24u32;
        let chunk = vec![7u8; 16 << 10];
        let mut handles: Vec<(String, kvcsd_blockfs::fs::FileId)> = (0..n_logs)
            .map(|i| {
                let name = format!("log{i:02}");
                let f = fs.create(&name).unwrap();
                (name, f)
            })
            .collect();
        // Long-lived data interleaved with the churn: its pages share
        // erase blocks with short-lived log pages, so reclaiming those
        // blocks forces the FTL to relocate live data.
        let cold: Vec<_> = (0..8)
            .map(|i| fs.create(&format!("cold{i}")).unwrap())
            .collect();
        let mut logical = 0u64;
        let mut next_id = n_logs;
        // next_id tracks file names across rounds, not the loop index.
        #[allow(clippy::explicit_counter_loop)]
        for round in 0..90u32 {
            // Interleave appends across all live logs.
            for (_, f) in &handles {
                fs.append(*f, &chunk).unwrap();
                logical += chunk.len() as u64;
            }
            if round < 30 {
                // ~7 MiB of long-lived data laid down amid the churn.
                for c in &cold {
                    fs.append(*c, &chunk[..(30 << 10).min(chunk.len())])
                        .unwrap();
                    logical += (30 << 10).min(chunk.len()) as u64;
                }
            }
            // Rotate the oldest log each round (files die at different
            // ages, so erase blocks end up part-live, part-dead).
            let _ = round;
            let (old, _) = handles.remove(0);
            fs.unlink(&old).unwrap();
            let name = format!("log{next_id:02}");
            next_id += 1;
            let f = fs.create(&name).unwrap();
            handles.push((name, f));
        }
        let s = ledger.snapshot();
        (
            ledger.custom("ftl_gc_moved_pages"),
            s.storage_write_bytes() as f64 / logical as f64,
        )
    };
    let mut t = TextTable::new([
        "storage design",
        "GC-relocated pages",
        "write amplification",
    ]);
    t.row([
        "ZNS keyspace churn (resets)".into(),
        zns_moved.to_string(),
        "1.0x (log padding only)".into(),
    ]);
    t.row([
        "FTL file churn".into(),
        ftl_moved.to_string(),
        format!("{ftl_amp:.2}x"),
    ]);
    print!("{}", t.render());
}
