//! Figure 11: breakdown of KV-CSD and RocksDB insertion time for the VPIC
//! write phase.
//!
//! Paper result: both systems spend a similar total on writing +
//! compaction + indexing, but KV-CSD runs compaction and indexing
//! asynchronously in the device — its *effective* write time is 66 s vs
//! RocksDB's 704 s, i.e. 10.6x faster.

use kvcsd_bench::report::{fmt_flash, fmt_io, fmt_secs, speedup};
use kvcsd_bench::{vpic_exp, Args, Testbed};
use kvcsd_sim::stats::TextTable;
use kvcsd_workloads::VpicDump;

fn main() {
    let args = Args::parse();
    let particles = args.keys;
    let dump = VpicDump::new(particles, 16, args.seed);
    println!(
        "Fig 11: VPIC write phase, {} particles in 16 file shards, 16 loader threads\n",
        particles
    );

    let mut tb_k = Testbed::new();
    let k = vpic_exp::load_kvcsd(&mut tb_k, &dump);

    let mut tb_b = Testbed::new();
    let b = vpic_exp::load_baseline(&mut tb_b, &dump);

    let mut t = TextTable::new(["system", "write", "compaction", "2nd index", "effective"]);
    t.row([
        "kvcsd".into(),
        fmt_secs(k.write_s),
        format!("{} (async)", fmt_secs(k.compact_s)),
        format!("{} (async)", fmt_secs(k.index_s)),
        fmt_secs(k.write_s),
    ]);
    t.row([
        "rocksdb".into(),
        fmt_secs(b.write_s),
        "(inline)".into(),
        "(inline)".into(),
        fmt_secs(b.write_s),
    ]);
    print!("{}", t.render());
    println!(
        "\nKV-CSD effective write time is {} faster ({} vs {}).",
        speedup(b.write_s, k.write_s),
        fmt_secs(k.write_s),
        fmt_secs(b.write_s)
    );
    println!("\nInsert-phase I/O:");
    println!("  kvcsd   {}", fmt_io(&k.write_work));
    println!("  rocksdb {}", fmt_io(&b.write_work));
    println!("\nCompaction-phase flash:");
    println!("  kvcsd   {}", fmt_flash(&k.compact_work));
    println!(
        "  kvcsd   SoC CPU {}",
        fmt_secs(k.compact_work.soc_cpu_ns as f64 * 1e-9)
    );
}
