//! The repository benchmark for the KV-CSD reproduction.
//!
//! ```text
//! cargo bench --manifest-path perfbench/Cargo.toml --bench kvbench -- \
//!     --workload <ckpt_ingest|query_mix|cluster_replicated> --seed <n> --seconds <s> --trace <0|1>
//! cargo bench --manifest-path perfbench/Cargo.toml --bench kvbench -- \
//!     --workload <name> --seed <n> --selftest
//! ```
//!
//! Each run sets its system up several times (`setup_s` is the median),
//! measures for `--seconds`, checks every answer, prints a provenance line
//! (cost model, geometry, DRAM budget, workload shape, seed, sample
//! counts) and then, as the last stdout line, the result object.
//!
//! End-to-end metrics are measured with tracing off (`--trace 0`):
//! wall-clock throughput and latency, the paper's modeled times from
//! `kvcsd_sim::TimeModel`, space amplification, set-up time and peak
//! memory. Wall-clock figures are scaled to a reference host speed by a
//! calibration kernel timed throughout the run, because on a shared host
//! the speed other tenants leave varies between runs more than the code
//! under test does. `--trace 1` runs the workload untraced for half the
//! time and traced for the other half, and reports per-layer metrics
//! named after the crates (`client`, `proto`, `core`, `flash`,
//! `cluster`, `model`) plus the tracing overhead; the spans are written
//! to `.bench_trace/` at the root of the checkout.
//!
//! `--selftest` runs the workload's exact prefix twice with one seed and
//! once with the next, and fails unless the modeled times, space and
//! layer counts repeat exactly and no operation failed.

mod report;
mod rig;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use report::{median, provenance_line, result_line, Metrics, Outcome};
use trace::Tracer;
use workloads::Ctx;

const WORKLOADS: [&str; 3] = ["ckpt_ingest", "query_mix", "cluster_replicated"];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selftest" => args.selftest = true,
            // Appended by `cargo bench`.
            "--bench" => {}
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
        return Err("--seconds must be between 0 and 3600".into());
    }
    Ok(args)
}

fn run(workload: &str, ctx: &Ctx) -> Outcome {
    match workload {
        "ckpt_ingest" => workloads::ckpt_ingest(ctx),
        "query_mix" => workloads::query_mix(ctx),
        _ => workloads::cluster_replicated(ctx),
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s then 14 `long`s.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage([0; 18]);
    // SAFETY: `usage` is a writable buffer of the size and alignment of
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF (0) is valid.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    // ru_maxrss, in KiB, follows the two timevals.
    usage.0[4] as f64 / 1024.0
}

/// The run's median host slowdown (see [`report::CALIB_REF_NS`]).
fn host_slowdown(out: &Outcome) -> f64 {
    median(&out.slowdowns)
}

/// Wall-clock samples arrive already scaled to the reference host.
fn end_to_end(out: &Outcome) -> Metrics {
    let mut m = Metrics::default();
    m.wall("ingest_pairs_per_s", median(&out.ingest_rate), "1/s");
    m.wall("compact_pairs_per_s", median(&out.compact_rate), "1/s");
    m.wall("query_ops_per_s", out.query_ops as f64 / out.query_s, "1/s");
    let (get, range, sidx, put) = (
        out.lat("get").p50_p99(),
        out.lat("range").p50_p99(),
        out.lat("sidx").p50_p99(),
        out.lat("put").p50_p99(),
    );
    m.wall("get_p50_us", get.0, "us");
    m.wall("get_p99_us", get.1, "us");
    m.wall("range_p50_us", range.0, "us");
    m.wall("range_p99_us", range.1, "us");
    m.wall("sidx_p50_us", sidx.0, "us");
    m.wall("put_p50_us", put.0, "us");
    m.wall("put_p99_us", put.1, "us");
    m.exact("model_ingest_s", out.model[0].elapsed_s, "s");
    m.exact("model_compact_s", out.model[1].elapsed_s, "s");
    m.exact("model_query_s", out.model[2].elapsed_s, "s");
    m.exact("space_amp", out.space_amp, "ratio");
    m.wall("setup_s", median(&out.setup_s), "s");
    m.wall("peak_rss_mib", peak_rss_mib(), "MiB");
    m
}

fn samples_json(out: &Outcome) -> String {
    let rows: Vec<String> = ["get", "range", "sidx", "put"]
        .iter()
        .map(|c| format!("\"{c}\": {}", out.lat(c).count))
        .chain([
            format!("\"ingests\": {}", out.ingest_rate.len()),
            format!("\"compactions\": {}", out.compact_rate.len()),
            format!("\"setups\": {}", out.setup_s.len()),
            format!("\"query_ops\": {}", out.query_ops),
        ])
        .collect();
    format!("{{{}}}", rows.join(", "))
}

fn trace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".bench_trace")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kvbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        return selftest(&args);
    }
    let (out, metrics) = if args.trace {
        // Untraced and traced halves on the same seed: the difference in
        // wall time per unit of work is the tracing overhead.
        let half = args.seconds / 2.0;
        let plain = run(
            &args.workload,
            &Ctx {
                seed: args.seed,
                seconds: half,
                tracer: None,
                setups: 1,
            },
        );
        let tracer = Arc::new(Tracer::new());
        let mut out = run(
            &args.workload,
            &Ctx {
                seed: args.seed,
                seconds: half,
                tracer: Some(Arc::clone(&tracer)),
                setups: 1,
            },
        );
        out.attempted += plain.attempted;
        out.failed += plain.failed;
        let overhead = out.unit_cost_s / plain.unit_cost_s - 1.0;
        let mut layers = std::mem::take(&mut out.layers);
        let k = host_slowdown(&out);
        for m in layers.0.iter_mut() {
            if !m.exact && (m.unit == "us" || m.unit == "s") {
                m.value /= k;
            }
        }
        layers.wall("trace.overhead_frac", overhead, "ratio");
        let stem = format!("{}-{}", args.workload, args.seed);
        match tracer.write(&trace_dir(), &stem) {
            Ok(()) => out.note(
                "trace_files",
                format!("\".bench_trace/{stem}.spans.jsonl, .bench_trace/{stem}.summary.json\""),
            ),
            Err(e) => eprintln!("kvbench: writing spans: {e}"),
        }
        (out, layers)
    } else {
        let out = run(
            &args.workload,
            &Ctx {
                seed: args.seed,
                seconds: args.seconds,
                tracer: None,
                setups: SETUPS,
            },
        );
        let metrics = end_to_end(&out);
        (out, metrics)
    };
    let mut provenance = out.provenance.clone();
    provenance.push(("samples".into(), samples_json(&out)));
    provenance.push((
        "host_slowdown".into(),
        format!(
            "{{\"median\": {}, \"min\": {}, \"max\": {}, \"calibrations\": {}, \"calib_ref_ns\": {}}}",
            host_slowdown(&out),
            out.slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
            out.slowdowns.iter().copied().fold(0.0, f64::max),
            out.slowdowns.len(),
            report::CALIB_REF_NS
        ),
    ));
    provenance.push((
        "host_threads".into(),
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    ));
    println!("{}", provenance_line(&provenance));
    println!(
        "{}",
        result_line(out.failed == 0, out.attempted, out.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Exact metrics of one traced run over the workload's exact prefix.
fn exact_metrics(workload: &str, seed: u64) -> (Vec<(String, f64)>, u64) {
    let out = run(
        workload,
        &Ctx {
            seed,
            seconds: 0.0,
            tracer: Some(Arc::new(Tracer::new())),
            setups: 1,
        },
    );
    let e2e = end_to_end(&out);
    let exact = e2e
        .0
        .iter()
        .chain(&out.layers.0)
        .filter(|m| m.exact)
        .map(|m| (m.name.clone(), m.value))
        .collect();
    (exact, out.failed)
}

fn selftest(args: &Args) -> ExitCode {
    let (a, fa) = exact_metrics(&args.workload, args.seed);
    let (b, fb) = exact_metrics(&args.workload, args.seed);
    let (_, fc) = exact_metrics(&args.workload, args.seed.wrapping_add(1));
    let mut ok = fa + fb + fc == 0;
    for ((name, x), (_, y)) in a.iter().zip(&b) {
        if x.to_bits() != y.to_bits() {
            eprintln!("kvbench: selftest: {name} differs between same-seed runs: {x} vs {y}");
            ok = false;
        }
    }
    println!(
        "{{\"selftest\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"exact_metrics\": {}, \"failed\": [{fa}, {fb}, {fc}]}}",
        if ok { "pass" } else { "fail" },
        args.workload,
        args.seed,
        a.len()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
