//! CLI for the workspace lint pass. See the library docs for the rules.
//!
//! ```text
//! cargo run -p kvcsd-check                          # check the workspace root
//! cargo run -p kvcsd-check -- --root path           # check another tree
//! cargo run -p kvcsd-check -- --rule shared-raw     # run a subset of rules
//! cargo run -p kvcsd-check -- --format json         # machine-readable report
//! cargo run -p kvcsd-check -- --baseline check_baseline.json
//! cargo run -p kvcsd-check -- --write-baseline check_baseline.json
//! ```
//!
//! Exit status: 0 when clean, 1 on any violation (`-D` semantics — there
//! is no warn level) or baseline drift, 2 on usage errors.
//!
//! The baseline records every *finding identity* — violations (which the
//! committed baseline keeps empty) and granted allow comments keyed on
//! `(file, rule, reason)`, line numbers deliberately omitted so ordinary
//! edits don't churn it. `--baseline` compares the current tree against
//! the committed file and fails loud on any drift in either direction:
//! a new exemption is a reviewable event even though it silences its
//! rule, and a stale baseline entry means the file no longer tells the
//! truth.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::ExitCode;

use kvcsd_check::{CheckReport, Violation};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut rules: Vec<String> = Vec::new();
    let mut json = false;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a path"),
            },
            "--rule" => match args.next() {
                Some(v) if kvcsd_check::RULES.contains(&v.as_str()) => rules.push(v),
                Some(v) => return usage(&format!("unknown rule `{v}`")),
                None => return usage("--rule needs a name"),
            },
            "--format" => match args.next() {
                Some(v) if v == "json" => json = true,
                Some(v) if v == "text" => json = false,
                Some(v) => return usage(&format!("unknown format `{v}` (text|json)")),
                None => return usage("--format needs a name (text|json)"),
            },
            "--baseline" => match args.next() {
                Some(v) => baseline = Some(PathBuf::from(v)),
                None => return usage("--baseline needs a path"),
            },
            "--write-baseline" => match args.next() {
                Some(v) => write_baseline = Some(PathBuf::from(v)),
                None => return usage("--write-baseline needs a path"),
            },
            "--help" | "-h" => {
                println!(
                    "kvcsd-check [--root <dir>] [--rule <{}>]... [--format text|json] [--baseline <file>] [--write-baseline <file>]",
                    kvcsd_check::RULES.join("|")
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    // Default to the workspace root: the manifest dir's grandparent when
    // running via `cargo run -p kvcsd-check`, else the current directory.
    let root = root.unwrap_or_else(|| {
        option_env!("CARGO_MANIFEST_DIR")
            .map(|d| {
                let p = PathBuf::from(d);
                p.ancestors().nth(2).map(PathBuf::from).unwrap_or(p)
            })
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let mut report = kvcsd_check::check_tree_report(&root);
    if !rules.is_empty() {
        report
            .violations
            .retain(|v| rules.iter().any(|r| r == v.rule));
        report.allows.retain(|a| rules.contains(&a.rule));
    }

    if let Some(path) = write_baseline {
        let text = baseline_text(&report);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("kvcsd-check: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "kvcsd-check: wrote baseline ({} violation(s), {} allow(s)) to {}",
            report.violations.len(),
            report.allows.len(),
            path.display()
        );
    }

    let mut drift = false;
    if let Some(path) = baseline {
        let committed = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("kvcsd-check: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let want = entry_lines(&committed);
        let have = entry_lines(&baseline_text(&report));
        for line in have.iter().filter(|l| !want.contains(*l)) {
            println!("baseline drift (new finding): {line}");
            drift = true;
        }
        for line in want.iter().filter(|l| !have.contains(*l)) {
            println!("baseline drift (stale entry): {line}");
            drift = true;
        }
        if drift {
            println!(
                "kvcsd-check: findings differ from {} — review, then refresh with --write-baseline",
                path.display()
            );
        }
    }

    if json {
        println!("{}", report_json(&root, &report));
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        if report.violations.is_empty() {
            println!(
                "kvcsd-check: clean ({}, {} allow(s) granted)",
                root.display(),
                report.allows.len()
            );
        } else {
            println!("kvcsd-check: {} violation(s)", report.violations.len());
        }
    }
    if report.violations.is_empty() && !drift {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Minimal JSON string escaping — the report contains no exotic control
/// characters, but backslashes and quotes appear in rule messages.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render entry lines as a JSON array literal indented for the report
/// wrapper; `[]` when empty.
fn json_array(entries: &[String]) -> String {
    if entries.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n  ]", entries.join(",\n"))
    }
}

fn violation_entry(v: &Violation, with_line: bool) -> String {
    let line = if with_line {
        format!("\"line\":{},", v.line)
    } else {
        String::new()
    };
    format!(
        "{{\"file\":\"{}\",{line}\"rule\":\"{}\",\"message\":\"{}\"}}",
        json_escape(&v.file.display().to_string()),
        v.rule,
        json_escape(&v.message)
    )
}

/// The full machine-readable report (`--format json`), line numbers
/// included.
fn report_json(root: &std::path::Path, report: &CheckReport) -> String {
    let violations: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("    {}", violation_entry(v, true)))
        .collect();
    let allows: Vec<String> = report
        .allows
        .iter()
        .map(|a| {
            format!(
                "    {{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"reason\":\"{}\"}}",
                json_escape(&a.file),
                a.line,
                a.rule,
                json_escape(&a.reason)
            )
        })
        .collect();
    format!(
        "{{\n  \"root\": \"{}\",\n  \"violations\": {},\n  \"allows\": {}\n}}",
        json_escape(&root.display().to_string()),
        json_array(&violations),
        json_array(&allows)
    )
}

/// Canonical baseline serialization: one entry per line, sorted, line
/// numbers omitted so edits that merely move code don't churn the file.
fn baseline_text(report: &CheckReport) -> String {
    let mut violations: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("    {}", violation_entry(v, false)))
        .collect();
    violations.sort();
    violations.dedup();
    let mut allows: Vec<String> = report
        .allows
        .iter()
        .map(|a| {
            format!(
                "    {{\"file\":\"{}\",\"rule\":\"{}\",\"reason\":\"{}\"}}",
                json_escape(&a.file),
                a.rule,
                json_escape(&a.reason)
            )
        })
        .collect();
    allows.sort();
    allows.dedup();
    format!(
        "{{\n  \"violations\": {},\n  \"allows\": {}\n}}\n",
        json_array(&violations),
        json_array(&allows)
    )
}

/// The comparable entry lines of a baseline document: every line that is
/// an object literal, trimmed, trailing comma dropped. Comparing entry
/// *sets* keeps the diff independent of ordering and surrounding
/// whitespace.
fn entry_lines(text: &str) -> std::collections::BTreeSet<String> {
    text.lines()
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .filter(|l| l.starts_with("{\"file\""))
        .collect()
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("kvcsd-check: {msg}");
    eprintln!(
        "usage: kvcsd-check [--root <dir>] [--rule <{}>]... [--format text|json] [--baseline <file>] [--write-baseline <file>]",
        kvcsd_check::RULES.join("|")
    );
    ExitCode::from(2)
}
