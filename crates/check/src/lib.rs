//! `kvcsd-check`: the workspace lint pass.
//!
//! Five repo-specific rules that `rustc`/`clippy` cannot express — each
//! is flow-aware, cross-file or scoped by path — guarding invariants the
//! reproduction's correctness argument leans on (see `DESIGN.md` §9, §11
//! and §13):
//!
//! * **`shared-raw`** — no `Arc<...>` of an interior-mutable type (std's
//!   `Atomic*`/`Cell`/`RefCell`/`UnsafeCell`/`OnceCell`, or any workspace
//!   struct with such a field, found by a cross-file pass) in library
//!   code: sharing one bypasses both detectors at once.
//! * **`router-bypass`** — no direct `KvCsdDevice::new`/`::reopen`
//!   construction, and no `DeviceStack::new`/`::with_ledger` stack,
//!   outside `crates/core/src/stack.rs` (the one stack builder),
//!   `crates/cluster` (which builds per-shard stacks), `crates/sim`, and
//!   test/bench harnesses. Library code goes through the cluster router
//!   so health gating, failover and the replica log see every device.
//! * **`guard-across-wait`** — no shim `Mutex`/`RwLock` guard,
//!   `Shared` borrow or DRAM reservation live across a charged wait
//!   (`AdmissionGate` admission, `VirtualClock::advance*`,
//!   `BusResource::transfer`), directly or through a one-level local
//!   wrapper — so the in-flight window's depth stall and its wait for
//!   the next completion, both `advance_to`, are covered. The static
//!   twin of lockdep: a guard held across a stall serialises the
//!   pipeline the paper's host/device split exists to keep parallel.
//! * **`ledger-charge`** — every function in `crates/flash`/`crates/sim`
//!   that touches the NAND page store or a bus occupancy accumulator
//!   must charge the `IoLedger` in the same scope (directly or through a
//!   one-level same-crate wrapper). Uncharged media work makes the
//!   paper's cost model lie.
//! * **`epoch-fence`** — no bus send primitive (`BusResource::xmit` /
//!   `::transfer`) in `crates/cluster` library code outside
//!   `replica.rs`, the fenced send path. Every replication artifact must
//!   cross the fabric through the epoch-stamped, sequence-numbered
//!   stop-and-wait protocol; a raw send would bypass the fencing that
//!   keeps a deposed primary from overwriting its successor's state.
//!
//! The token-level bans are not rules here: the compiler resolves the
//! renamed and grouped imports a lexer misses. Raw `std::sync` locks,
//! wall-clock reads, `thread::sleep`, raw atomics and raw thread spawns
//! are `disallowed-types`/`disallowed-methods` entries in the root
//! `clippy.toml` (kvcsd-sim reads the narrower `crates/sim/clippy.toml`);
//! `unsafe_code` is forbidden workspace-wide; every library crate root
//! warns on `clippy::unwrap_used`/`expect_used`; and both `KvStatus`
//! classifications deny `clippy::wildcard_enum_match_arm`. Keyspace and
//! zone lifecycle states need no rule either: each is a
//! `kvcsd_sim::fsm::Lifecycle` cell whose field is private to that
//! module, held in a private field of its record, so the compiler
//! rejects a state write that skips the transition table.
//!
//! Exemptions are granted inline, and only with a reason:
//!
//! ```text
//! // kvcsd-check: allow(ledger-charge) -- read-only diagnostic, models no media op
//! let pages = ch.pages.len();
//! ```
//!
//! The comment may sit on the offending line or the line above. An allow
//! with an unknown rule name or a missing ` -- reason` tail is itself a
//! violation — the allowlist is checked, not decorative.
//!
//! There is no `syn` here by design: the workspace builds offline with
//! zero external crates, so the checker runs on a small hand-rolled
//! scrub-and-scan lexer. It strips comments, string/char literals and
//! `#[cfg(test)]` regions, then scans what remains for tokens or walks
//! the [`scope`] tree the flow rules need.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod scope;

use lexer::Scrubbed;

/// The rule identifiers, as used in `allow(...)` comments and `--rule`.
pub const RULES: [&str; 5] = [
    "shared-raw",
    "router-bypass",
    "guard-across-wait",
    "ledger-charge",
    "epoch-fence",
];

/// Charged-wait primitives for the `guard-across-wait` rule: method
/// calls that stall the simulated pipeline by charging the virtual
/// clock (`VirtualClock::advance`/`advance_to`), consulting the
/// admission gate (`admit_write`/`admit_query`/`admit_job` — a
/// slowdown/stall band decision whose charge follows immediately), or
/// occupying the replication fabric (`BusResource::transfer` and the
/// fault-aware `BusResource::xmit`, which can burn a whole retry budget
/// of timeouts). The pipelined transport is not one: `QueuePair::submit`
/// returns its completion without moving the clock, and the in-flight
/// window that stalls on it does so with `advance_to`.
pub const WAIT_PRIMITIVES: [&str; 7] = [
    "advance",
    "advance_to",
    "admit_write",
    "admit_query",
    "admit_job",
    "transfer",
    "xmit",
];

/// Ledger charge entry points for the `ledger-charge` rule — the
/// `IoLedger` methods that account for work.
pub const CHARGE_PRIMITIVES: [&str; 12] = [
    "nand_read",
    "nand_program",
    "nand_erase",
    "charge_host_cpu",
    "charge_soc_cpu",
    "dma_h2d",
    "dma_d2h",
    "dma_d2h_payload",
    "fs_call",
    "host_block_io",
    "bridge_busy",
    "bump",
];

/// Raw media/fabric touch markers for the `ledger-charge` rule: direct
/// access to the NAND page store (`ChannelState::pages`) or to a bus
/// channel's occupancy accumulator. A scope containing one of these must
/// also charge the ledger (or call a same-crate function that does).
const MEDIA_TOUCHES: [(&str, &str); 2] = [
    (".pages.", "NAND page store access"),
    ("busy_ns.update(", "bus occupancy accumulation"),
];

/// Bus send primitives for the `epoch-fence` rule: the methods that put
/// bytes on the replication fabric. In `crates/cluster`, only the fenced
/// send path (`replica.rs`) may call them.
pub const BUS_SEND_PRIMITIVES: [(&str, &str); 2] = [
    (".xmit(", "`BusResource::xmit` call"),
    (".transfer(", "`BusResource::transfer` call"),
];

/// One finding, printed as `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULES`], or `"allow"` for a malformed
    /// allow comment).
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Which rules apply to a file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    pub shared_raw: bool,
    pub router_bypass: bool,
    pub guard_across_wait: bool,
    pub ledger_charge: bool,
    pub epoch_fence: bool,
}

impl RuleSet {
    pub fn none() -> Self {
        Self {
            shared_raw: false,
            router_bypass: false,
            guard_across_wait: false,
            ledger_charge: false,
            epoch_fence: false,
        }
    }
}

/// Classify a file by its path (relative to the workspace root, `/`
/// separators). Policy:
///
/// * fixture trees (any `fixtures` component) are never checked — they
///   exist to *contain* violations;
/// * `shared-raw` applies to library source only: it exists to keep
///   *product* shared state observable, and its taint set is collected
///   from library code outside `crates/sim/` (the shims are
///   interior-mutable by definition);
/// * `router-bypass` applies to library source only, minus
///   `crates/core/src/stack.rs` (the device stack wraps the raw
///   constructors), `crates/cluster/` (the shard builder is the
///   sanctioned stack user), `crates/sim/` (substrate) and
///   `crates/bench/` (its testbed stands up bare devices to measure them
///   in isolation): harnesses and
///   `#[cfg(test)]` regions construct devices freely, but product code
///   must reach devices through the cluster router;
/// * `guard-across-wait` applies to library source outside `crates/sim/`
///   (the substrate *implements* the waits — the clock, the perturbation
///   schedule and the bus are below the rule, and lockdep plus the race
///   detector cover them dynamically) and outside `crates/bench/`
///   (single-threaded testbeds drive their clock while holding whatever
///   they like);
/// * `ledger-charge` applies to library source in `crates/flash/` and
///   `crates/sim/` — the only crates that touch media or fabric state
///   directly — except `crates/sim/src/ledger.rs` itself (the charge
///   implementations are where the counters live by definition);
/// * `epoch-fence` applies to library source in `crates/cluster/` only,
///   minus `crates/cluster/src/replica.rs` — the fenced send path is the
///   one sanctioned caller of the bus send primitives, and code below
///   the cluster layer (`crates/sim/`) *implements* them.
pub fn rules_for(rel_path: &str) -> RuleSet {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.iter().any(|p| *p == "fixtures" || *p == "target") {
        return RuleSet::none();
    }
    let harness = parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples");
    RuleSet {
        shared_raw: !harness && !rel_path.starts_with("crates/sim/"),
        router_bypass: !harness
            && rel_path != "crates/core/src/stack.rs"
            && !rel_path.starts_with("crates/cluster/")
            && !rel_path.starts_with("crates/sim/")
            && !rel_path.starts_with("crates/bench/"),
        guard_across_wait: !harness
            && !rel_path.starts_with("crates/sim/")
            && !rel_path.starts_with("crates/bench/"),
        ledger_charge: !harness
            && (rel_path.starts_with("crates/flash/") || rel_path.starts_with("crates/sim/"))
            && rel_path != "crates/sim/src/ledger.rs",
        epoch_fence: !harness
            && rel_path.starts_with("crates/cluster/")
            && rel_path != "crates/cluster/src/replica.rs",
    }
}

/// Crate key for the per-crate call summaries: `crates/<name>/...` maps
/// to `<name>`, everything else (workspace `src/`, `tests/`, examples)
/// to `"root"`.
pub fn crate_key(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("root")
}

/// Cross-file facts the single-file scanners can't see:
///
/// * `interior_mutable` — workspace structs with interior-mutable fields
///   (the `shared-raw` taint set), mapped to the defining file;
/// * `wait_fns` — per crate, functions whose body *directly* calls a
///   [`WAIT_PRIMITIVES`] method: the one-level call summary that lets
///   `guard-across-wait` see through local wrappers like
///   `Device::charge_wait`;
/// * `charge_fns` — the analogous per-crate summary of functions that
///   directly charge the `IoLedger`, for `ledger-charge`.
#[derive(Debug, Clone, Default)]
pub struct CheckContext {
    pub interior_mutable: std::collections::BTreeMap<String, String>,
    pub wait_fns: std::collections::BTreeMap<String, std::collections::BTreeMap<String, String>>,
    pub charge_fns: std::collections::BTreeMap<String, std::collections::BTreeMap<String, String>>,
}

/// Pass 1 of the tree check: collect the `shared-raw` taint set from
/// every library file outside `crates/sim/` (the shims wrap raw cells by
/// definition — that is their whole point) and the per-crate
/// charged-wait / ledger-charge call summaries.
pub fn build_context(sources: &[(String, String)]) -> CheckContext {
    let mut ctx = CheckContext::default();
    for (rel, source) in sources {
        if rules_for(rel) == RuleSet::none() {
            continue;
        }
        let scrubbed = lexer::scrub(source);
        let test_lines = lexer::test_line_ranges(&scrubbed.code);
        if !rel.starts_with("crates/sim/") {
            for (name, offset) in lexer::collect_interior_mutable_structs(&scrubbed.code) {
                let line = scrubbed.line_of(offset);
                if test_lines.iter().any(|&(a, b)| line >= a && line <= b) {
                    continue; // test-local helper types stay local
                }
                ctx.interior_mutable
                    .entry(name)
                    .or_insert_with(|| rel.clone());
            }
        }
        let scopes = scope::analyze(&scrubbed.code);
        let key = crate_key(rel).to_string();
        scope::wait_summary(
            &scopes,
            rel,
            &WAIT_PRIMITIVES,
            ctx.wait_fns.entry(key.clone()).or_default(),
        );
        scope::wait_summary(
            &scopes,
            rel,
            &CHARGE_PRIMITIVES,
            ctx.charge_fns.entry(key).or_default(),
        );
    }
    ctx
}

/// An `// kvcsd-check: allow(rule) -- reason` exemption. The reason is
/// kept for the machine-readable allow inventory ([`CheckReport`]).
#[derive(Debug, Clone)]
struct Allow {
    line: usize,
    rule: String,
    reason: String,
    used: std::cell::Cell<bool>,
}

const ALLOW_TAG: &str = "kvcsd-check:";

fn parse_allows(scrubbed: &Scrubbed, file: &Path, violations: &mut Vec<Violation>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (line, text) in &scrubbed.comments {
        // Doc comments (`///` and `//!` — captured text starts with `/`
        // or `!`) are documentation, not exemptions: they may *mention*
        // the allow syntax without granting anything.
        if text.starts_with('/') || text.starts_with('!') {
            continue;
        }
        let Some(ix) = text.find(ALLOW_TAG) else {
            continue;
        };
        let rest = text[ix + ALLOW_TAG.len()..].trim();
        let bad = |msg: String| Violation {
            file: file.to_path_buf(),
            line: *line,
            rule: "allow",
            message: msg,
        };
        let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            violations.push(bad(format!(
                "malformed allow comment (expected `{ALLOW_TAG} allow(<rule>) -- <reason>`): `{}`",
                text.trim()
            )));
            continue;
        };
        let (rule, tail) = args;
        let rule = rule.trim();
        if !RULES.contains(&rule) {
            violations.push(bad(format!(
                "allow names unknown rule `{rule}` (rules: {})",
                RULES.join(", ")
            )));
            continue;
        }
        // Strict separator: ` -- `. The legacy `:` form parses but is a
        // violation, so stale exemptions surface instead of silently
        // losing their force.
        let reason = match tail.trim_start().strip_prefix("--") {
            Some(r) => r.trim(),
            None => {
                violations.push(bad(format!(
                    "allow({rule}) without ` -- reason` — exemptions must say why \
                     (write `{ALLOW_TAG} allow({rule}) -- <reason>`)"
                )));
                continue;
            }
        };
        if reason.is_empty() {
            violations.push(bad(format!(
                "allow({rule}) has an empty reason — exemptions must say why"
            )));
            continue;
        }
        allows.push(Allow {
            line: *line,
            rule: rule.to_string(),
            reason: reason.to_string(),
            used: std::cell::Cell::new(false),
        });
    }
    allows
}

/// Check one file's source text with an empty cross-file context: the
/// `shared-raw` taint set is limited to the std interior-mutable types.
pub fn check_source(file: &Path, rel_path: &str, source: &str) -> Vec<Violation> {
    check_source_with_context(file, rel_path, source, &CheckContext::default())
}

/// Check one file's source text. `rel_path` picks the rule set; `file` is
/// the path reported in violations; `ctx` carries the cross-file facts
/// from [`build_context`].
pub fn check_source_with_context(
    file: &Path,
    rel_path: &str,
    source: &str,
    ctx: &CheckContext,
) -> Vec<Violation> {
    check_source_report(file, rel_path, source, ctx).0
}

/// A granted (well-formed) allow comment, for the machine-readable
/// inventory: the baseline diff keys on `(file, rule, reason)` so a
/// *new* exemption is loud in CI even when it silences its rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AllowRecord {
    pub file: String,
    /// 1-based line of the comment (reported, not part of the baseline
    /// identity — allows may move as files are edited).
    pub line: usize,
    pub rule: String,
    pub reason: String,
}

/// Like [`check_source_with_context`], but also returns the inventory of
/// well-formed allow comments the file grants.
pub fn check_source_report(
    file: &Path,
    rel_path: &str,
    source: &str,
    ctx: &CheckContext,
) -> (Vec<Violation>, Vec<AllowRecord>) {
    let rules = rules_for(rel_path);
    if rules == RuleSet::none() {
        return (Vec::new(), Vec::new());
    }
    let scrubbed = lexer::scrub(source);
    let test_lines = lexer::test_line_ranges(&scrubbed.code);
    let in_tests = |line: usize| test_lines.iter().any(|&(a, b)| line >= a && line <= b);

    let mut violations = Vec::new();
    let allows = parse_allows(&scrubbed, file, &mut violations);
    let mut push = |line: usize, rule: &'static str, message: String| {
        if let Some(a) = allows
            .iter()
            .find(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
        {
            a.used.set(true);
            return;
        }
        violations.push(Violation {
            file: file.to_path_buf(),
            line,
            rule,
            message,
        });
    };

    if rules.shared_raw {
        let tainted: std::collections::BTreeSet<String> =
            ctx.interior_mutable.keys().cloned().collect();
        for hit in lexer::find_arc_wraps(&scrubbed.code, &tainted) {
            let line = scrubbed.line_of(hit.offset);
            if in_tests(line) {
                continue;
            }
            let mut message = format!(
                "{} — both detectors are blind to it; share a shim lock or kvcsd_sim::sync::Shared instead",
                hit.what
            );
            if let Some(leaf) = hit
                .what
                .strip_prefix("`Arc<")
                .and_then(|r| r.split('>').next())
            {
                if let Some(def) = ctx.interior_mutable.get(leaf) {
                    message.push_str(&format!(" (interior-mutable field declared in {def})"));
                }
            }
            push(line, "shared-raw", message);
        }
    }
    if rules.router_bypass {
        for hit in lexer::find_tokens(&scrubbed.code, lexer::DEVICE_CONSTRUCTION) {
            let line = scrubbed.line_of(hit.offset);
            if in_tests(line) {
                continue;
            }
            push(
                line,
                "router-bypass",
                format!(
                    "{} outside crates/cluster — build devices through the cluster router (ShardInstance) so health gating, failover and replication see them",
                    hit.what
                ),
            );
        }
    }

    if rules.guard_across_wait || rules.ledger_charge {
        let scopes = scope::analyze(&scrubbed.code);
        let key = crate_key(rel_path);
        let empty = std::collections::BTreeMap::new();
        if rules.guard_across_wait {
            let wait_fns = ctx.wait_fns.get(key).unwrap_or(&empty);
            let wait_reason = |c: &scope::CallSite| -> Option<String> {
                if c.method && WAIT_PRIMITIVES.contains(&c.leaf.as_str()) {
                    Some(format!("`{}` (a charged wait)", c.leaf))
                } else {
                    wait_fns.get(&c.leaf).map(|via| format!("`{via}`"))
                }
            };
            for s in &scopes {
                if in_tests(scrubbed.line_of(s.offset)) {
                    continue;
                }
                for g in &s.guards {
                    // One finding per guard: the first charged wait
                    // inside its live range, anchored at the wait line.
                    let Some((c, why)) = s
                        .calls_in_range(g)
                        .filter(|c| c.leaf != s.name)
                        .find_map(|c| wait_reason(c).map(|w| (c, w)))
                    else {
                        continue;
                    };
                    let held = if g.name.is_empty() {
                        g.kind.describe().to_string()
                    } else {
                        format!("{} `{}`", g.kind.describe(), g.name)
                    };
                    push(
                        scrubbed.line_of(c.offset),
                        "guard-across-wait",
                        format!(
                            "{held} (bound on line {}) is live across {why} — drop it before stalling, or the stall serialises every thread behind the lock",
                            scrubbed.line_of(g.offset)
                        ),
                    );
                }
                // A guard constructed *inside* a wait call's argument
                // list is live for the whole call too: temporaries drop
                // at the end of the full statement, after the wait.
                for c in &s.calls {
                    if in_tests(scrubbed.line_of(c.offset)) {
                        continue;
                    }
                    let Some(why) = wait_reason(c) else {
                        continue;
                    };
                    let args = &scrubbed.code[c.args.0..c.args.1];
                    if let Some(pat) = [".lock()", ".read()", ".write()"]
                        .iter()
                        .find(|p| args.contains(*p))
                    {
                        push(
                            scrubbed.line_of(c.offset),
                            "guard-across-wait",
                            format!(
                                "temporary guard (`{pat}` in the argument list) is live across {why} — read the value into a local and drop the guard before waiting"
                            ),
                        );
                    }
                }
            }
        }
        if rules.ledger_charge {
            let charge_fns = ctx.charge_fns.get(key).unwrap_or(&empty);
            for s in &scopes {
                if in_tests(scrubbed.line_of(s.offset)) {
                    continue;
                }
                let charges = s.calls.iter().any(|c| {
                    (c.method && CHARGE_PRIMITIVES.contains(&c.leaf.as_str()))
                        || (c.leaf != s.name && charge_fns.contains_key(&c.leaf))
                });
                if charges {
                    continue;
                }
                let body = &scrubbed.code[s.body.0..s.body.1];
                for (marker, what) in MEDIA_TOUCHES {
                    if let Some(ix) = body.find(marker) {
                        push(
                            scrubbed.line_of(s.body.0 + ix),
                            "ledger-charge",
                            format!(
                                "{what} in `{}` with no IoLedger charge in the same scope — uncharged media/fabric work makes the cost model lie",
                                s.name
                            ),
                        );
                    }
                }
            }
        }
    }
    if rules.epoch_fence {
        for (needle, what) in BUS_SEND_PRIMITIVES {
            let mut from = 0;
            while let Some(ix) = scrubbed.code[from..].find(needle) {
                let off = from + ix;
                from = off + needle.len();
                let line = scrubbed.line_of(off);
                if in_tests(line) {
                    continue;
                }
                push(
                    line,
                    "epoch-fence",
                    format!(
                        "{what} outside the fenced send path — every replication artifact must cross the bus through ReplicaLog's epoch-stamped ship/reseed protocol (crates/cluster/src/replica.rs), or a deposed primary can slip unfenced bytes past the receive fence"
                    ),
                );
            }
        }
    }
    for a in &allows {
        if !a.used.get() {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: a.line,
                rule: "allow",
                message: format!(
                    "unused allow({}) — nothing on this or the next line trips the rule",
                    a.rule
                ),
            });
        }
    }
    violations.sort_by_key(|v| v.line);
    let records = allows
        .iter()
        .map(|a| AllowRecord {
            file: rel_path.to_string(),
            line: a.line,
            rule: a.rule.clone(),
            reason: a.reason.clone(),
        })
        .collect();
    (violations, records)
}

/// Recursively collect the `.rs` files to check under `root`, as
/// `(absolute, workspace-relative)` pairs, sorted for stable output.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                files.push((path, rel));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The full result of a tree sweep: findings plus the allow inventory,
/// the unit the JSON output and the committed baseline serialize.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    pub violations: Vec<Violation>,
    pub allows: Vec<AllowRecord>,
}

/// Check every `.rs` file under `root`, in two passes: pass 1 reads all
/// sources and builds the cross-file [`CheckContext`]; pass 2 scans each
/// file against it. I/O errors surface as violations (line 0) rather
/// than aborting the sweep.
pub fn check_tree(root: &Path) -> Vec<Violation> {
    check_tree_report(root).violations
}

/// [`check_tree`], keeping the allow inventory alongside the violations.
pub fn check_tree_report(root: &Path) -> CheckReport {
    let mut report = CheckReport::default();
    let files = match collect_rs_files(root) {
        Ok(f) => f,
        Err(e) => {
            report.violations.push(Violation {
                file: root.to_path_buf(),
                line: 0,
                rule: "allow",
                message: format!("cannot walk tree: {e}"),
            });
            return report;
        }
    };
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for (path, rel) in files {
        match std::fs::read_to_string(&path) {
            Ok(source) => sources.push((rel, source)),
            Err(e) => report.violations.push(Violation {
                file: path.clone(),
                line: 0,
                rule: "allow",
                message: format!("cannot read: {e}"),
            }),
        }
    }
    let ctx = build_context(&sources);
    for (rel, source) in &sources {
        let (violations, allows) = check_source_report(Path::new(rel), rel, source, &ctx);
        report.violations.extend(violations);
        report.allows.extend(allows);
    }
    report
}
