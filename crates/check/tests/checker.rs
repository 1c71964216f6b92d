//! Integration tests for `kvcsd-check`: the seeded fixtures under
//! `tests/fixtures/` must trip exactly the rules they seed, files with
//! valid exemptions must scan clean, and the binary must exit non-zero
//! on a dirty tree and zero on the real workspace.

use kvcsd_check::{
    build_context, check_source, check_source_with_context, rules_for, RuleSet, Violation,
};
use std::path::Path;

/// Scan a fixture as if it were library source, so every rule applies.
/// (The literal `tests/fixtures/` path is exempt from all rules — that is
/// itself asserted below — hence the pretend path.)
fn scan(name: &str, source: &str) -> Vec<Violation> {
    let rel = format!("crates/demo/src/{name}");
    check_source(Path::new(&rel), &rel, source)
}

#[test]
fn fixture_trees_are_never_checked() {
    assert_eq!(
        rules_for("crates/check/tests/fixtures/bad_ledger.rs"),
        RuleSet::none()
    );
    assert_eq!(rules_for("target/debug/build/out.rs"), RuleSet::none());
}

#[test]
fn seeded_shared_raw_violations_are_flagged() {
    let v = scan(
        "bad_shared_raw.rs",
        include_str!("fixtures/bad_shared_raw.rs"),
    );
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![8, 12], "{v:#?}");
    assert!(v.iter().all(|v| v.rule == "shared-raw"));
}

#[test]
fn shared_raw_taint_crosses_files() {
    let gauge = "pub struct HitGauge {\n    hits: std::cell::Cell<u64>,\n}\n";
    let share =
        "use std::sync::Arc;\npub fn publish(g: HitGauge) -> Arc<HitGauge> {\n    Arc::new(g)\n}\n";
    let sources = vec![
        ("crates/demo/src/gauge.rs".to_string(), gauge.to_string()),
        ("crates/demo/src/share.rs".to_string(), share.to_string()),
    ];
    let ctx = build_context(&sources);
    assert!(
        ctx.interior_mutable.contains_key("HitGauge"),
        "pass 1 must collect the tainted struct: {ctx:?}"
    );
    let rel = "crates/demo/src/share.rs";
    let v = check_source_with_context(Path::new(rel), rel, share, &ctx);
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].rule, "shared-raw");
    assert!(
        v[0].message.contains("gauge.rs"),
        "report names the defining file: {}",
        v[0].message
    );
    // Without the context the same file scans clean — the taint really
    // is cross-file knowledge.
    let solo = scan("share.rs", share);
    assert!(solo.is_empty(), "{solo:#?}");
}

#[test]
fn sim_substrate_is_exempt_from_the_shared_state_rules() {
    assert!(
        !rules_for("crates/sim/src/sync.rs").shared_raw,
        "the shims are interior-mutable by definition"
    );
    assert!(!rules_for("crates/sim/src/perturb.rs").shared_raw);
    assert!(rules_for("crates/core/src/device.rs").shared_raw);
    assert!(!rules_for("tests/stress_mt.rs").shared_raw);
}

#[test]
fn seeded_router_bypass_violations_are_flagged() {
    let v = scan(
        "bad_router_bypass.rs",
        include_str!("fixtures/bad_router_bypass.rs"),
    );
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(
        lines,
        vec![8, 12, 16, 20],
        "type mentions, strings, cfg(test) and the allow stay silent: {v:#?}"
    );
    assert!(v.iter().all(|v| v.rule == "router-bypass"));
    assert!(v.iter().any(|v| v.message.contains("cluster router")));
}

#[test]
fn router_bypass_exempts_the_sanctioned_constructors() {
    assert!(
        !rules_for("crates/core/src/stack.rs").router_bypass,
        "the device stack is the one library constructor"
    );
    assert!(!rules_for("crates/cluster/src/shard.rs").router_bypass);
    assert!(!rules_for("crates/sim/src/fault.rs").router_bypass);
    assert!(
        !rules_for("crates/bench/src/testbed.rs").router_bypass,
        "the bench testbed measures bare devices in isolation"
    );
    assert!(!rules_for("tests/cluster_torture.rs").router_bypass);
    assert!(!rules_for("examples/quickstart.rs").router_bypass);
    assert!(rules_for("crates/core/src/device.rs").router_bypass);
    assert!(rules_for("crates/core/src/lib.rs").router_bypass);
    assert!(rules_for("crates/client/src/api.rs").router_bypass);
    assert!(rules_for("crates/workloads/src/lib.rs").router_bypass);
}

#[test]
fn valid_allows_and_test_regions_scan_clean() {
    let v = scan("allowed.rs", include_str!("fixtures/allowed.rs"));
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn bad_allows_are_themselves_violations() {
    let v = scan("bad_allow.rs", include_str!("fixtures/bad_allow.rs"));
    let mut kinds: Vec<(usize, &str)> = v.iter().map(|v| (v.line, v.rule)).collect();
    kinds.sort();
    assert_eq!(
        kinds,
        vec![
            (5, "allow"),          // unknown rule name
            (6, "router-bypass"),  // ...so the construction below it still fires
            (10, "allow"),         // a retired rule, now a clippy lint
            (11, "router-bypass"), // ...likewise
            (15, "allow"),         // legacy `:` separator grants nothing
            (16, "router-bypass"), // ...likewise
            (20, "allow"),         // empty reason after ` -- `
            (21, "router-bypass"), // ...likewise
            (24, "allow"),         // unused allow
        ],
        "{v:#?}"
    );
    assert!(v
        .iter()
        .any(|v| v.message.contains("unknown rule `panics`")));
    assert!(
        v.iter()
            .any(|v| v.message.contains("unknown rule `unwrap`")),
        "a stale allow of a retired rule must not linger silently: {v:#?}"
    );
    assert!(v.iter().any(|v| v.message.contains("without ` -- reason`")));
    assert!(v.iter().any(|v| v.message.contains("empty reason")));
    assert!(v.iter().any(|v| v.message.contains("unused allow")));
}

// ---- flow rules (scope-tree engine) -------------------------------------

#[test]
fn seeded_guard_across_wait_violations_are_flagged() {
    let v = scan(
        "bad_guard_wait.rs",
        include_str!("fixtures/bad_guard_wait.rs"),
    );
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(
        lines,
        vec![7, 13, 18],
        "admission stall, clock charge, temporary in args: {v:#?}"
    );
    assert!(v.iter().all(|v| v.rule == "guard-across-wait"));
    assert!(v.iter().any(|v| v.message.contains("Mutex guard `stats`")));
    assert!(v.iter().any(|v| v.message.contains("read guard `view`")));
    assert!(v.iter().any(|v| v.message.contains("temporary guard")));
}

#[test]
fn clean_guard_wait_interleavings_scan_clean() {
    let v = scan(
        "good_guard_wait.rs",
        include_str!("fixtures/good_guard_wait.rs"),
    );
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn guard_across_wait_sees_one_level_wrappers() {
    let wrapper =
        "impl Device {\n    pub fn charge_wait(&self, ns: u64) {\n        self.clock.advance(ns);\n    }\n}\n";
    let holder = "impl Device {\n    pub fn commit(&self) {\n        let log = self.log.lock();\n        self.charge_wait(5);\n        log.seal();\n    }\n}\n";
    let sources = vec![
        ("crates/demo/src/device.rs".to_string(), wrapper.to_string()),
        ("crates/demo/src/commit.rs".to_string(), holder.to_string()),
    ];
    let ctx = build_context(&sources);
    let rel = "crates/demo/src/commit.rs";
    let v = check_source_with_context(Path::new(rel), rel, holder, &ctx);
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].rule, "guard-across-wait");
    assert!(
        v[0].message.contains("charge_wait") && v[0].message.contains("device.rs"),
        "one-level summary names the wrapper and its defining file: {}",
        v[0].message
    );
    // Without the cross-file summary the same file scans clean — the
    // wrapper knowledge really is one call level deep.
    let solo = scan("commit.rs", holder);
    assert!(solo.is_empty(), "{solo:#?}");
}

#[test]
fn guard_across_wait_exempts_substrate_and_bench() {
    assert!(rules_for("crates/core/src/device.rs").guard_across_wait);
    assert!(rules_for("crates/cluster/src/router.rs").guard_across_wait);
    assert!(!rules_for("crates/sim/src/bus.rs").guard_across_wait);
    assert!(!rules_for("crates/bench/src/testbed.rs").guard_across_wait);
    assert!(!rules_for("tests/cluster_torture.rs").guard_across_wait);
}

#[test]
fn seeded_ledger_charge_violations_are_flagged() {
    let rel = "crates/flash/src/demo.rs";
    let v = check_source(Path::new(rel), rel, include_str!("fixtures/bad_ledger.rs"));
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![6, 10], "page store + bus occupancy: {v:#?}");
    assert!(v.iter().all(|v| v.rule == "ledger-charge"));
    assert!(v.iter().any(|v| v.message.contains("NAND page store")));
    assert!(v.iter().any(|v| v.message.contains("bus occupancy")));
}

#[test]
fn charged_media_touches_scan_clean() {
    let rel = "crates/flash/src/demo.rs";
    let src = include_str!("fixtures/good_ledger.rs");
    let sources = vec![(rel.to_string(), src.to_string())];
    let ctx = build_context(&sources);
    let v = check_source_with_context(Path::new(rel), rel, src, &ctx);
    assert!(
        v.is_empty(),
        "direct charges and the same-crate wrapper both count: {v:#?}"
    );
}

#[test]
fn ledger_charge_scope_is_flash_and_sim_library_code() {
    assert!(rules_for("crates/flash/src/nand.rs").ledger_charge);
    assert!(rules_for("crates/sim/src/bus.rs").ledger_charge);
    assert!(!rules_for("crates/sim/src/ledger.rs").ledger_charge);
    assert!(!rules_for("crates/core/src/device.rs").ledger_charge);
    assert!(!rules_for("crates/flash/tests/nand_torture.rs").ledger_charge);
}

#[test]
fn seeded_epoch_fence_violations_are_flagged() {
    let rel = "crates/cluster/src/demo.rs";
    let v = check_source(
        Path::new(rel),
        rel,
        include_str!("fixtures/bad_epoch_fence.rs"),
    );
    let hits: Vec<(usize, &str)> = v.iter().map(|v| (v.line, v.rule)).collect();
    assert_eq!(
        hits,
        vec![(6, "epoch-fence"), (10, "epoch-fence")],
        "xmit + transfer flagged, cfg(test) send exempt: {v:#?}"
    );
    assert!(v.iter().any(|v| v.message.contains("`BusResource::xmit`")));
    assert!(v
        .iter()
        .any(|v| v.message.contains("`BusResource::transfer`")));
    assert!(v.iter().all(|v| v.message.contains("fenced send path")));
}

#[test]
fn reasoned_epoch_fence_allow_scans_clean() {
    let rel = "crates/cluster/src/demo.rs";
    let v = check_source(
        Path::new(rel),
        rel,
        include_str!("fixtures/good_epoch_fence.rs"),
    );
    assert!(v.is_empty(), "allow consumed, no unused-allow: {v:#?}");
}

#[test]
fn epoch_fence_scope_is_cluster_library_minus_the_send_path() {
    assert!(rules_for("crates/cluster/src/router.rs").epoch_fence);
    assert!(rules_for("crates/cluster/src/shard.rs").epoch_fence);
    assert!(
        !rules_for("crates/cluster/src/replica.rs").epoch_fence,
        "the fenced send path itself is the sanctioned sender"
    );
    assert!(
        !rules_for("crates/sim/src/bus.rs").epoch_fence,
        "the sim layer implements the primitives"
    );
    assert!(!rules_for("tests/partition.rs").epoch_fence);
    assert!(!rules_for("crates/client/src/api.rs").epoch_fence);
}

#[test]
fn window_stalls_are_charged_waits_and_the_transport_submit_is_not() {
    // The transport's `submit` returns its completion without moving the
    // clock; the window's depth stall and its wait for the earliest
    // completion are `advance_to` (wrappers of it are covered by
    // `guard_across_wait_sees_one_level_wrappers`).
    let src = "impl Window {\n\
               \x20   pub fn send(&self) {\n\
               \x20       let stats = self.stats.lock();\n\
               \x20       self.qp.submit(ping());\n\
               \x20       stats.note();\n\
               \x20   }\n\
               \x20   pub fn submit(&self, t: u64) {\n\
               \x20       let st = self.state.lock();\n\
               \x20       self.pipe_clock.advance_to(t);\n\
               \x20       st.note();\n\
               \x20   }\n\
               \x20   pub fn wait(&self, t: u64) {\n\
               \x20       let view = self.view.read();\n\
               \x20       self.clock.advance_to(t);\n\
               \x20       view.observe();\n\
               \x20   }\n\
               }\n";
    let v = scan("window.rs", src);
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(
        lines,
        vec![9, 14],
        "a guard across the depth stall and across the completion wait; none \
         across the transport submit: {v:#?}"
    );
    assert!(v.iter().all(|v| v.rule == "guard-across-wait"), "{v:#?}");
    assert!(v.iter().any(|v| v.message.contains("`advance_to`")));
    assert!(!v
        .iter()
        .any(|v| v.message.contains("`submit` (a charged wait)")));
}

// ---- binary-level tests -------------------------------------------------

fn run_check(args: &[&str]) -> (bool, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_kvcsd-check"))
        .args(args)
        .output()
        .expect("spawn kvcsd-check");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// A library file with one `router-bypass` finding.
const DIRTY_LIB: &[&str] = &[
    "pub fn f(g: Geometry) -> KvCsdDevice {",
    "    KvCsdDevice::new(g)",
    "}",
];

/// Build a throwaway tree containing one file made of `lines`.
fn temp_tree(tag: &str, lines: &[&str]) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("kvcsd-check-{}-{tag}", std::process::id()));
    let src = root.join("src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(src.join("lib.rs"), lines.join("\n")).expect("write");
    root
}

#[test]
fn binary_exits_nonzero_on_dirty_tree() {
    let root = temp_tree("dirty", DIRTY_LIB);
    let (ok, stdout) = run_check(&["--root", root.to_str().expect("utf8 path")]);
    std::fs::remove_dir_all(&root).ok();
    assert!(!ok, "expected failure exit: {stdout}");
    assert!(stdout.contains("[router-bypass]"), "{stdout}");
    assert!(stdout.contains("violation(s)"), "{stdout}");
}

#[test]
fn binary_rule_filter_narrows_the_scan() {
    let root = temp_tree("filtered", DIRTY_LIB);
    let (ok, stdout) = run_check(&[
        "--root",
        root.to_str().expect("utf8 path"),
        "--rule",
        "epoch-fence",
    ]);
    std::fs::remove_dir_all(&root).ok();
    assert!(ok, "router-bypass finding must be filtered out: {stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn binary_exits_zero_on_the_workspace() {
    // The acceptance gate: the real tree stays clean. Matches the CI
    // `check` job, which runs the binary with its default root.
    let ws = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let (ok, stdout) = run_check(&["--root", ws.to_str().expect("utf8 path")]);
    assert!(ok, "workspace must be checker-clean:\n{stdout}");
}

#[test]
fn binary_json_output_and_baseline_detect_allow_drift() {
    let root = temp_tree(
        "json",
        &[
            "pub fn f(g: Geometry) -> KvCsdDevice {",
            "    // kvcsd-check: allow(router-bypass) -- fixture reason",
            "    KvCsdDevice::new(g)",
            "}",
        ],
    );
    let root_s = root.to_str().expect("utf8 path");
    let (ok, stdout) = run_check(&["--root", root_s, "--format", "json"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"violations\""), "{stdout}");
    assert!(stdout.contains("\"allows\""), "{stdout}");
    assert!(stdout.contains("fixture reason"), "{stdout}");

    let base = root.join("base.json");
    let base_s = base.to_str().expect("utf8 path");
    let (ok, stdout) = run_check(&["--root", root_s, "--write-baseline", base_s]);
    assert!(ok, "{stdout}");
    let (ok, stdout) = run_check(&["--root", root_s, "--baseline", base_s]);
    assert!(ok, "fresh baseline must compare clean: {stdout}");

    // A brand-new allow keeps the tree violation-free but must still be
    // loud against the baseline.
    std::fs::write(
        root.join("src").join("extra.rs"),
        "pub fn g(g: Geometry) -> KvCsdDevice {\n    // kvcsd-check: allow(router-bypass) -- second reason\n    KvCsdDevice::reopen(g)\n}\n",
    )
    .expect("write");
    let (ok, stdout) = run_check(&["--root", root_s, "--baseline", base_s]);
    std::fs::remove_dir_all(&root).ok();
    assert!(!ok, "baseline drift must fail the run: {stdout}");
    assert!(stdout.contains("baseline drift (new finding)"), "{stdout}");
    assert!(stdout.contains("second reason"), "{stdout}");
}

#[test]
fn workspace_matches_the_committed_baseline() {
    // The CI drift gate, asserted in-tree as well: findings against the
    // real workspace must equal check_baseline.json exactly.
    let ws = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let base = ws.join("check_baseline.json");
    let (ok, stdout) = run_check(&[
        "--root",
        ws.to_str().expect("utf8 path"),
        "--baseline",
        base.to_str().expect("utf8 path"),
    ]);
    assert!(ok, "workspace drifted from check_baseline.json:\n{stdout}");
}

#[test]
fn binary_rejects_unknown_arguments() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_kvcsd-check"))
        .arg("--frobnicate")
        .output()
        .expect("spawn kvcsd-check");
    assert_eq!(out.status.code(), Some(2));
}
