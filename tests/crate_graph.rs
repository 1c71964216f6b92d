//! The crate graph holds the device-construction boundary: library code
//! reaches a `KvCsdDevice` only through the cluster router or the proto
//! transport, so health gating, failover and the replica log see every
//! device. A crate can name `kvcsd-core`'s constructors only if it
//! depends on `kvcsd-core`, and this test pins who does.

use std::collections::BTreeSet;
use std::path::Path;

/// `(package name, [dependencies] keys)` of one manifest. A minimal
/// reader for the workspace's own manifests: section headers, `name =`
/// and one dependency per line.
fn manifest(path: &Path) -> (String, BTreeSet<String>) {
    let text = std::fs::read_to_string(path).expect("readable manifest");
    let (mut name, mut deps, mut section) = (String::new(), BTreeSet::new(), "");
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section {
            "[package]" if key == "name" => name = value.trim().trim_matches('"').to_string(),
            "[dependencies]" => {
                let dep = key.split('.').next().unwrap_or(key);
                deps.insert(dep.to_string());
            }
            _ => {}
        }
    }
    (name, deps)
}

#[test]
fn only_the_router_the_facade_and_the_harnesses_depend_on_kvcsd_core() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let path = entry.expect("dir entry").path().join("Cargo.toml");
        if path.exists() {
            manifests.push(path);
        }
    }
    let dependents: BTreeSet<String> = manifests
        .iter()
        .map(|p| manifest(p))
        .filter(|(_, deps)| deps.contains("kvcsd-core"))
        .map(|(name, _)| name)
        .collect();
    // kvcsd-cluster builds the per-shard stacks; the root facade only
    // re-exports; kvcsd-bench and kvcsd-mc are harnesses.
    let expected = ["kvcsd", "kvcsd-bench", "kvcsd-cluster", "kvcsd-mc"];
    assert_eq!(
        dependents,
        expected.iter().map(|s| s.to_string()).collect(),
        "a new kvcsd-core dependent can build a device outside the router"
    );
}
