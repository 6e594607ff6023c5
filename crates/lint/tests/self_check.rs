//! The analyzer against the real workspace: the live tree must be
//! clean, and known single-line mutations of real sources must fire.
//! The mutation tests are the analyzer's own lockstep suite — they
//! prove the passes still *can* find the bugs they exist for, so a
//! refactor that silently blinds a pass fails here.

use std::path::Path;

use chopim_lint::Workspace;

fn repo_root() -> &'static Path {
    // crates/lint -> workspace root.
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn read(rel: &str) -> String {
    let p = repo_root().join(rel);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

#[test]
fn real_workspace_is_clean() {
    let ws = Workspace::load(repo_root()).expect("load workspace");
    assert!(
        ws.files.len() > 40,
        "suspiciously few files scanned: {}",
        ws.files.len()
    );
    let diags = ws.run();
    assert!(
        diags.is_empty(),
        "workspace not lint-clean:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn unallowed_hashmap_in_shard_fires_the_determinism_pass() {
    let orig = read("crates/core/src/shard.rs");

    // Control: the real shard is determinism-clean.
    let clean = Workspace::from_sources(&[("crates/core/src/shard.rs", &orig)]);
    assert!(
        !clean.run().iter().any(|d| d.pass == "determinism"),
        "control run already has determinism findings"
    );

    let mutated = format!(
        "{orig}\nfn lint_probe() {{ let m: std::collections::HashMap<u32, u32> = make(); }}\n"
    );
    let ws = Workspace::from_sources(&[("crates/core/src/shard.rs", &mutated)]);
    assert!(
        ws.run()
            .iter()
            .any(|d| d.pass == "determinism" && d.msg.contains("HashMap")),
        "an un-allowed HashMap in shard.rs did not fire the determinism pass"
    );
}

#[test]
fn stripping_cold_from_a_real_codec_fires_the_coldpath_pass() {
    let orig = read("crates/dram/src/trace.rs");
    let needle = "#[cold]";
    assert!(orig.contains(needle), "trace.rs lost its #[cold] markers");
    let mutated = orig.replacen(needle, "", 1);
    let ws = Workspace::from_sources(&[("crates/dram/src/trace.rs", &mutated)]);
    assert!(
        ws.run().iter().any(|d| d.pass == "coldpath"),
        "removing a #[cold] in trace.rs did not fire the coldpath pass"
    );
}
