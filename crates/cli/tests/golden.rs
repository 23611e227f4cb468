//! Golden corpus: `mrw run SPEC --json` must reproduce the committed
//! report bytes for every spec in `tests/golden/`.
//!
//! The other oracles compare two paths of the same build (shard vs whole,
//! serve vs cold run, batched vs scalar), so a change that moves every
//! path the same way — a reordered seed derivation, a changed default —
//! passes all of them. This corpus pins the bytes across versions: each
//! `NAME.spec.json` sits beside the `NAME.report.json` that `mrw run`
//! printed for it. A deliberate byte change regenerates the reports with
//! the command the failure message prints, and says why in the change log.

use std::path::{Path, PathBuf};

use assert_cmd::Command;

/// The repository root, where the regeneration commands run.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `NAME.spec.json` in the corpus, as paths relative to the root.
fn specs() -> Vec<String> {
    let dir = repo_root().join("tests/golden");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read tests/golden")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".spec.json"))
        .map(|n| format!("tests/golden/{n}"))
        .collect();
    names.sort();
    names
}

#[test]
fn golden_reports_are_byte_identical() {
    let specs = specs();
    assert!(specs.len() >= 10, "golden corpus shrank to {}", specs.len());
    let mut stale = Vec::new();
    for spec in &specs {
        let report = spec.replace(".spec.json", ".report.json");
        let expected = std::fs::read(repo_root().join(&report))
            .unwrap_or_else(|e| panic!("{report}: {e} (every spec needs a committed report)"));
        let out = Command::cargo_bin("mrw")
            .expect("mrw binary built for integration tests")
            .args(["run", spec, "--json"])
            .current_dir(repo_root())
            .assert()
            .success();
        if out.get_output().stdout != expected {
            stale.push(format!(
                "  cargo run -q -p mrw-cli --bin mrw -- run {spec} --json > {report}"
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "{} golden report(s) changed bytes. If the change is deliberate, \
         regenerate from the repository root and log why:\n{}",
        stale.len(),
        stale.join("\n")
    );
}
