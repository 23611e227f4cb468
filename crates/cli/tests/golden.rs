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
//!
//! The corpus also pins the two on-disk formats a newer binary must keep
//! reading: `NAME.checkpoint.json` (`mrw-checkpoint-v1`, written by an
//! interrupted `mrw fanout`) must resume to `NAME.report.json`, and
//! `NAME.ledger.json` (`mrw-ledger-v1`, written by `mrw serve --persist`)
//! must warm-start a daemon that answers `NAME.spec.json` from the ledger
//! alone with the same bytes.

use std::path::{Path, PathBuf};
use std::time::Duration;

use assert_cmd::Command;
use mrw_core::query::json;

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

/// A scratch directory removed when the test finishes.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("mrw-golden-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `mrw` run from the repository root with no fault hooks inherited.
fn mrw() -> Command {
    let mut cmd = Command::cargo_bin("mrw").expect("mrw binary built for integration tests");
    cmd.current_dir(repo_root())
        .env_remove("MRW_FAULT_KILL_RANGE_START")
        .env_remove("MRW_FAULT_HANG_RANGE_START")
        .env_remove("MRW_FAULT_CORRUPT_RANGE_START")
        .env_remove("MRW_FAULT_SLOW_MS")
        .env_remove("MRW_FAULT_ONCE")
        .env_remove("MRW_TMPDIR");
    cmd
}

fn golden(name: &str) -> Vec<u8> {
    let path = repo_root().join("tests/golden").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// How to regenerate a golden checkpoint: a fanout whose worker for
/// trials `[kill, …)` dies on its only attempt.
fn checkpoint_regeneration(name: &str, kill: usize) -> String {
    format!(
        "  MRW_FAULT_KILL_RANGE_START={kill} cargo run -q -p mrw-cli --bin mrw -- fanout \\\n    \
         tests/golden/{name}.spec.json --workers 2 --retries 0 --partial-ok \\\n    \
         --checkpoint tests/golden/{name}.checkpoint.json --json > /dev/null"
    )
}

#[test]
fn golden_checkpoints_resume_to_the_golden_reports() {
    // (name, the kill hook that wrote it): a fixed budget interrupted in
    // its only window, and an adaptive one interrupted in wave 2.
    let cases = [("cover", 24), ("cover-adaptive", 48)];
    let tmp = TempDir::new("checkpoint");
    let mut stale = Vec::new();
    for (name, kill) in cases {
        // Resume folds progress back into the file it resumes, so it
        // runs on a copy.
        let copy = tmp.0.join(format!("{name}.checkpoint.json"));
        std::fs::write(&copy, golden(&format!("{name}.checkpoint.json"))).expect("copy");
        let out = mrw()
            .args(["resume", copy.to_str().unwrap(), "--workers", "2", "--json"])
            .assert()
            .success();
        if out.get_output().stdout != golden(&format!("{name}.report.json")) {
            stale.push(checkpoint_regeneration(name, kill));
        }
    }
    assert!(
        stale.is_empty(),
        "{} golden checkpoint(s) no longer resume to their golden report. If the \
         change is deliberate, regenerate from the repository root and log why:\n{}",
        stale.len(),
        stale.join("\n")
    );
}

#[test]
fn golden_ledger_warm_starts_a_byte_identical_hit() {
    let name = "cover-adaptive";
    let tmp = TempDir::new("ledger");
    std::fs::write(
        tmp.0.join("ledger-golden.json"),
        golden(&format!("{name}.ledger.json")),
    )
    .expect("copy ledger");
    let mut daemon = mrw()
        .args(["serve", "--listen", "127.0.0.1:0", "--persist"])
        .arg(&tmp.0)
        .spawn_daemon()
        .expect("spawn mrw serve");
    let ready = Duration::from_secs(20);
    let line = daemon
        .wait_for_line("mrw-serve listening on ", ready)
        .expect("daemon ready line");
    let addr = line.rsplit(' ').next().expect("address on ready line");
    let spec = format!("tests/golden/{name}.spec.json");
    let out = mrw()
        .args(["serve-ctl", "run", &spec, "--connect", addr])
        .assert()
        .success();
    let stats = mrw()
        .args(["serve-ctl", "stats", "--connect", addr])
        .assert()
        .success();
    let stats =
        json::parse(&String::from_utf8_lossy(&stats.get_output().stdout)).expect("stats parses");
    daemon.terminate().expect("SIGTERM");
    assert!(daemon
        .wait_with_timeout(ready)
        .expect("daemon exits")
        .success());
    let executed = stats.get("trials_executed").and_then(|v| v.as_u64());
    let changed = out.get_output().stdout != golden(&format!("{name}.report.json"));
    assert!(
        !changed && executed == Some(0),
        "the golden ledger no longer serves {spec} as a byte-identical hit \
         (trials_executed {executed:?}). If the change is deliberate, regenerate \
         from the repository root and log why:\n  \
         cargo build -q -p mrw-cli --bin mrw\n  \
         target/debug/mrw serve --listen /tmp/mrw.sock --persist /tmp/mrw-ledgers &\n  \
         target/debug/mrw serve-ctl run {spec} --connect /tmp/mrw.sock > /dev/null\n  \
         kill -TERM %1; wait\n  \
         cp /tmp/mrw-ledgers/ledger-*.json tests/golden/{name}.ledger.json"
    );
}
