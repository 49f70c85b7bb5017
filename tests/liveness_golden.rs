//! `examples/liveness_audit.rs` prints the same audit every run.
//!
//! The audit drives a fixed DDB workload under detect-and-resolve, so its
//! stdout and its JSON summary are deterministic; both are pinned under
//! `tests/golden/`. The test runs the example binary that `cargo test`
//! builds beside this one, and fails if it is missing (a test run
//! narrowed with `--test` builds no examples). The example writes its
//! JSON relative to its working directory, so it runs in a directory of
//! its own under the target directory. A change to the audit on purpose
//! regenerates both files from one `cargo run --example liveness_audit`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn example_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    let deps = exe.parent().expect("deps directory");
    deps.join("../examples")
        .join(format!("liveness_audit{}", std::env::consts::EXE_SUFFIX))
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn liveness_audit_output_equals_the_golden_files() {
    let bin = example_binary();
    assert!(
        bin.exists(),
        "{} is missing: run `cargo test` without `--test`, or `cargo build --examples` first",
        bin.display()
    );
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("liveness_audit");
    let json = dir.join("target/experiments/liveness.json");
    let _ = std::fs::remove_file(&json);
    std::fs::create_dir_all(&dir).expect("create the audit's working directory");

    let out = Command::new(&bin)
        .current_dir(&dir)
        .output()
        .expect("spawn liveness_audit");
    assert!(
        out.status.success(),
        "liveness_audit failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(stdout, golden("liveness_audit.txt"), "audit stdout");
    let written = std::fs::read_to_string(&json).expect("the audit writes its JSON");
    assert_eq!(written, golden("liveness.json"), "audit JSON");
}
