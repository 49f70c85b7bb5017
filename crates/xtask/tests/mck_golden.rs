//! The model checker's report, byte for byte.
//!
//! `xtask mck` prints every case's schedule counts and every caught
//! mutation's violation message, and no times, so its whole stdout is
//! pinned in `crates/xtask/golden/mck.txt`: a moved schedule count or a
//! reworded violation fails here, and so does a case that stops
//! verifying (its line reads `FAIL`). Run with
//! `cargo test --release -p xtask --test mck_golden`. A report that
//! changes on purpose regenerates the file by redirecting
//! `cargo run --release -q -p xtask -- mck`.

use std::path::Path;
use std::process::Command;

#[test]
fn mck_report_equals_the_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("mck")
        .output()
        .expect("spawn xtask mck");
    assert!(
        out.status.success(),
        "xtask mck failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf-8 report");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/mck.txt");
    let want = std::fs::read_to_string(&path).expect("read golden/mck.txt");
    if let Some((line, (w, g))) = want
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
    {
        panic!(
            "mck report differs from {} at line {}\n  golden: {w:?}\n  report: {g:?}",
            path.display(),
            line + 1
        );
    }
    assert_eq!(
        got,
        want,
        "mck report differs from {} in length",
        path.display()
    );
}
