//! The `xtask` command line: two tasks, no flags. `lint` exits 0 on the
//! workspace; any other argument list prints the usage text and exits 2
//! without running a task.

use std::path::Path;
use std::process::{Command, Output};

fn xtask(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")))
        .output()
        .expect("spawn xtask")
}

#[test]
fn lint_exits_zero_on_the_workspace() {
    let out = xtask(&["lint"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.ends_with("result: ok\n"), "{stdout}");
}

#[test]
fn any_other_argument_list_prints_the_usage_and_exits_two() {
    for args in [
        &["lint", "--json"][..],
        &["mck", "--json"],
        &["lint", "--fixtures"],
        &[],
        &["fmt"],
    ] {
        let out = xtask(args);
        assert_eq!(out.status.code(), Some(2), "xtask {args:?}");
        assert!(out.stdout.is_empty(), "xtask {args:?} ran a task");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("usage: cargo run -p xtask -- lint\n"),
            "xtask {args:?}: {stderr}"
        );
    }
}
