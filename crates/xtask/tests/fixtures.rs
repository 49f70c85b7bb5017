//! The fixture corpus pins the exact behaviour of every rule D1–D9:
//! one known-bad and one known-allowed snippet per rule, plus malformed
//! markers. The expected finding set is asserted exactly — a new false
//! positive or a silently dead rule both fail here.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use xtask::rules::Rule;
use xtask::scan::{rust_files, scan_file, FilePolicy, LintReport};

/// Lints the corpus: every `.rs` file under `fixtures/`, every line
/// rule active, files named `lib.rs` treated as crate roots.
fn lint_corpus() -> LintReport {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut report = LintReport::default();
    for path in rust_files(&dir) {
        let rel = path.strip_prefix(&dir).unwrap_or(&path);
        let policy = FilePolicy {
            line_rules: vec![
                Rule::D1,
                Rule::D2,
                Rule::D3,
                Rule::D4,
                Rule::D5,
                Rule::D7,
                Rule::D8,
                Rule::D9,
            ],
            crate_root: path.file_name().is_some_and(|n| n == "lib.rs"),
            test_file: false,
        };
        let source = fs::read_to_string(&path).expect("read fixture");
        scan_file(rel, &source, &policy, &mut report);
    }
    report
}

#[test]
fn fixture_corpus_produces_exactly_the_expected_findings() {
    let report = lint_corpus();
    let got: BTreeSet<(String, String, usize)> = report
        .findings
        .iter()
        .map(|f| (f.file.display().to_string(), f.rule.id().to_owned(), f.line))
        .collect();
    let expected: BTreeSet<(String, String, usize)> = [
        ("bad_marker.rs", "marker", 2),
        ("bad_marker.rs", "marker", 3),
        ("d1_violation.rs", "D1", 2),
        ("d1_violation.rs", "D1", 4),
        ("d1_violation.rs", "D1", 5),
        ("d2_violation.rs", "D2", 3),
        ("d2_violation.rs", "D2", 4),
        ("d3_violation.rs", "D3", 3),
        ("d3_violation.rs", "D3", 8),
        ("d4_violation.rs", "D4", 3),
        ("d4_violation.rs", "D4", 4),
        ("d5_violation.rs", "D5", 3),
        ("d5_violation.rs", "D5", 7),
        ("d6_violation/lib.rs", "D6", 1),
        ("d7_violation.rs", "D7", 3),
        ("d7_violation.rs", "D7", 4),
        ("d8_violation.rs", "D8", 3),
        ("d8_violation.rs", "D8", 4),
        ("d9_violation.rs", "D9", 3),
        ("d9_violation.rs", "D9", 6),
    ]
    .into_iter()
    .map(|(f, r, l)| (f.to_owned(), r.to_owned(), l))
    .collect();
    // D6 reports one finding per missing attribute, both on line 1; the
    // set above collapses them, so also check the raw count.
    assert_eq!(got, expected, "finding set drifted");
    assert_eq!(report.findings.len(), 21, "finding count drifted");
    assert!(!report.clean());
}

#[test]
fn fixture_allow_markers_are_all_reported_and_used() {
    let report = lint_corpus();
    let got: Vec<(String, usize, Vec<Rule>, bool, bool)> = report
        .exceptions
        .iter()
        .map(|e| {
            (
                e.file.display().to_string(),
                e.line,
                e.rules.clone(),
                e.file_scope,
                e.used,
            )
        })
        .collect();
    let expected = vec![
        ("d1_allowed.rs".to_owned(), 2, vec![Rule::D1], false, true),
        ("d1_allowed.rs".to_owned(), 4, vec![Rule::D1], false, true),
        ("d2_allowed.rs".to_owned(), 2, vec![Rule::D2], false, true),
        ("d3_allowed.rs".to_owned(), 2, vec![Rule::D3], false, true),
        ("d4_allowed.rs".to_owned(), 2, vec![Rule::D4], true, true),
        ("d5_allowed.rs".to_owned(), 3, vec![Rule::D5], false, true),
        ("d7_allowed.rs".to_owned(), 6, vec![Rule::D7], false, true),
        ("d8_allowed.rs".to_owned(), 3, vec![Rule::D8], false, true),
        ("d9_allowed.rs".to_owned(), 3, vec![Rule::D9], false, true),
    ];
    assert_eq!(got, expected, "exception audit trail drifted");
    // Every allowed-fixture file must be finding-free.
    for f in &report.findings {
        assert!(
            !f.file.display().to_string().contains("allowed"),
            "allowed fixture produced finding: {f:?}"
        );
    }
}
