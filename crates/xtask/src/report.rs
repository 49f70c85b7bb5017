//! Terminal rendering of a lint report.

use std::fmt::Write as _;

use crate::scan::LintReport;

/// Renders the report for terminals: findings first, then the exception
/// audit trail, then a one-line verdict.
pub fn human(report: &LintReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "cmh-lint: scanned {} files", report.files_scanned);
    if report.findings.is_empty() {
        let _ = writeln!(out, "findings: none");
    } else {
        let _ = writeln!(out, "findings: {}", report.findings.len());
        for f in &report.findings {
            let _ = writeln!(
                out,
                "  {}:{} [{}] {} — {}",
                f.file.display(),
                f.line,
                f.rule,
                f.rule.describe(),
                f.excerpt
            );
        }
    }
    if report.exceptions.is_empty() {
        let _ = writeln!(out, "exceptions: none");
    } else {
        let _ = writeln!(out, "exceptions: {}", report.exceptions.len());
        for e in &report.exceptions {
            let rules: Vec<&str> = e.rules.iter().map(|r| r.id()).collect();
            let _ = writeln!(
                out,
                "  {}:{} {}({}) — {}{}",
                e.file.display(),
                e.line,
                if e.file_scope { "allow-file" } else { "allow" },
                rules.join(","),
                e.reason,
                if e.used { "" } else { " [UNUSED]" }
            );
        }
    }
    let _ = writeln!(
        out,
        "{}",
        if report.clean() {
            "result: ok"
        } else {
            "result: FAILED"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;
    use crate::scan::{Exception, Finding};
    use std::path::PathBuf;

    fn sample() -> LintReport {
        LintReport {
            findings: vec![Finding {
                rule: Rule::D1,
                file: PathBuf::from("a/b.rs"),
                line: 3,
                excerpt: "let m: HashMap<u8, u8> = \"x\\\"\".into();".to_owned(),
            }],
            exceptions: vec![Exception {
                file: PathBuf::from("c.rs"),
                line: 1,
                rules: vec![Rule::D2, Rule::D4],
                reason: "live runtime".to_owned(),
                file_scope: true,
                used: true,
            }],
            files_scanned: 2,
        }
    }

    #[test]
    fn human_output_names_rule_and_verdict() {
        let h = human(&sample());
        assert!(h.contains("[D1]"));
        assert!(h.contains("result: FAILED"));
        assert!(h.contains("allow-file(D2,D4)"));
    }
}
