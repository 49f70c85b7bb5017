//! Human-readable and machine-readable (JSON) rendering of a lint report.

use std::fmt::Write as _;

use crate::scan::{Exception, Finding, LintReport};

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

/// Renders the report as a single JSON object. Hand-rolled emitter — the
/// offline workspace has no JSON crate; the shape is documented in
/// DESIGN.md §10.
pub fn json(report: &LintReport) -> String {
    let mut out = String::new();
    out.push('{');
    let _ = write!(out, "\"files_scanned\":{},", report.files_scanned);
    let _ = write!(out, "\"clean\":{},", report.clean());
    out.push_str("\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&finding_json(f));
    }
    out.push_str("],\"exceptions\":[");
    for (i, e) in report.exceptions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&exception_json(e));
    }
    out.push_str("]}");
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"rule\":{},\"file\":{},\"line\":{},\"excerpt\":{}}}",
        escape(f.rule.id()),
        escape(&f.file.display().to_string()),
        f.line,
        escape(&f.excerpt)
    )
}

fn exception_json(e: &Exception) -> String {
    let rules: Vec<String> = e.rules.iter().map(|r| escape(r.id())).collect();
    format!(
        "{{\"file\":{},\"line\":{},\"rules\":[{}],\"scope\":{},\"reason\":{},\"used\":{}}}",
        escape(&e.file.display().to_string()),
        e.line,
        rules.join(","),
        escape(if e.file_scope { "file" } else { "line" }),
        escape(&e.reason),
        e.used
    )
}

/// JSON string escaping (quotes, backslashes, control characters).
/// Shared with the `mck` sweep's report emitter.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;
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
    fn json_is_well_formed_and_escaped() {
        let j = json(&sample());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"files_scanned\":2"));
        assert!(j.contains("\\\"")); // escaped quote from the excerpt
        assert!(j.contains("\"rules\":[\"D2\",\"D4\"]"));
        assert!(j.contains("\"clean\":false"));
    }

    #[test]
    fn human_output_names_rule_and_verdict() {
        let h = human(&sample());
        assert!(h.contains("[D1]"));
        assert!(h.contains("result: FAILED"));
        assert!(h.contains("allow-file(D2,D4)"));
    }
}
