//! The prose points at real things.
//!
//! DESIGN.md, README.md and EXPERIMENTS.md name repository paths and
//! sections of DESIGN.md, and the sources cite DESIGN sections in their
//! comments. A renamed file or a renumbered section leaves those pointers
//! dangling without failing anything else, so this test checks them:
//!
//! * every backticked or linked path under `crates/`, `tests/`,
//!   `examples/` or `.github/` in the three documents exists;
//! * every `DESIGN §N` or `DESIGN.md §N` in the three documents and in the
//!   Rust sources under `crates/`, `tests/`, `examples/` and `src/` names a
//!   `## N.` heading of DESIGN.md;
//! * the table lines of each `# E<n>` section of EXPERIMENTS.md are one
//!   contiguous block of the table lines of that experiment's golden file,
//!   `crates/bench/tests/golden/eNN.txt`, which
//!   `crates/bench/tests/golden_tables.rs` holds to the binary's stdout.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];
const PATH_ROOTS: [&str; 4] = ["crates/", "tests/", "examples/", ".github/"];
const SOURCE_DIRS: [&str; 4] = ["crates", "tests", "examples", "src"];
/// E1 to this experiment have a golden file.
const LAST_GOLDEN: u32 = 13;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The spans of `text` between a pair of backticks, and the targets of
/// its Markdown links `](...)`, outside fenced code blocks.
fn quoted_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let mut spans: Vec<String> = prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect();
    let mut rest = prose.as_str();
    while let Some(i) = rest.find("](") {
        rest = &rest[i + 2..];
        if let Some(end) = rest.find(')') {
            spans.push(rest[..end].to_owned());
        }
    }
    spans
}

/// The repository paths a span names: its first word, if that starts
/// with one of [`PATH_ROOTS`], up to any `::item`, `:line` or `#anchor`
/// suffix, with `{a,b}` expanded.
fn span_paths(span: &str) -> Vec<String> {
    let word = span.split_whitespace().next().unwrap_or("");
    if !PATH_ROOTS.iter().any(|r| word.starts_with(r)) || word.contains('*') {
        return Vec::new();
    }
    let word = word.split(['#', ':']).next().unwrap_or(word);
    match (word.find('{'), word.find('}')) {
        (Some(open), Some(close)) if open < close => word[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{}{}", &word[..open], alt, &word[close + 1..]))
            .collect(),
        _ => vec![word.to_owned()],
    }
}

/// Every `N` of a `DESIGN §N` or `DESIGN.md §N` in `text`, with the
/// line it is on.
fn design_refs(text: &str) -> Vec<(usize, u32)> {
    let mut refs = Vec::new();
    for (no, line) in text.lines().enumerate() {
        for (i, _) in line.match_indices("DESIGN") {
            let rest = &line[i + "DESIGN".len()..];
            let rest = rest.strip_prefix(".md").unwrap_or(rest);
            let rest = rest.strip_prefix('`').unwrap_or(rest);
            let Some(rest) = rest.trim_start().strip_prefix('§') else {
                continue;
            };
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if let Ok(n) = digits.parse() {
                refs.push((no + 1, n));
            }
        }
    }
    refs
}

/// The `|` lines of each `# E<n>` section of `text`, by `n`. A section
/// runs to the next `# ` heading.
fn e_sections(text: &str) -> Vec<(u32, Vec<&str>)> {
    let mut sections: Vec<(u32, Vec<&str>)> = Vec::new();
    let mut open = false;
    for line in text.lines() {
        if let Some(heading) = line.strip_prefix("# ") {
            let digits: String = heading
                .strip_prefix('E')
                .unwrap_or("")
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            open = false;
            if let Ok(n) = digits.parse() {
                sections.push((n, Vec::new()));
                open = true;
            }
        } else if open && line.starts_with('|') {
            sections.last_mut().expect("an open section").1.push(line);
        }
    }
    sections
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn doc_paths_exist() {
    let mut missing = Vec::new();
    for doc in DOCS {
        for span in quoted_spans(&read(doc)) {
            for path in span_paths(&span) {
                if !root().join(&path).exists() {
                    missing.push(format!("{doc}: `{path}`"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn design_section_references_resolve() {
    let design = read("DESIGN.md");
    let sections: BTreeSet<u32> = design
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|h| h.split_once('.'))
        .filter_map(|(n, _)| n.parse().ok())
        .collect();
    assert_eq!(
        sections,
        (1..=14).collect(),
        "DESIGN.md's numbered sections"
    );

    let mut files: Vec<PathBuf> = DOCS.iter().map(|d| root().join(d)).collect();
    for dir in SOURCE_DIRS {
        rust_files(&root().join(dir), &mut files);
    }
    let mut cited = 0;
    let mut dangling = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source");
        for (line, n) in design_refs(&text) {
            cited += 1;
            if !sections.contains(&n) {
                let rel = file.strip_prefix(root()).unwrap_or(file);
                dangling.push(format!("{}:{line}: DESIGN §{n}", rel.display()));
            }
        }
    }
    assert!(
        cited > 0,
        "no DESIGN §N reference found: the scanner is broken"
    );
    assert!(
        dangling.is_empty(),
        "references to no DESIGN section:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn experiments_quote_the_golden_tables() {
    let experiments = read("EXPERIMENTS.md");
    let sections = e_sections(&experiments);
    let numbers: BTreeSet<u32> = sections.iter().map(|(n, _)| *n).collect();
    assert!(
        (1..=LAST_GOLDEN).all(|n| numbers.contains(&n)),
        "EXPERIMENTS.md has a section for each of E1–E13, found {numbers:?}"
    );
    let mut wrong = Vec::new();
    for (n, quoted) in sections {
        if n > LAST_GOLDEN {
            if !quoted.is_empty() {
                wrong.push(format!("E{n} quotes a table but has no golden file"));
            }
            continue;
        }
        let file = format!("crates/bench/tests/golden/e{n:02}.txt");
        let golden = read(&file);
        let table: Vec<&str> = golden.lines().filter(|l| l.starts_with('|')).collect();
        if quoted.is_empty() {
            wrong.push(format!("E{n} quotes no table of `{file}`"));
        } else if !table.windows(quoted.len()).any(|w| w == quoted) {
            let stray = quoted.iter().find(|l| !table.contains(l));
            wrong.push(match stray {
                Some(line) => format!("E{n}: `{file}` has no line {line:?}"),
                None => format!("E{n}: the quoted lines are not one block of `{file}`"),
            });
        }
    }
    assert!(
        wrong.is_empty(),
        "EXPERIMENTS.md disagrees with the golden tables:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn scanners_read_the_forms_the_docs_use() {
    assert_eq!(
        span_paths("crates/service/src/{core,node}.rs"),
        ["crates/service/src/core.rs", "crates/service/src/node.rs"]
    );
    assert_eq!(
        span_paths("tests/stress.rs::wide_ddb_mixed_workload_with_resolution_terminates"),
        ["tests/stress.rs"]
    );
    assert_eq!(
        span_paths("crates/xtask/src/lib.rs:32"),
        ["crates/xtask/src/lib.rs"]
    );
    assert!(span_paths("benchmark/README.md").is_empty());
    assert!(span_paths("crates/*/src").is_empty());
    assert_eq!(
        quoted_spans("see [`a`](tests/x.rs)\n```\n`c\n```\nand `b`"),
        ["a", "b", "tests/x.rs"]
    );
    assert_eq!(
        design_refs("DESIGN §12 and DESIGN.md §7\nDESIGN §\n(DESIGN.md §14)"),
        [(1, 12), (1, 7), (3, 14)]
    );
    assert_eq!(
        e_sections("| s |\n# E2: two\n| a |\nx\n| b |\n## Part\n| c |\n# Notes\n| d |\n# E14\n"),
        [(2, vec!["| a |", "| b |", "| c |"]), (14, vec![])]
    );
}
