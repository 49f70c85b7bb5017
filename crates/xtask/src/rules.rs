//! The cmh-lint rule set (D1–D9) and its matchers.
//!
//! Rules D1–D6 protect one property: **a seeded run is a pure function
//! of its inputs**. The golden-digest tests detect a determinism break
//! after the fact; these rules reject the constructs that cause them
//! before the code runs. D7 protects a second pinned property — the
//! simulator's steady-state message path is allocation-free — enforced
//! after the fact by `crates/simnet/tests/alloc_regression.rs`. D8
//! protects a protocol invariant in the DDB controller: every lock
//! release must route through the grant-sweep entry points, because a
//! release that bypasses the sweep strands the waiters it just granted
//! (the PR-6 wedge class). D9 protects the model checker's authority:
//! every event consumed outside the sanctioned engine files is a
//! schedule decision the explorer cannot see or branch on. See
//! DESIGN.md §10 for the written rationale of each rule.

use std::fmt;

/// One lint rule. The discriminants match the documented rule ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `std::collections::HashMap`/`HashSet`: `RandomState` hashing
    /// randomizes iteration order between processes.
    D1,
    /// No wall-clock reads (`Instant`, `SystemTime`): virtual `SimTime`
    /// only, except annotated real-time code.
    D2,
    /// No unseeded randomness (`thread_rng`, OS entropy, `RandomState`):
    /// every random draw must come from the run's seed.
    D3,
    /// No threads (`std::thread`, `rayon`) outside `simnet::batch` and
    /// the sharded stepper, which carry their own audited allow markers:
    /// scheduling nondeterminism must stay out of simulation code.
    D4,
    /// No `todo!`/`unimplemented!`/`dbg!` in non-test code.
    D5,
    /// Crate roots must carry `#![forbid(unsafe_code)]` and
    /// `#![warn(missing_docs)]`.
    D6,
    /// No ungated `summarize(` / `format!(` in simnet's non-test
    /// delivery code: the construction must sit behind
    /// `Trace::is_enabled` on the same line, or carry an allow marker,
    /// so the steady-state message path stays allocation-free.
    D7,
    /// No direct `locks.release(` / `locks.release_all(` in the DDB
    /// controller outside the grant-sweep entry points: a release whose
    /// newly granted waiters are not swept strands them forever (the
    /// liveness wedge of DESIGN §11).
    D8,
    /// No direct event-queue pops (`queue.pop(` / `queue.peek(` /
    /// `queue.peek_key(`) outside the sanctioned engine files
    /// (`sim.rs`, `shard.rs`, `solo.rs`, `explore.rs`, `equeue.rs`): an event
    /// consumed behind the engine's back is a schedule decision the
    /// `simnet::explore` model checker can neither see nor branch on.
    D9,
    /// Pseudo-rule: a malformed `cmh-lint` marker comment (unknown rule
    /// id, missing reason). Cannot itself be allowed.
    BadMarker,
}

impl Rule {
    /// All real (allowable) rules.
    pub const ALL: [Rule; 9] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::D4,
        Rule::D5,
        Rule::D6,
        Rule::D7,
        Rule::D8,
        Rule::D9,
    ];

    /// Parses a rule id as written in an allow marker.
    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim() {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "D4" => Some(Rule::D4),
            "D5" => Some(Rule::D5),
            "D6" => Some(Rule::D6),
            "D7" => Some(Rule::D7),
            "D8" => Some(Rule::D8),
            "D9" => Some(Rule::D9),
            _ => None,
        }
    }

    /// The rule id as written in markers and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
            Rule::D7 => "D7",
            Rule::D8 => "D8",
            Rule::D9 => "D9",
            Rule::BadMarker => "marker",
        }
    }

    /// One-line description used in reports.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::D1 => "randomized-hash collection (HashMap/HashSet) in deterministic code",
            Rule::D2 => "wall-clock read (Instant/SystemTime) outside annotated real-time code",
            Rule::D3 => "unseeded randomness (thread_rng/OS entropy/RandomState)",
            Rule::D4 => {
                "thread spawn/parallelism outside simnet::batch and the sharded sim stepper"
            }
            Rule::D5 => "todo!/unimplemented!/dbg! in non-test code",
            Rule::D6 => "crate root missing #![forbid(unsafe_code)] / #![warn(missing_docs)]",
            Rule::D7 => "per-message summary not gated on Trace::is_enabled (allocates on the hot message path)",
            Rule::D8 => "direct lock release outside the grant-sweep entry points (granted waiters are never swept)",
            Rule::D9 => "direct event-queue pop outside the engine files (bypasses the explore/replay hooks)",
            Rule::BadMarker => "malformed cmh-lint marker",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Token patterns per rule, matched against blanked code lines with
/// identifier-boundary checks on both ends.
fn patterns(rule: Rule) -> &'static [&'static str] {
    match rule {
        Rule::D1 => &["HashMap", "HashSet"],
        Rule::D2 => &["Instant", "SystemTime"],
        Rule::D3 => &[
            "thread_rng",
            "OsRng",
            "getrandom",
            "from_entropy",
            "RandomState",
            "rand::random",
        ],
        Rule::D4 => &[
            "std::thread",
            "rayon",
            "thread::spawn",
            "thread::scope",
            "available_parallelism",
        ],
        Rule::D5 => &["todo!", "unimplemented!", "dbg!"],
        // Trailing `(` keeps declarations like `fn summarize<M>(...)` and
        // identifiers like `summarized` from matching: only call syntax
        // allocates.
        Rule::D7 => &["summarize(", "format!("],
        // Call syntax only, like D7: `fn release(` declarations on the
        // lock table itself don't match.
        Rule::D8 => &["locks.release(", "locks.release_all("],
        // Field-method call syntax, like D8: `fn pop(` declarations on
        // the queue itself (and `q.pop()` in unit tests) don't match.
        Rule::D9 => &["queue.pop(", "queue.peek(", "queue.peek_key("],
        Rule::D6 | Rule::BadMarker => &[],
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds `pattern` in `line` as a whole token: the bytes immediately
/// before and after the match must not extend an identifier.
fn token_match(line: &str, pattern: &str) -> bool {
    let bytes = line.as_bytes();
    let pat_first = pattern.as_bytes()[0];
    let pat_last = *pattern.as_bytes().last().unwrap();
    let mut from = 0usize;
    while let Some(rel) = line[from..].find(pattern) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]) || !is_ident_byte(pat_first);
        let end = at + pattern.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]) || !is_ident_byte(pat_last);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Returns the rules (among `active`) violated by one blanked code line.
pub fn match_line(line: &str, active: &[Rule]) -> Vec<Rule> {
    let mut hits = Vec::new();
    for &rule in active {
        if patterns(rule).iter().any(|p| token_match(line, p)) {
            hits.push(rule);
        }
    }
    hits
}

/// The two inner attributes every crate root must carry (D6), compared
/// with all whitespace stripped.
pub const REQUIRED_ROOT_ATTRS: [&str; 2] = ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"];

/// Checks D6 on a crate root: returns the missing attributes.
pub fn missing_root_attrs(code_lines: &[String]) -> Vec<&'static str> {
    let squashed: String = code_lines
        .iter()
        .flat_map(|l| l.chars())
        .filter(|c| !c.is_whitespace())
        .collect();
    REQUIRED_ROOT_ATTRS
        .iter()
        .filter(|attr| {
            let want: String = attr.chars().filter(|c| !c.is_whitespace()).collect();
            !squashed.contains(&want)
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_boundaries_are_respected() {
        assert!(token_match("use std::collections::HashMap;", "HashMap"));
        assert!(token_match("let m: HashMap<u32, u32>;", "HashMap"));
        assert!(!token_match("let m = FxHashMap::default();", "HashMap"));
        assert!(!token_match("let hashmapper = 1;", "HashMap"));
        assert!(token_match("std::thread::spawn(f)", "std::thread"));
        assert!(token_match(
            "crossbeam::thread::scope(|s| {})",
            "thread::scope"
        ));
    }

    #[test]
    fn d5_macros_match() {
        assert!(token_match("todo!()", "todo!"));
        assert!(!token_match("my_todo!()", "todo!"));
        assert!(token_match("let x = dbg!(y);", "dbg!"));
    }

    #[test]
    fn d7_matches_calls_not_declarations() {
        assert!(token_match("let s = summarize(&msg);", "summarize("));
        assert!(token_match(
            "let t = format!(\"pkt seq={seq}\");",
            "format!("
        ));
        assert!(!token_match(
            "fn summarize<M: fmt::Debug>(msg: &M) -> String {",
            "summarize("
        ));
        assert!(!token_match("resummarize(&msg)", "summarize("));
        // The gated idiom still *matches*; scan_file exempts it when
        // `is_enabled` shares the line.
        assert!(token_match(
            "let s = trace.is_enabled().then(|| summarize(&msg));",
            "summarize("
        ));
    }

    #[test]
    fn d8_matches_qualified_release_calls_only() {
        assert!(token_match(
            "let g = self.locks.release(txn, r);",
            "locks.release("
        ));
        assert!(token_match(
            "self.locks.release_all(txn);",
            "locks.release_all("
        ));
        // `release_all` must not satisfy the plain-`release` pattern.
        assert!(!token_match(
            "self.locks.release_all(txn);",
            "locks.release("
        ));
        // Declarations and other receivers don't match.
        assert!(!token_match(
            "pub fn release(&mut self, t: TransactionId)",
            "locks.release("
        ));
        assert!(!token_match("padlocks.release(k)", "locks.release("));
    }

    #[test]
    fn d6_detects_missing_attrs() {
        let ok = vec![
            "#![forbid(unsafe_code)]".to_owned(),
            "#![warn(missing_docs)]".to_owned(),
        ];
        assert!(missing_root_attrs(&ok).is_empty());
        let missing = vec!["#![forbid(unsafe_code)]".to_owned()];
        assert_eq!(missing_root_attrs(&missing), vec!["#![warn(missing_docs)]"]);
    }

    #[test]
    fn d9_matches_queue_pops_not_declarations() {
        assert!(token_match(
            "let Some((entry, key, kind)) = self.core.queue.pop() else {",
            "queue.pop("
        ));
        assert!(token_match(
            "self.local.queue.peek_key()",
            "queue.peek_key("
        ));
        // `peek_key(` must not satisfy the plain-`peek` pattern.
        assert!(!token_match("self.local.queue.peek_key()", "queue.peek("));
        // Declarations and other receivers don't match.
        assert!(!token_match("pub fn pop(&mut self)", "queue.pop("));
        assert!(!token_match("q.pop()", "queue.pop("));
    }

    #[test]
    fn rule_parse_roundtrips() {
        for rule in Rule::ALL {
            assert_eq!(Rule::parse(rule.id()), Some(rule));
        }
        assert_eq!(Rule::parse("D10"), None);
    }
}
