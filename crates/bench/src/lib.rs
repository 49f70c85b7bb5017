//! # cmh-bench — experiment harness
//!
//! The paper has no tables or figures; its §4 performance discussion and
//! §6.7 optimisation are prose claims. Each `exp_*` binary in `src/bin/`
//! reproduces one claim (or performs the evaluation the paper defers) and
//! prints a markdown table; `EXPERIMENTS.md` records the output. Every
//! binary asserts its own claim and exits non-zero when it fails. How
//! fast any of this runs is the business of `benchmark/`, not of this
//! crate.
//!
//! | binary | claim |
//! |---|---|
//! | `exp_probe_bounds` | E1: ≤ 1 probe per edge per computation; ≤ N on cycles (§4.3) |
//! | `exp_timeout_tradeoff` | E2: initiation-delay T trades computations for latency (§4.3) |
//! | `exp_state_bounds` | E3: O(N) per-vertex detector state (§4.3) |
//! | `exp_soundness` | E4: QRP1/QRP2 hold; baselines' phantom rates (§3.5) |
//! | `exp_ddb_q` | E5: §6.7 Q-optimisation initiates Q, not all-blocked |
//! | `exp_baselines` | E6: message bill vs centralised / path-pushing / timeout |
//! | `exp_wfgd` | E7: §5 WFGD sets converge to the oracle closure |
//! | `exp_cycle_latency` | E8: detection latency grows linearly in cycle length |
//! | `exp_fifo_ablation` | E9: ordered channels (P1/P2) are a necessary assumption |
//! | `exp_or_model` | E10: companion OR-model detector bounds and correctness |
//! | `exp_ablations` | E11: computation-window and forward-policy ablations |
//! | `exp_faults` | E12: faults break P1/P2/P4; the reliable transport restores them |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod sweep;

use simnet::sim::NodeId;
use simnet::time::SimTime;
use wfg::journal::{Journal, ReplayCursor};
use wfg::oracle::Oracle;

/// Minimal markdown table builder for experiment output.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header row.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let inner: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect();
            format!("| {} |", inner.join(" | "))
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        out.push_str(&format!("|-{}-|", sep.join("-|-")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the markdown to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }
}

/// Earliest time `v` was on a dark cycle, given that it was at `declared_at`
/// (dark cycles persist, so membership is monotone in time and binary
/// search over the journal applies). Used to compute detection latency.
///
/// # Panics
///
/// Panics if `v` is not on a dark cycle at `declared_at` or the journal is
/// not a legal history.
pub fn formation_time(journal: &Journal, v: NodeId, declared_at: SimTime) -> SimTime {
    let entries = journal.entries();
    // One checkpointed cursor serves the initial assertion and every
    // binary-search probe: each seek applies O(K + distance) deltas
    // instead of rebuilding the whole prefix from entry 0.
    let mut cursor = ReplayCursor::new();
    let mut oracle = Oracle::new();
    let on_cycle_after = |cursor: &mut ReplayCursor, oracle: &mut Oracle, n: usize| -> bool {
        let g = cursor.seek_to_index(journal, n).expect("legal history");
        oracle.is_on_dark_cycle(g, v)
    };
    let mut hi = entries.partition_point(|&(t, _)| t <= declared_at);
    assert!(
        on_cycle_after(&mut cursor, &mut oracle, hi),
        "subject not deadlocked at declaration"
    );
    // Binary search over journal entry indices for the first prefix under
    // which v is on a dark cycle.
    let mut lo = 0usize; // first lo entries applied: not yet known cyclic
    while lo < hi {
        let mid = (lo + hi) / 2;
        if on_cycle_after(&mut cursor, &mut oracle, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if lo == 0 {
        SimTime::ZERO
    } else {
        entries[lo - 1].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfg::journal::GraphOp;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(["a", "bb"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a   | bb |\n|-----|----|\n"));
        assert!(md.contains("| 333 | 4  |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn formation_time_finds_cycle_closure() {
        let n = NodeId;
        let mut j = Journal::new();
        j.record(SimTime::from_ticks(1), GraphOp::CreateGrey(n(0), n(1)));
        j.record(SimTime::from_ticks(5), GraphOp::Blacken(n(0), n(1)));
        j.record(SimTime::from_ticks(9), GraphOp::CreateGrey(n(1), n(0)));
        j.record(SimTime::from_ticks(12), GraphOp::Blacken(n(1), n(0)));
        // The dark cycle exists as soon as both edges exist (grey counts).
        let t = formation_time(&j, n(0), SimTime::from_ticks(40));
        assert_eq!(t, SimTime::from_ticks(9));
    }
}
