//! # cmh-bench — experiment harness
//!
//! The paper has no tables or figures; its §4 performance discussion and
//! §6.7 optimisation are prose claims. Each `exp_*` binary in `src/bin/`
//! reproduces one claim (or performs the evaluation the paper defers) and
//! prints a markdown table. Every binary asserts its own claim and exits
//! non-zero when it fails. `tests/golden_tables.rs` diffs each table with
//! its file under `tests/golden/`, which `EXPERIMENTS.md` quotes. How
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
//! | `exp_scale` | E13: 10⁴ → 10⁶ vertices, every closed cycle declared, same counts at any shard count |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod sweep;

use cmh_core::{Net, Vertex};
use workloads::{drive_schedule, Schedule};

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

/// Drives `schedule` into `net`, each request issued at its tick — the
/// one schedule feed every detector shares. Returns how many were issued.
pub fn drive<P: Vertex>(net: &mut Net<P>, schedule: &Schedule) -> usize {
    let advance = |net: &mut Net<P>, at| {
        net.run_until(at);
    };
    let request = |net: &mut Net<P>, from, to| net.request(from, to).is_ok();
    drive_schedule(net, schedule, advance, request)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
