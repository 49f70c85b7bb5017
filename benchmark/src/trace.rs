//! In-memory span recorder for the traced run.
//!
//! The harness wraps every call into a layer (`build`, `inject`,
//! `advance`, `verify.*`, `cluster.start`, `load.run`, …) in a span. The
//! spans live in a `Vec` until the workload is done and are then written
//! to `benchmark/out/trace.json` with each span's self time (its
//! duration minus the part its children cover). While disabled, `span`
//! only runs and times the closure, so end-to-end numbers never pay for
//! tracing; a traced run disables the recorder on every other cycle and
//! reports the difference between the two kinds of cycle as
//! `trace.overhead_share`.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes into the recorder's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Unit (repetition) index within the workload run.
    pub rep: usize,
    /// Exact counts observed at this boundary (`sim.events`, …).
    pub counts: Vec<(&'static str, u64)>,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Subsequent spans belong to repetition `rep`, and are recorded
    /// only if `enabled`.
    pub fn set_rep(&mut self, rep: usize, enabled: bool) {
        self.rep = rep;
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name` (nested under whichever span
    /// is open) and returns its result together with the wall seconds it
    /// took. The seconds are measured either way, so a workload's phase
    /// timings come from the same `Instant` pair traced or not.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                rep: self.rep,
                counts: Vec::new(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = idx {
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
            self.open.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    /// Attaches an exact count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(&i) = self.open.last() {
            self.spans[i].counts.push((key, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the time covered by its
    /// direct children (children of one parent never overlap — the
    /// recorder is single-threaded and strictly nested).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Median over repetitions of the summed duration of spans named
    /// `name` or `name.*` — seconds, 0 if the workload never opened one.
    pub fn median_s(&self, name: &str) -> f64 {
        let matches = |s: &&Span| {
            s.name
                .strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        };
        let mut per_rep: std::collections::BTreeMap<usize, u64> = Default::default();
        for s in self.spans.iter().filter(matches) {
            *per_rep.entry(s.rep).or_default() += s.end_ns - s.start_ns;
        }
        if per_rep.is_empty() {
            return 0.0;
        }
        let xs: Vec<f64> = per_rep.values().map(|&ns| ns as f64 / 1e9).collect();
        crate::stats::median(&xs)
    }

    /// Renders the trace as a JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let own = self.self_ns();
        let mut out = String::from("{\n  \"workload\": \"");
        out.push_str(workload);
        out.push_str("\",\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let _ = write!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"workload\": \"{workload}\", \
                 \"rep\": {}, \"counts\": {{{}}}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                own[i],
                s.rep,
                counts.join(", "),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new(true);
        r.span("unit", |r| {
            r.span("build", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.span("advance", |r| r.count("sim.events", 7));
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].counts, vec![("sim.events", 7)]);
        let own = r.self_ns();
        let children: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0], spans[0].end_ns - spans[0].start_ns - children);
        assert!(r.median_s("build") >= 0.002);
        assert_eq!(r.median_s("missing"), 0.0);
        assert_eq!(r.median_s("uni"), 0.0, "prefixes match whole segments only");
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_times() {
        let mut r = Recorder::new(false);
        let ((), s) = r.span("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(s >= 0.001);
        assert!(r.spans().is_empty());
    }
}
