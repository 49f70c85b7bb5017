//! Schedule-space exploration: exhaustive enumeration of same-tick
//! event interleavings with dynamic partial-order reduction.
//!
//! A single-shard simulation pops events in `(time, seq)` order — one
//! fixed schedule per seed. This module generalizes that order into a *branch
//! point*: at every step, any pending event tied at the earliest time
//! (the **frontier**, [`crate::sim::Simulation::frontier_events`]) may
//! run next ([`crate::sim::Simulation::step_seq`]). A *schedule* is the
//! resulting choice vector, and the [`Explorer`] enumerates schedules by
//! stateless depth-first search: each run rebuilds a fresh simulation
//! ([`ScheduleRunner`]) and replays the choice prefix, so no simulator
//! state is ever snapshotted.
//!
//! Three structural facts keep the search sound and finite (DESIGN §13):
//!
//! * handling an event never creates another event at the *same* tick
//!   (minimum latency and timer delay are both ≥ 1), so the frontier of
//!   a tick is fixed when the tick starts and schedules within a tick
//!   are permutations of a known set;
//! * in explore mode ([`crate::sim::SimBuilder::explore`]) a node's
//!   latency, jitter and fault draws come from per-node substreams, so two
//!   same-tick events whose *touch sets*
//!   ([`crate::sim::EventClass::touches`]) are disjoint commute: both
//!   orders reach bit-identical states;
//! * cross-tick order is forced by virtual time, so only same-tick
//!   reorderings exist and dependency tracking resets at tick
//!   boundaries.
//!
//! Reduction uses the classic pair of sleep sets and dynamic
//! partial-order reduction (Flanagan–Godefroid): executing an event `e`
//! adds `e` to the backtrack set of the most recent same-tick decision
//! point whose chosen event conflicts with `e`, and sleep sets prune
//! branches that merely re-order commuting events of an already-explored
//! schedule. With reduction off the same machinery enumerates the full
//! schedule space — the brute-force baseline the regression tests
//! compare against.

// cmh-lint: allow-file(D7) — violation messages and trace-invariant
// verdicts: every format! here runs on the cold per-schedule verdict /
// replay-error path of the model checker, never the per-message delivery
// path D7 protects (exploration replays bounded 3-process workloads).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::sim::{EventClass, FrontierEvent};
use crate::time::SimTime;
use crate::trace::TraceEvent;

/// One bounded, replayable run under exploration.
///
/// The explorer builds a fresh instance per schedule (stateless search),
/// drives it exclusively through [`ScheduleRunner::frontier`] and
/// [`ScheduleRunner::execute`], and asks for a verdict when the schedule
/// ends. Implementations wrap a protocol net built with
/// [`crate::sim::SimBuilder::explore`] and surface its property checkers
/// (soundness, completeness, liveness, trace invariants) as the verdict.
pub trait ScheduleRunner {
    /// The current frontier, sorted by creation seq (see
    /// [`crate::sim::Simulation::frontier_events`]). Implementations
    /// apply their [`Script`]'s due driver actions (workload requests)
    /// before reading the frontier — those are part of the configuration,
    /// not of the schedule space. Empty means the run is quiescent.
    fn frontier(&mut self) -> Vec<FrontierEvent>;

    /// Executes the frontier event with creation seq `seq`. Returns
    /// `false` if no such event is pending (the explorer treats that as
    /// an internal error: it only requests events it just observed).
    fn execute(&mut self, seq: u64) -> bool;

    /// Renders the end-of-schedule verdict. `truncated` is true when the
    /// step bound cut the run off with events still pending; checkers
    /// that need quiescence (completeness, exact accounting) should then
    /// degrade to their prefix-safe forms. `Err` describes the property
    /// violation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated property.
    fn verdict(&mut self, truncated: bool) -> Result<(), String>;
}

/// A timed driver action of a [`Script`].
type Action<N> = Box<dyn FnOnce(&mut N)>;

/// The timed driver actions of an exploration workload (requests,
/// submissions, manual initiations) over a net `N`.
///
/// Actions are part of the *configuration*, not the schedule space: each
/// applies at its time once every earlier event has run (the tick has
/// drained), identically along every explored branch of that prefix.
pub struct Script<N> {
    pending: VecDeque<(SimTime, Action<N>)>,
}

impl<N> fmt::Debug for Script<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let times: Vec<SimTime> = self.pending.iter().map(|&(at, _)| at).collect();
        f.debug_struct("Script").field("pending", &times).finish()
    }
}

impl<N> Default for Script<N> {
    fn default() -> Self {
        Script {
            pending: VecDeque::new(),
        }
    }
}

impl<N> Script<N> {
    /// Adds `action`, applied once the clock passes `at`; actions of one
    /// time apply in the order they were added.
    #[must_use]
    pub fn at(mut self, at: SimTime, action: impl FnOnce(&mut N) + 'static) -> Self {
        let i = self.pending.partition_point(|&(t, _)| t <= at);
        self.pending.insert(i, (at, Box::new(action)));
        self
    }

    /// Applies every action whose time the run has reached — the earliest
    /// event of `frontier(net)` is strictly later, or there is none — and
    /// returns the resulting frontier. `clock(net, at)` runs first and
    /// must set the net's clock to `at` without running an event, so the
    /// action acts at its own time. The frontier is re-read after each
    /// action, so an action's own events (which gate later actions) are
    /// seen before the next one is considered.
    pub fn apply_due(
        &mut self,
        net: &mut N,
        mut frontier: impl FnMut(&mut N) -> Vec<FrontierEvent>,
        mut clock: impl FnMut(&mut N, SimTime),
    ) -> Vec<FrontierEvent> {
        loop {
            let events = frontier(net);
            match self.pending.front() {
                Some(&(at, _)) if events.first().is_none_or(|e| e.at > at) => {
                    let (_, action) = self.pending.pop_front().expect("front checked");
                    clock(net, at);
                    action(net);
                }
                _ => return events,
            }
        }
    }
}

/// A schedule that violated a property, with its replay witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleViolation {
    /// The choice vector: creation seqs in execution order. Feeding
    /// these to [`crate::sim::Simulation::step_seq`] on a fresh instance
    /// reproduces the violating run exactly.
    pub choices: Vec<u64>,
    /// The verdict's description of the violation.
    pub message: String,
}

/// Outcome of one [`Explorer::explore`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Schedules run to completion (quiescence) and verified.
    pub schedules: u64,
    /// Of those, schedules cut off by the step bound.
    pub truncated: u64,
    /// Branches abandoned because every eligible event was asleep — each
    /// is a whole subtree proven equivalent to an explored one.
    pub sleep_set_hits: u64,
    /// Total events executed across all runs.
    pub events: u64,
    /// Widest frontier observed (the branching factor's upper bound).
    pub max_frontier: usize,
    /// True when the schedule cap stopped exploration before the space
    /// was exhausted; counts above are then lower bounds.
    pub capped: bool,
    /// The property violation found, if any, with its replay witness
    /// (exploration stops at the first).
    pub violations: Vec<ScheduleViolation>,
}

impl ExploreReport {
    /// True when every explored schedule satisfied its verdict.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Depth-first schedule-space explorer with sleep sets and dynamic
/// partial-order reduction over a [`ScheduleRunner`].
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Per-schedule step bound; runs still pending at the bound are
    /// verified with `truncated = true`.
    pub max_steps: usize,
    /// Total-schedule cap (a runaway backstop; `u64::MAX` = none). When
    /// hit, the report's `capped` flag is set.
    pub max_schedules: u64,
    /// `true` = sleep sets + DPOR; `false` = brute-force enumeration of
    /// the whole (FIFO-respecting) schedule space.
    pub reduction: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            max_steps: 10_000,
            max_schedules: u64::MAX,
            reduction: true,
        }
    }
}

/// A step of the current run where more than one event was eligible.
/// Persists across runs as the DFS stack; `candidates` and the running
/// sleep set are deterministic functions of the choice prefix, so
/// replays reconstruct them bit-identically.
struct DecisionNode {
    /// Step index (events executed before this decision).
    step: usize,
    /// All eligible events at this point, sorted by seq.
    candidates: Vec<FrontierEvent>,
    /// The running sleep set on entry (used to skip redundant choices at
    /// selection time).
    sleep_on_entry: Vec<FrontierEvent>,
    /// Choices whose subtrees are fully explored (or pruned).
    done: Vec<FrontierEvent>,
    /// Choices DPOR marked for exploration (brute force: all of them).
    pending: Vec<FrontierEvent>,
    /// The choice of the current run.
    cur: FrontierEvent,
}

/// How one run ended.
enum RunEnd {
    /// Quiescent: a complete schedule.
    Complete,
    /// Step bound hit with events still pending.
    Truncated,
    /// Every eligible event was asleep: subtree redundant, not verified.
    SleepPrune,
}

impl Explorer {
    /// Explores the schedule space of the model `fresh` builds, running
    /// every (reduction-distinct) schedule to its verdict.
    pub fn explore<R: ScheduleRunner>(&self, mut fresh: impl FnMut() -> R) -> ExploreReport {
        let mut report = ExploreReport::default();
        let mut stack: Vec<DecisionNode> = Vec::new();
        let mut first = true;
        loop {
            if !first && !self.advance(&mut stack, &mut report) {
                return report;
            }
            first = false;
            let (end, _choices) = self.run_one(&mut fresh(), &mut stack, &mut report);
            match end {
                RunEnd::SleepPrune => {
                    report.sleep_set_hits += 1;
                }
                RunEnd::Complete => {
                    report.schedules += 1;
                }
                RunEnd::Truncated => {
                    report.schedules += 1;
                    report.truncated += 1;
                }
            }
            if report.schedules >= self.max_schedules {
                report.capped = stack
                    .iter()
                    .any(|n| n.pending.iter().any(|p| !n.done.contains(p)));
                return report;
            }
            // The first violation's witness is complete: stop there.
            if !report.violations.is_empty() {
                return report;
            }
        }
    }

    /// Moves the DFS to the next unexplored branch. Returns `false` when
    /// the whole space is exhausted.
    fn advance(&self, stack: &mut Vec<DecisionNode>, report: &mut ExploreReport) -> bool {
        loop {
            let Some(top) = stack.last_mut() else {
                return false;
            };
            if !top.done.contains(&top.cur) {
                let cur = top.cur;
                top.done.push(cur);
            }
            let mut next = None;
            while let Some(c) = top.pending.pop() {
                if top.done.contains(&c) {
                    continue;
                }
                if self.reduction && top.sleep_on_entry.iter().any(|s| s.seq == c.seq) {
                    // Running a sleeping event here would replay a
                    // commuting permutation of an explored schedule.
                    report.sleep_set_hits += 1;
                    top.done.push(c);
                    continue;
                }
                next = Some(c);
                break;
            }
            match next {
                Some(c) => {
                    top.cur = c;
                    return true;
                }
                None => {
                    stack.pop();
                }
            }
        }
    }

    /// FIFO eligibility filter over a frontier (sorted by seq): at most
    /// one raw delivery per channel — the earliest sent. Per-channel FIFO
    /// order of raw deliveries is a scheduling constraint, not a branch
    /// point, as the clean network's ordered delivery guarantees.
    fn eligible(frontier: &[FrontierEvent]) -> Vec<FrontierEvent> {
        let mut channels: BTreeSet<(usize, usize)> = BTreeSet::new();
        frontier
            .iter()
            .filter(|e| match e.class {
                EventClass::Deliver { from, to } => channels.insert((from.0, to.0)),
                _ => true,
            })
            .copied()
            .collect()
    }

    /// Runs one schedule: replays the stack's choice prefix, extends the
    /// stack at new decision points, maintains the sleep set and DPOR
    /// backtrack sets, and takes the instance's verdict.
    fn run_one<R: ScheduleRunner>(
        &self,
        inst: &mut R,
        stack: &mut Vec<DecisionNode>,
        report: &mut ExploreReport,
    ) -> (RunEnd, Vec<u64>) {
        let mut steps = 0usize;
        let mut sp = 0usize;
        let mut choices: Vec<u64> = Vec::new();
        let mut sleep: Vec<FrontierEvent> = Vec::new();
        // Executed events of the current tick, with the stack index of
        // their decision node (None: sole-candidate step).
        let mut tick: Vec<(EventClass, Option<usize>)> = Vec::new();
        let mut tick_at: Option<SimTime> = None;
        let end = loop {
            let frontier = inst.frontier();
            if frontier.is_empty() {
                break RunEnd::Complete;
            }
            if steps >= self.max_steps {
                break RunEnd::Truncated;
            }
            report.max_frontier = report.max_frontier.max(frontier.len());
            let cands = Self::eligible(&frontier);
            let at = cands[0].at;
            if tick_at != Some(at) {
                // Tick boundary: cross-tick order is fixed by time, so
                // dependency tracking restarts; and a sleeping event can
                // never survive its tick (it would have blocked the tick
                // from draining — see the prune below).
                debug_assert!(sleep.is_empty(), "sleep set crossed a tick");
                tick_at = Some(at);
                tick.clear();
                sleep.clear();
            }
            let open: Vec<FrontierEvent> = cands
                .iter()
                .filter(|c| !sleep.iter().any(|s| s.seq == c.seq))
                .copied()
                .collect();
            if open.is_empty() {
                // Only sleeping events remain: every extension of this
                // branch permutes an already-explored schedule.
                return (RunEnd::SleepPrune, choices);
            }
            let (choice, node_idx) = if sp < stack.len() {
                // Replaying the prefix of the DFS stack.
                if stack[sp].step == steps {
                    let idx = sp;
                    sp += 1;
                    let node = &stack[idx];
                    debug_assert_eq!(
                        node.candidates, cands,
                        "non-deterministic replay: candidates drifted"
                    );
                    let c = node.cur;
                    if self.reduction {
                        // Sleep inheritance: explored siblings go to
                        // sleep in this child unless they conflict with
                        // the chosen event.
                        for d in &node.done {
                            if !sleep.iter().any(|s| s.seq == d.seq) {
                                sleep.push(*d);
                            }
                        }
                        sleep.retain(|e| e.seq != c.seq && !e.class.conflicts_with(&c.class));
                    }
                    (c, Some(idx))
                } else {
                    debug_assert_eq!(cands.len(), 1, "missed decision point in replay");
                    let c = open[0];
                    if self.reduction {
                        sleep.retain(|e| !e.class.conflicts_with(&c.class));
                    }
                    (c, None)
                }
            } else if cands.len() > 1 {
                // New decision point. Default policy: earliest-created
                // eligible event (the engine's own tie-break).
                let c = open[0];
                let mut node = DecisionNode {
                    step: steps,
                    candidates: cands.clone(),
                    sleep_on_entry: sleep.clone(),
                    done: Vec::new(),
                    pending: Vec::new(),
                    cur: c,
                };
                if !self.reduction {
                    // Brute force: every alternative is a branch.
                    node.pending
                        .extend(cands.iter().filter(|e| e.seq != c.seq).copied());
                }
                stack.push(node);
                sp = stack.len();
                if self.reduction {
                    sleep.retain(|e| !e.class.conflicts_with(&c.class));
                }
                (c, Some(stack.len() - 1))
            } else {
                let c = open[0];
                if self.reduction {
                    sleep.retain(|e| !e.class.conflicts_with(&c.class));
                }
                (c, None)
            };
            if self.reduction {
                self.dpor_update(stack, &tick, &choice);
            }
            if !inst.execute(choice.seq) {
                report.violations.push(ScheduleViolation {
                    choices: choices.clone(),
                    message: format!(
                        "internal: chosen frontier event seq {} vanished before execution",
                        choice.seq
                    ),
                });
                return (RunEnd::Complete, choices);
            }
            report.events += 1;
            steps += 1;
            choices.push(choice.seq);
            tick.push((choice.class, node_idx));
        };
        let truncated = matches!(end, RunEnd::Truncated);
        if let Err(message) = inst.verdict(truncated) {
            report.violations.push(ScheduleViolation {
                choices: choices.clone(),
                message,
            });
        }
        (end, choices)
    }

    /// The DPOR backtrack rule (Flanagan–Godefroid, specialized to the
    /// tick structure): executing `choice` now, find the most recent
    /// same-tick step whose executed event conflicts with it. If that
    /// step was a decision point, mark `choice` (or, when `choice` was
    /// FIFO-blocked there, the channel head that stood for it) for
    /// exploration — running it first is the one reordering that can
    /// change behaviour. Steps with a sole candidate need nothing: the
    /// only way a conflicting pending event was ineligible there is
    /// FIFO order behind the chosen event itself, which no legal
    /// schedule can invert.
    fn dpor_update(
        &self,
        stack: &mut [DecisionNode],
        tick: &[(EventClass, Option<usize>)],
        choice: &FrontierEvent,
    ) {
        let Some(&(_, node_idx)) = tick
            .iter()
            .rev()
            .find(|(cls, _)| cls.conflicts_with(&choice.class))
        else {
            return;
        };
        let Some(j) = node_idx else {
            return;
        };
        let node = &mut stack[j];
        let want = if node.candidates.iter().any(|e| e.seq == choice.seq) {
            Some(*choice)
        } else if let EventClass::Deliver { from, to } = choice.class {
            // `choice` was pending but FIFO-blocked at the decision:
            // its then-channel-head is the candidate that leads to it.
            node.candidates
                .iter()
                .find(|e| matches!(e.class, EventClass::Deliver { from: f, to: t } if f == from && t == to))
                .copied()
        } else {
            None
        };
        let Some(want) = want else { return };
        if want.seq != node.cur.seq && !node.done.contains(&want) && !node.pending.contains(&want) {
            node.pending.push(want);
        }
    }
}

/// Runs the single *naive* schedule — the engine's native `(time, seq)`
/// order, i.e. exactly the run a plain `run_to_quiescence` on the same
/// seed would produce — and returns its verdict.
///
/// This is the baseline the mutation must-trip harness compares
/// against: a seeded bug is only interesting if the naive schedule
/// passes every checker while [`Explorer::explore`] finds the
/// interleaving that trips it.
///
/// # Errors
///
/// The verdict's description of the violated property, or an internal
/// error if the runner refuses its own frontier.
pub fn run_naive<R: ScheduleRunner>(runner: &mut R, max_steps: usize) -> Result<(), String> {
    for _ in 0..max_steps {
        let frontier = runner.frontier();
        let Some(first) = frontier.first() else {
            return runner.verdict(false);
        };
        if !runner.execute(first.seq) {
            return Err(format!(
                "naive run: engine refused frontier seq {}",
                first.seq
            ));
        }
    }
    runner.verdict(true)
}

/// Machine-checks the wire-level trace invariants of one schedule.
///
/// * **Finite delay** (the paper's P4): every send names a strictly
///   later delivery time, and every delivery happens strictly after its
///   send.
/// * **Monotone trace**: event timestamps never decrease.
/// * With `fifo` (clean ordered channels): per channel, the delivered
///   summaries are exactly the sent summaries in send order —
///   exactly-once FIFO. On `complete` runs the sequences must match in
///   full; on truncated runs delivery may be a proper prefix.
/// * Without `fifo` (faulty wire): per-channel accounting instead —
///   `#Send + #Duplicate = #Deliver + #Drop`, with a non-negative
///   balance mid-run and zero at quiescence.
///
/// # Errors
///
/// A description of the first violated invariant.
pub fn check_trace(events: &[TraceEvent], fifo: bool, complete: bool) -> Result<(), String> {
    let mut last = SimTime::ZERO;
    for e in events {
        if e.at() < last {
            return Err(format!("trace time ran backwards at {e}"));
        }
        last = e.at();
    }
    type Chan = (usize, usize);
    let mut sends: BTreeMap<Chan, Vec<(SimTime, String)>> = BTreeMap::new();
    let mut delivers: BTreeMap<Chan, Vec<(SimTime, String)>> = BTreeMap::new();
    let mut balance: BTreeMap<Chan, i64> = BTreeMap::new();
    for e in events {
        match e {
            TraceEvent::Send {
                at,
                from,
                to,
                deliver_at,
                summary,
            } => {
                if deliver_at <= at {
                    return Err(format!("zero-latency send on {from}->{to}: {summary}"));
                }
                sends
                    .entry((from.0, to.0))
                    .or_default()
                    .push((*at, summary.clone()));
                *balance.entry((from.0, to.0)).or_default() += 1;
            }
            TraceEvent::Duplicate { from, to, .. } => {
                *balance.entry((from.0, to.0)).or_default() += 1;
            }
            TraceEvent::Deliver {
                at,
                from,
                to,
                summary,
            } => {
                delivers
                    .entry((from.0, to.0))
                    .or_default()
                    .push((*at, summary.clone()));
                let b = balance.entry((from.0, to.0)).or_default();
                *b -= 1;
                if !fifo && *b < 0 {
                    return Err(format!("channel {from}->{to}: more deliveries than sends"));
                }
            }
            TraceEvent::Drop { from, to, .. } => {
                *balance.entry((from.0, to.0)).or_default() -= 1;
            }
            _ => {}
        }
    }
    if fifo {
        for (chan, sent) in &sends {
            let got = delivers.get(chan).map(Vec::as_slice).unwrap_or(&[]);
            if got.len() > sent.len() {
                return Err(format!(
                    "channel p{}->p{}: {} deliveries for {} sends",
                    chan.0,
                    chan.1,
                    got.len(),
                    sent.len()
                ));
            }
            for (i, (d, s)) in got.iter().zip(sent.iter()).enumerate() {
                if d.1 != s.1 {
                    return Err(format!(
                        "channel p{}->p{}: FIFO violated at delivery {i}: sent {:?}, delivered {:?}",
                        chan.0, chan.1, s.1, d.1
                    ));
                }
                if d.0 <= s.0 {
                    return Err(format!(
                        "channel p{}->p{}: delivery {i} at {:?} not after its send at {:?}",
                        chan.0, chan.1, d.0, s.0
                    ));
                }
            }
            if complete && got.len() != sent.len() {
                return Err(format!(
                    "channel p{}->p{}: {} of {} sends undelivered at quiescence",
                    chan.0,
                    chan.1,
                    sent.len() - got.len(),
                    sent.len()
                ));
            }
        }
        for chan in delivers.keys() {
            if !sends.contains_key(chan) {
                return Err(format!(
                    "channel p{}->p{}: delivery without any send",
                    chan.0, chan.1
                ));
            }
        }
    } else if complete {
        for (chan, b) in &balance {
            if *b != 0 {
                return Err(format!(
                    "channel p{}->p{}: {} unaccounted messages at quiescence \
                     (sends + duplicates != deliveries + drops)",
                    chan.0, chan.1, b
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::sim::{Context, NodeId, Process, SimBuilder, Simulation};

    /// Node 0 broadcasts one ping to every other node at start; receivers
    /// log `(sender, payload)`. With fixed latency every delivery lands
    /// on the same tick, so the frontier is the whole broadcast.
    #[derive(Debug, Clone)]
    struct Ping(u32);

    struct Recorder {
        peers: usize,
        log: Vec<(NodeId, u32)>,
    }

    impl Process<Ping> for Recorder {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            if ctx.id() == NodeId(0) {
                for i in 1..self.peers {
                    ctx.send(NodeId(i), Ping(i as u32));
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
            self.log.push((from, msg.0));
        }
    }

    struct Runner {
        sim: Simulation<Ping, Recorder>,
        verdict: fn(&Simulation<Ping, Recorder>) -> Result<(), String>,
    }

    impl ScheduleRunner for Runner {
        fn frontier(&mut self) -> Vec<FrontierEvent> {
            self.sim.frontier_events()
        }
        fn execute(&mut self, seq: u64) -> bool {
            self.sim.step_seq(seq)
        }
        fn verdict(&mut self, _truncated: bool) -> Result<(), String> {
            (self.verdict)(&self.sim)
        }
    }

    fn broadcast(n: usize) -> Simulation<Ping, Recorder> {
        let mut sim = SimBuilder::new()
            .seed(7)
            .explore(true)
            .latency(LatencyModel::Fixed { ticks: 3 })
            .build();
        for _ in 0..n {
            sim.add_node(Recorder {
                peers: n,
                log: Vec::new(),
            });
        }
        sim
    }

    fn ok(_: &Simulation<Ping, Recorder>) -> Result<(), String> {
        Ok(())
    }

    #[test]
    fn independent_deliveries_reduce_to_one_schedule() {
        // 3 nodes: two same-tick deliveries to *different* receivers
        // commute. Brute force sees both orders; DPOR sees one.
        let dpor = Explorer::default().explore(|| Runner {
            sim: broadcast(3),
            verdict: ok,
        });
        assert!(dpor.clean());
        assert_eq!(dpor.schedules, 1, "commuting pair must not branch");
        let brute = Explorer {
            reduction: false,
            ..Explorer::default()
        }
        .explore(|| Runner {
            sim: broadcast(3),
            verdict: ok,
        });
        assert!(brute.clean());
        // Brute force also permutes the three start events (all
        // independent): 3! starts x 2 delivery orders.
        assert_eq!(brute.schedules, 12);
    }

    #[test]
    fn brute_force_counts_full_permutations() {
        // 4 nodes: 4! orders of the independent start events times 3!
        // orders of the three independent deliveries brute force; one
        // schedule under DPOR.
        let brute = Explorer {
            reduction: false,
            ..Explorer::default()
        }
        .explore(|| Runner {
            sim: broadcast(4),
            verdict: ok,
        });
        assert_eq!(brute.schedules, 24 * 6, "4! start orders x 3! deliveries");
        let dpor = Explorer::default().explore(|| Runner {
            sim: broadcast(4),
            verdict: ok,
        });
        assert_eq!(dpor.schedules, 1);
        assert!(dpor.events < brute.events);
    }

    /// Both peers message the *same* receiver; the receiver's log order
    /// genuinely depends on the schedule, so DPOR must explore both.
    struct Converge;

    impl Process<Ping> for Converge {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            if ctx.id().0 <= 1 {
                ctx.send(NodeId(2), Ping(ctx.id().0 as u32));
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Ping>, _from: NodeId, _msg: Ping) {}
    }

    struct ConvergeRunner {
        sim: Simulation<Ping, Converge>,
    }

    impl ScheduleRunner for ConvergeRunner {
        fn frontier(&mut self) -> Vec<FrontierEvent> {
            self.sim.frontier_events()
        }
        fn execute(&mut self, seq: u64) -> bool {
            self.sim.step_seq(seq)
        }
        fn verdict(&mut self, _truncated: bool) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn conflicting_deliveries_explore_both_orders() {
        let make = || ConvergeRunner {
            sim: {
                let mut sim = SimBuilder::new()
                    .seed(1)
                    .explore(true)
                    .latency(LatencyModel::Fixed { ticks: 2 })
                    .build();
                for _ in 0..3 {
                    sim.add_node(Converge);
                }
                sim
            },
        };
        let dpor = Explorer::default().explore(make);
        let brute = Explorer {
            reduction: false,
            ..Explorer::default()
        }
        .explore(make);
        // Same-receiver deliveries conflict: DPOR may not merge them,
        // but it does collapse the 3! start permutations brute force
        // still enumerates.
        assert_eq!(dpor.schedules, 2);
        assert_eq!(brute.schedules, 12);
    }

    /// A detector verdict that records every distinct receiver log the
    /// exploration produces, to prove brute force and DPOR agree on the
    /// set of reachable outcomes.
    #[test]
    fn dpor_reaches_every_distinct_outcome() {
        use std::cell::RefCell;
        use std::rc::Rc;

        type Outcomes = Rc<RefCell<BTreeSet<Vec<(usize, u32)>>>>;
        let outcomes = |reduction: bool| {
            let seen: Outcomes = Rc::new(RefCell::new(BTreeSet::new()));
            struct Obs {
                sim: Simulation<Ping, Recorder>,
                seen: Outcomes,
            }
            impl ScheduleRunner for Obs {
                fn frontier(&mut self) -> Vec<FrontierEvent> {
                    self.sim.frontier_events()
                }
                fn execute(&mut self, seq: u64) -> bool {
                    self.sim.step_seq(seq)
                }
                fn verdict(&mut self, _truncated: bool) -> Result<(), String> {
                    let mut log = Vec::new();
                    for i in 0..self.sim.node_count() {
                        for &(f, p) in &self.sim.node(NodeId(i)).log {
                            log.push((f.0, p));
                        }
                    }
                    self.seen.borrow_mut().insert(log);
                    Ok(())
                }
            }
            let seen2 = Rc::clone(&seen);
            Explorer {
                reduction,
                ..Explorer::default()
            }
            .explore(move || Obs {
                sim: broadcast(4),
                seen: Rc::clone(&seen2),
            });
            Rc::try_unwrap(seen).unwrap().into_inner()
        };
        // Every receiver has its own log, so all interleavings yield the
        // same outcome — and DPOR's single schedule covers it.
        assert_eq!(outcomes(true), outcomes(false));
    }

    /// Same-tick cancel/fire race: the canceller and the cancelled timer
    /// live on the same node, so both orders are explored, and the
    /// vanished-event path (cancelled before chosen) never fires because
    /// the frontier is re-read every step.
    struct CancelRace {
        victim: Option<crate::sim::TimerId>,
        fired: Vec<u64>,
    }

    impl Process<Ping> for CancelRace {
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            self.victim = Some(ctx.set_timer(5, 2));
            ctx.set_timer(5, 1);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Ping>, _from: NodeId, _msg: Ping) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, _id: crate::sim::TimerId, tag: u64) {
            self.fired.push(tag);
            if tag == 1 {
                if let Some(v) = self.victim.take() {
                    ctx.cancel_timer(v);
                }
            }
        }
    }

    struct CancelRunner {
        sim: Simulation<Ping, CancelRace>,
    }

    impl ScheduleRunner for CancelRunner {
        fn frontier(&mut self) -> Vec<FrontierEvent> {
            self.sim.frontier_events()
        }
        fn execute(&mut self, seq: u64) -> bool {
            self.sim.step_seq(seq)
        }
        fn verdict(&mut self, _truncated: bool) -> Result<(), String> {
            let fired = &self.sim.node(NodeId(0)).fired;
            if fired == &vec![1] || fired == &vec![2, 1] {
                Ok(())
            } else {
                Err(format!("unexpected firing order {fired:?}"))
            }
        }
    }

    #[test]
    fn cancel_fire_race_explores_both_orders() {
        let make = || CancelRunner {
            sim: {
                let mut sim = SimBuilder::new().seed(3).explore(true).build();
                sim.add_node(CancelRace {
                    victim: None,
                    fired: Vec::new(),
                });
                sim
            },
        };
        let report = Explorer::default().explore(make);
        assert!(report.clean(), "{:?}", report.violations);
        assert_eq!(report.schedules, 2, "cancel-first and fire-first");
    }

    #[test]
    fn violations_carry_replayable_choice_vectors() {
        let make = || Runner {
            sim: broadcast(3),
            verdict: |sim| {
                let log = &sim.node(NodeId(1)).log;
                if log.is_empty() {
                    Err("node 1 never heard from node 0".to_owned())
                } else {
                    Ok(())
                }
            },
        };
        // The verdict above actually passes (delivery always happens);
        // flip it to force a violation with a witness.
        let bad = Explorer::default().explore(|| Runner {
            sim: broadcast(3),
            verdict: |_| Err("forced".to_owned()),
        });
        assert_eq!(bad.violations.len(), 1);
        assert!(!bad.violations[0].choices.is_empty());
        // And the non-forced verdict is clean.
        let good = Explorer::default().explore(make);
        assert!(good.clean());
    }
}
