//! Schedule-space exploration adapter for every [`Net`].
//!
//! [`NetRunner`] wraps a [`Net`] built in explore mode
//! ([`SimBuilder::explore`]) behind the
//! [`simnet::explore::ScheduleRunner`] interface, so the DPOR explorer
//! ([`simnet::explore::Explorer`]) can enumerate the delivery/timer
//! interleavings of a bounded workload and machine-check, per schedule:
//!
//! * **QRP2 / soundness** — every claim's subject was deadlocked when
//!   declared ([`Net::verify_soundness`]; as-of-event oracle, prefix-safe,
//!   checked on truncated runs too);
//! * **QRP1 / completeness** — at quiescence, the model's own check (for
//!   the basic model: any persisting dark cycle has a declaring member);
//! * **liveness** — no vertex is wedged (blocked forever with no way
//!   out) at quiescence;
//! * **trace invariants** — FIFO exactly-once delivery and finite delay
//!   on clean wires, conservation accounting on faulty ones
//!   ([`simnet::explore::check_trace`]).
//!
//! The workload is a [`Script`] of timed driver actions, part of the
//! configuration rather than the schedule space.

use simnet::explore::{ScheduleRunner, Script};
use simnet::sim::{FrontierEvent, SimBuilder};

use crate::engine::{Net, ValidationError, Vertex};
use crate::process::BasicProcess;

/// One bounded, replayable run of a [`Net`] under exploration.
///
/// Build one per schedule inside the `fresh` closure handed to
/// [`simnet::explore::Explorer::explore`]; determinism of the underlying
/// simulation (per-node RNG substreams, creation-seq naming) makes every
/// instance bit-identical up to the explorer's schedule choices.
#[derive(Debug)]
pub struct NetRunner<P: Vertex> {
    net: Net<P>,
    script: Script<Net<P>>,
    fifo: bool,
    complete: fn(&Net<P>) -> Result<usize, ValidationError>,
}

/// The basic model's runner.
pub type BasicRunner = NetRunner<BasicProcess>;

impl<P: Vertex> NetRunner<P> {
    /// Creates a runner over the net `build` makes from `builder`
    /// (latency model, seed, fault plan — `explore` and `trace` are forced
    /// on), driven by `script`. `fifo` declares whether the wire preserves
    /// per-channel order and delivers exactly once (false under
    /// loss/duplication fault plans or `fifo(false)`), selecting the trace
    /// checker mode; `complete` is the model's completeness check.
    pub fn new(
        build: impl FnOnce(SimBuilder) -> Net<P>,
        builder: SimBuilder,
        script: Script<Net<P>>,
        fifo: bool,
        complete: fn(&Net<P>) -> Result<usize, ValidationError>,
    ) -> Self {
        NetRunner {
            net: build(builder.explore(true).trace(true)),
            script,
            fifo,
            complete,
        }
    }

    /// The wrapped net, e.g. to arm a mutation before the run starts.
    pub fn net_mut(&mut self) -> &mut Net<P> {
        &mut self.net
    }
}

impl<P: Vertex> ScheduleRunner for NetRunner<P> {
    fn frontier(&mut self) -> Vec<FrontierEvent> {
        // Nothing is pending before a due action's time: `run_until`
        // only moves the clock.
        let clock = |net: &mut Net<P>, at| {
            net.run_until(at);
        };
        self.script
            .apply_due(&mut self.net, Net::frontier_events, clock)
    }

    fn execute(&mut self, seq: u64) -> bool {
        self.net.step_seq(seq)
    }

    fn verdict(&mut self, truncated: bool) -> Result<(), String> {
        self.net
            .verify_soundness()
            .map_err(|e| format!("soundness: {e}"))?;
        simnet::explore::check_trace(self.net.trace().events(), self.fifo, !truncated)
            .map_err(|e| format!("trace: {e}"))?;
        if !truncated {
            (self.complete)(&self.net).map_err(|e| format!("completeness: {e}"))?;
            self.net
                .verify_liveness()
                .map_err(|e| format!("liveness: {e}"))?;
        }
        Ok(())
    }
}

/// Canned exploration workloads, shared by the unit tests, the
/// root-level DPOR regression test, and the `xtask mck` driver.
pub mod configs {
    use super::*;
    use crate::config::{BasicConfig, InitiationPolicy, ReplyPolicy};
    use crate::engine::BasicNet;
    use crate::ormodel::{OrNet, OrProcess};
    use simnet::faults::FaultPlan;
    use simnet::latency::LatencyModel;
    use simnet::sim::NodeId;
    use simnet::time::SimTime;

    fn never_initiate(service_delay: u64) -> BasicConfig {
        BasicConfig {
            initiation: InitiationPolicy::Never,
            reply: ReplyPolicy::AfterDelay { service_delay },
            ..BasicConfig::default()
        }
    }

    /// A seeded builder whose every hop takes `ticks`.
    fn fixed(seed: u64, ticks: u64) -> SimBuilder {
        SimBuilder::new()
            .seed(seed)
            .latency(LatencyModel::Fixed { ticks })
    }

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    /// `from` requests `to` (rule G1).
    fn request(from: usize, to: usize) -> impl FnOnce(&mut BasicNet) {
        move |net| {
            net.request(NodeId(from), NodeId(to))
                .unwrap_or_else(|e| panic!("bad workload: request {from}->{to}: {e:?}"));
        }
    }

    /// A 3-process basic-model runner.
    fn basic(
        cfg: BasicConfig,
        builder: SimBuilder,
        script: Script<BasicNet>,
        fifo: bool,
    ) -> BasicRunner {
        let build = move |b| BasicNet::with_builder(3, cfg, b);
        NetRunner::new(build, builder, script, fifo, BasicNet::verify_completeness)
    }

    /// The requests `0→1→2→0`, all at time zero.
    fn ring_requests() -> Script<BasicNet> {
        (0..3).fold(Script::default(), |s, i| {
            s.at(t(0), request(i, (i + 1) % 3))
        })
    }

    /// A 3-process ring deadlock (`0→1→2→0`, on-block initiation): every
    /// schedule must declare the (real, persisting) deadlock.
    pub fn ring(seed: u64) -> BasicRunner {
        basic(
            BasicConfig::on_block(5),
            fixed(seed, 1),
            ring_requests(),
            true,
        )
    }

    /// The grant/request collision workload: `0` requests `1`; while
    /// `1`'s grant is on the wire back to `0`, `2` requests `0`, and
    /// both land at `0` on the same tick. Deadlock-free — every
    /// schedule must unwind to all-active quiescence. This is the
    /// must-trip workload for [`BasicMutation::SkipDeleteWhite`], and
    /// its schedule space is small enough to count by hand: brute force
    /// explores `3! × 2 = 12` schedules (the start permutations times
    /// the one genuine two-way race), DPOR exactly `2`.
    ///
    /// [`BasicMutation::SkipDeleteWhite`]: crate::process::BasicMutation::SkipDeleteWhite
    pub fn grant_request_collision(seed: u64) -> BasicRunner {
        let script = Script::default()
            .at(t(0), request(0, 1))
            .at(t(8), request(2, 0));
        basic(never_initiate(5), fixed(seed, 3), script, true)
    }

    /// The ring workload over a duplicating wire: every message may be
    /// delivered twice. Exactly-once breaks, so the trace checker runs
    /// in conservation-accounting mode (`fifo = false` on the runner) —
    /// but duplication does *not* break per-channel ordering, so the
    /// explorer's FIFO eligibility filter stays **on**: reordering a
    /// probe ahead of the request it chases on the same channel would
    /// explore schedules the physical wire cannot produce (and on which
    /// the probe dies unmeaningfully, missing the deadlock). The
    /// protocol must still declare the real, persisting deadlock on
    /// every schedule: duplicated probes are idempotent (A2 forwards
    /// only the *first* meaningful probe per computation) and the cycle
    /// never unwinds, so late echoes stay truthful.
    pub fn faulty_ring(seed: u64) -> BasicRunner {
        let builder = fixed(seed, 1).faults(FaultPlan::new().duplicate(0.25));
        basic(BasicConfig::on_block(5), builder, ring_requests(), false)
    }

    /// The stale-probe workload: `0` initiates a computation whose probe
    /// races `2`'s grant to `1` on the same tick. Probe-first, the probe
    /// crawls on and dies at `2` over the whitened edge `(1,2)`;
    /// grant-first, it dies immediately at the now-active `1`. Either
    /// way the workload is deadlock-free and every schedule must stay
    /// clean. This is the must-trip workload for
    /// [`BasicMutation::StaleEchoDeclare`]: with P3 skipped, the
    /// probe-first branch completes a stale echo at `0`, which declares
    /// off any black cycle.
    ///
    /// [`BasicMutation::StaleEchoDeclare`]: crate::process::BasicMutation::StaleEchoDeclare
    pub fn stale_probe(seed: u64) -> BasicRunner {
        let script = Script::default()
            .at(t(0), request(1, 2))
            .at(t(2), request(0, 1))
            .at(t(4), |net: &mut BasicNet| {
                net.with_node(NodeId(0), |p, ctx| p.initiate(ctx));
            })
            .at(t(4), request(2, 0));
        basic(never_initiate(3), fixed(seed, 1), script, true)
    }

    /// An OR-model knot with one escape: `0` waits on `{1}`, `1` on `{2}`
    /// and `2` on `{0, 3}`, each initiating 2 ticks after it blocks, and
    /// the active `3` sends `2` data at tick 3. Every blocked process can
    /// reach `3`, so no schedule may declare; once `2` is released, `0`
    /// and `1` still wait on a process that could release them.
    pub fn or_knot_escape(seed: u64) -> NetRunner<OrProcess> {
        let block = |v: usize, deps: &'static [usize]| {
            move |net: &mut OrNet| {
                net.block_on(NodeId(v), deps.iter().copied().map(NodeId))
                    .expect("an active process blocks");
            }
        };
        let script = Script::default()
            .at(t(0), block(0, &[1]))
            .at(t(0), block(1, &[2]))
            .at(t(0), block(2, &[0, 3]))
            .at(t(3), |net: &mut OrNet| {
                net.send_data(NodeId(3), NodeId(2)).expect("3 is active");
            });
        let build = |b| OrNet::with_builder(4, Some(2), b);
        NetRunner::new(
            build,
            fixed(seed, 1),
            script,
            true,
            OrNet::verify_completeness,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::explore::Explorer;

    #[test]
    fn ring_deadlock_every_schedule_sound_and_complete() {
        let report = Explorer::default().explore(|| configs::ring(7));
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert!(report.schedules >= 1);
        assert!(!report.capped);
    }

    #[test]
    fn grant_request_collision_every_schedule_clean() {
        let report = Explorer::default().explore(|| configs::grant_request_collision(7));
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert_eq!(report.schedules, 2, "one genuine race ⇒ two schedules");
    }

    #[test]
    fn faulty_ring_every_schedule_sound_and_complete() {
        let report = Explorer::default().explore(|| configs::faulty_ring(7));
        assert!(report.clean(), "violations: {:?}", report.violations);
        // A ring receives from one predecessor per node, so with channel
        // order respected DPOR may collapse to a single schedule — the
        // value of the workload is the conservation-mode trace check and
        // the declaration surviving duplicated probes.
        assert!(report.schedules >= 1);
        assert!(!report.capped);
    }

    #[test]
    fn stale_probe_every_schedule_clean() {
        let report = Explorer::default().explore(|| configs::stale_probe(7));
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert!(report.schedules >= 2, "the probe/grant race must branch");
    }

    #[test]
    fn or_knot_escape_every_schedule_clean() {
        let report = Explorer::default().explore(|| configs::or_knot_escape(7));
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert!(!report.capped);
        assert_eq!(report.truncated, 0, "every schedule quiesces");
    }

    #[cfg(feature = "mutations")]
    mod mutations {
        use super::*;
        use crate::process::BasicMutation;
        use simnet::explore::run_naive;

        fn armed(mut r: BasicRunner, m: BasicMutation) -> BasicRunner {
            r.net_mut().set_mutation(m);
            r
        }

        #[test]
        fn skip_delete_white_passes_naive_but_trips_exploration() {
            let m = BasicMutation::SkipDeleteWhite;
            let mut naive = armed(configs::grant_request_collision(7), m);
            assert_eq!(run_naive(&mut naive, 10_000), Ok(()));

            let report =
                Explorer::default().explore(|| armed(configs::grant_request_collision(7), m));
            assert_eq!(report.violations.len(), 1, "report: {report:?}");
            assert!(
                report.violations[0].message.contains("liveness"),
                "expected a wedge, got: {}",
                report.violations[0].message
            );
        }

        #[test]
        fn stale_echo_declare_passes_naive_but_trips_exploration() {
            let m = BasicMutation::StaleEchoDeclare;
            let mut naive = armed(configs::stale_probe(7), m);
            assert_eq!(run_naive(&mut naive, 10_000), Ok(()));

            let report = Explorer::default().explore(|| armed(configs::stale_probe(7), m));
            assert_eq!(report.violations.len(), 1, "report: {report:?}");
            assert!(
                report.violations[0].message.contains("soundness"),
                "expected a false declaration, got: {}",
                report.violations[0].message
            );
        }
    }
}
