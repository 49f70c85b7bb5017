//! Behavioural knobs for basic-model processes: when to initiate probe
//! computations (§4.2–§4.3) and how the underlying computation serves
//! requests.

/// When a vertex starts a probe computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitiationPolicy {
    /// §4.2: initiate whenever an outgoing edge is added to the wait-for
    /// graph. Guarantees that the vertex whose request closes a dark cycle
    /// detects it.
    #[default]
    OnBlock,
    /// §4.3: initiate only if the outgoing edge has existed continuously
    /// for `t` ticks. Short-lived waits (the common case) never trigger a
    /// computation; detection latency becomes at least `t`.
    Delayed {
        /// The persistence threshold `T` of §4.3.
        t: u64,
    },
    /// Never initiate. Used for passive vertices in experiments that study
    /// a single initiator.
    Never,
}

/// How the *underlying* computation (requests/replies, not deadlock
/// detection) behaves at this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyPolicy {
    /// The process replies to all pending requests `service_delay` ticks
    /// after it becomes able to (it must be active — no outgoing edges —
    /// to reply, per G3).
    AfterDelay {
        /// Ticks between becoming serviceable and replying.
        service_delay: u64,
    },
    /// The process never replies on its own; a driver script calls
    /// [`crate::process::BasicProcess::serve_pending`] explicitly.
    Manual,
}

impl Default for ReplyPolicy {
    fn default() -> Self {
        ReplyPolicy::AfterDelay { service_delay: 5 }
    }
}

/// How a non-initiator treats meaningful probes (step A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForwardPolicy {
    /// The paper's rule: forward on the **first** meaningful probe of each
    /// computation only. This is what bounds a computation at one probe
    /// per edge and makes it terminate.
    #[default]
    FirstMeaningful,
    /// Ablation: forward on **every** meaningful probe. Correctness (QRP2)
    /// is unaffected, but on graphs with branching, probes multiply at
    /// every hop and the computation need not terminate at all — run it
    /// only under an event cap. Exists for the ablation experiment.
    EveryMeaningful,
}

/// Configuration for a [`crate::process::BasicProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BasicConfig {
    /// Probe-computation initiation rule.
    pub initiation: InitiationPolicy,
    /// Underlying-computation service rule.
    pub reply: ReplyPolicy,
    /// A2 forwarding rule (ablation knob; leave default for the paper's
    /// algorithm).
    pub forward: ForwardPolicy,
}

impl BasicConfig {
    /// Config that initiates on every block and serves after `d` ticks.
    pub fn on_block(d: u64) -> Self {
        BasicConfig {
            initiation: InitiationPolicy::OnBlock,
            reply: ReplyPolicy::AfterDelay { service_delay: d },
            forward: ForwardPolicy::FirstMeaningful,
        }
    }

    /// Config with the §4.3 delayed-initiation rule.
    pub fn delayed(t: u64, service_delay: u64) -> Self {
        BasicConfig {
            initiation: InitiationPolicy::Delayed { t },
            reply: ReplyPolicy::AfterDelay { service_delay },
            forward: ForwardPolicy::FirstMeaningful,
        }
    }

    /// Fully manual config for scripted unit tests.
    pub fn manual() -> Self {
        BasicConfig {
            initiation: InitiationPolicy::Never,
            reply: ReplyPolicy::Manual,
            forward: ForwardPolicy::FirstMeaningful,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper_defaults() {
        let c = BasicConfig::default();
        assert_eq!(c.initiation, InitiationPolicy::OnBlock);
        assert_eq!(c.reply, ReplyPolicy::AfterDelay { service_delay: 5 });
        assert_eq!(c.forward, ForwardPolicy::FirstMeaningful);
    }

    #[test]
    fn constructors() {
        assert_eq!(
            BasicConfig::delayed(30, 2).initiation,
            InitiationPolicy::Delayed { t: 30 }
        );
        assert_eq!(BasicConfig::manual().reply, ReplyPolicy::Manual);
        assert_eq!(
            BasicConfig::on_block(9).reply,
            ReplyPolicy::AfterDelay { service_delay: 9 }
        );
    }
}
