//! Event tracing for debugging and for the correctness checkers.
//!
//! When enabled, the simulator records every send, delivery and timer event
//! together with its virtual timestamp. The `cmh-core` soundness checker
//! consumes traces to verify property QRP2 ("no false deadlock"), and the
//! `probe_trace` example pretty-prints them.

use std::fmt;

use crate::faults::DropReason;
use crate::sim::NodeId;
use crate::time::SimTime;

/// One recorded simulation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message was handed to the network.
    Send {
        /// Time of sending.
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Scheduled delivery time.
        deliver_at: SimTime,
        /// Human-readable message summary.
        summary: String,
    },
    /// A message reached its recipient.
    Deliver {
        /// Time of delivery.
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Human-readable message summary.
        summary: String,
    },
    /// A timer fired at its owner.
    Timer {
        /// Firing time.
        at: SimTime,
        /// Timer owner.
        node: NodeId,
        /// Application tag attached at `set_timer` time.
        tag: u64,
    },
    /// A free-form annotation emitted by a process (e.g. "DECLARE deadlock").
    Note {
        /// Time of the annotation.
        at: SimTime,
        /// Emitting node.
        node: NodeId,
        /// Annotation text.
        text: String,
    },
    /// A message (or reliable-layer wire packet) was dropped by fault
    /// injection, a crash window, or transport abandonment.
    Drop {
        /// Time of the drop (send time for wire faults, delivery time for
        /// crashed recipients).
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
        /// Human-readable message summary.
        summary: String,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// Fault injection scheduled a second copy of a message.
    Duplicate {
        /// Time of the duplication (the original send time).
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Scheduled delivery time of the extra copy.
        deliver_at: SimTime,
        /// Human-readable message summary.
        summary: String,
    },
    /// A node crashed (scheduled by the fault plan).
    Crash {
        /// Crash time.
        at: SimTime,
        /// The crashed node.
        node: NodeId,
    },
    /// A crashed node restarted.
    Restart {
        /// Restart time.
        at: SimTime,
        /// The restarted node.
        node: NodeId,
    },
    /// The reliable layer retransmitted an unacknowledged packet.
    Retransmit {
        /// Retransmission time.
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Channel sequence number being re-sent.
        seq: u64,
        /// Transmissions already made before this one.
        attempt: u32,
    },
    /// The reliable layer sent a cumulative acknowledgement.
    Ack {
        /// Send time of the ack.
        at: SimTime,
        /// The acking node (the data receiver).
        from: NodeId,
        /// The acked node (the data sender).
        to: NodeId,
        /// Every sequence number below this is acknowledged.
        next: u64,
    },
}

impl TraceEvent {
    /// The virtual time at which this event occurred.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Send { at, .. }
            | TraceEvent::Deliver { at, .. }
            | TraceEvent::Timer { at, .. }
            | TraceEvent::Note { at, .. }
            | TraceEvent::Drop { at, .. }
            | TraceEvent::Duplicate { at, .. }
            | TraceEvent::Crash { at, .. }
            | TraceEvent::Restart { at, .. }
            | TraceEvent::Retransmit { at, .. }
            | TraceEvent::Ack { at, .. } => *at,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Send {
                at,
                from,
                to,
                deliver_at,
                summary,
            } => write!(
                f,
                "{at} SEND    {from} -> {to} (eta {deliver_at}): {summary}"
            ),
            TraceEvent::Deliver {
                at,
                from,
                to,
                summary,
            } => write!(f, "{at} DELIVER {from} -> {to}: {summary}"),
            TraceEvent::Timer { at, node, tag } => {
                write!(f, "{at} TIMER   {node} tag={tag}")
            }
            TraceEvent::Note { at, node, text } => write!(f, "{at} NOTE    {node}: {text}"),
            TraceEvent::Drop {
                at,
                from,
                to,
                summary,
                reason,
            } => write!(f, "{at} DROP    {from} -> {to} [{reason}]: {summary}"),
            TraceEvent::Duplicate {
                at,
                from,
                to,
                deliver_at,
                summary,
            } => write!(
                f,
                "{at} DUP     {from} -> {to} (eta {deliver_at}): {summary}"
            ),
            TraceEvent::Crash { at, node } => write!(f, "{at} CRASH   {node}"),
            TraceEvent::Restart { at, node } => write!(f, "{at} RESTART {node}"),
            TraceEvent::Retransmit {
                at,
                from,
                to,
                seq,
                attempt,
            } => write!(f, "{at} RETX    {from} -> {to} seq={seq} attempt={attempt}"),
            TraceEvent::Ack { at, from, to, next } => {
                write!(f, "{at} ACK     {from} -> {to} next={next}")
            }
        }
    }
}

/// A chronologically ordered recording of a simulation run.
///
/// # Examples
///
/// ```
/// use simnet::sim::NodeId;
/// use simnet::time::SimTime;
/// use simnet::trace::{Trace, TraceEvent};
///
/// let mut trace = Trace::new(true);
/// trace.push(TraceEvent::Note {
///     at: SimTime::from_ticks(3),
///     node: NodeId(0),
///     text: "DECLARE deadlock".into(),
/// });
/// assert_eq!(trace.notes_containing("DECLARE").count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl Trace {
    /// Creates a trace; recording happens only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Trace {
            events: Vec::new(),
            enabled,
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event if tracing is enabled.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// Bulk-appends events if tracing is enabled. The window barrier of a
    /// sharded run stitches each window's per-shard trace fragments with one
    /// `extend` per contiguous run instead of per-event pushes.
    pub fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, events: I) {
        if self.enabled {
            self.events.extend(events);
        }
    }

    /// The recorded events, in order of occurrence.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Returns the notes (annotations) matching a substring, in order.
    pub fn notes_containing<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events
            .iter()
            .filter(move |e| matches!(e, TraceEvent::Note { text, .. } if text.contains(needle)))
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        t.push(TraceEvent::Timer {
            at: SimTime::ZERO,
            node: NodeId(0),
            tag: 1,
        });
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::new(true);
        for i in 0..3 {
            t.push(TraceEvent::Note {
                at: SimTime::from_ticks(i),
                node: NodeId(0),
                text: format!("n{i}"),
            });
        }
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.events()[2].at(), SimTime::from_ticks(2));
    }

    #[test]
    fn notes_filter_matches_substring() {
        let mut t = Trace::new(true);
        t.push(TraceEvent::Note {
            at: SimTime::ZERO,
            node: NodeId(1),
            text: "DECLARE deadlock".into(),
        });
        t.push(TraceEvent::Timer {
            at: SimTime::ZERO,
            node: NodeId(1),
            tag: 0,
        });
        assert_eq!(t.notes_containing("DECLARE").count(), 1);
        assert_eq!(t.notes_containing("nope").count(), 0);
    }

    #[test]
    fn display_formats_each_kind() {
        let mut t = Trace::new(true);
        t.push(TraceEvent::Send {
            at: SimTime::ZERO,
            from: NodeId(0),
            to: NodeId(1),
            deliver_at: SimTime::from_ticks(4),
            summary: "req".into(),
        });
        t.push(TraceEvent::Deliver {
            at: SimTime::from_ticks(4),
            from: NodeId(0),
            to: NodeId(1),
            summary: "req".into(),
        });
        let s = t.to_string();
        assert!(s.contains("SEND") && s.contains("DELIVER") && s.contains("eta t=4"));
    }

    #[test]
    fn display_formats_fault_kinds() {
        let mut t = Trace::new(true);
        t.push(TraceEvent::Drop {
            at: SimTime::from_ticks(1),
            from: NodeId(0),
            to: NodeId(1),
            summary: "req".into(),
            reason: DropReason::Loss,
        });
        t.push(TraceEvent::Duplicate {
            at: SimTime::from_ticks(1),
            from: NodeId(0),
            to: NodeId(1),
            deliver_at: SimTime::from_ticks(9),
            summary: "req".into(),
        });
        t.push(TraceEvent::Crash {
            at: SimTime::from_ticks(2),
            node: NodeId(1),
        });
        t.push(TraceEvent::Restart {
            at: SimTime::from_ticks(3),
            node: NodeId(1),
        });
        t.push(TraceEvent::Retransmit {
            at: SimTime::from_ticks(4),
            from: NodeId(0),
            to: NodeId(1),
            seq: 7,
            attempt: 2,
        });
        t.push(TraceEvent::Ack {
            at: SimTime::from_ticks(5),
            from: NodeId(1),
            to: NodeId(0),
            next: 8,
        });
        let s = t.to_string();
        assert!(s.contains("DROP") && s.contains("[loss]"));
        assert!(s.contains("DUP") && s.contains("CRASH") && s.contains("RESTART"));
        assert!(s.contains("RETX") && s.contains("seq=7") && s.contains("attempt=2"));
        assert!(s.contains("ACK") && s.contains("next=8"));
        assert_eq!(t.events()[5].at(), SimTime::from_ticks(5));
    }
}
