//! The probe computation on the **live multi-threaded runtime**.
//!
//! [`LiveVertex`] is the same algorithm as [`crate::process::BasicProcess`]
//! — steps A0/A1/A2 with `(i, n)` tags and latest-`n` supersession —
//! implemented against [`simnet::runtime::LiveProcess`]: one OS thread per
//! vertex, crossbeam channels as the network. Crossbeam channels are FIFO
//! and reliable, which is precisely the paper's assumption, so the
//! theorems carry over unchanged; what this module demonstrates is that
//! the algorithm is substrate-independent (no simulator, no virtual time).
//!
//! The deterministic simulator remains the right tool for measurement and
//! validation; use this for integration with real threaded systems.
//!
//! # Examples
//!
//! ```
//! use cmh_core::live::{LiveMsg, LiveVertex};
//! use simnet::runtime::Runtime;
//! use simnet::sim::NodeId;
//! use std::time::Duration;
//!
//! // Three vertices that will request each other in a ring.
//! let mut rt = Runtime::new();
//! for i in 0..3usize {
//!     rt.add_node(LiveVertex::ring_member(NodeId((i + 1) % 3)));
//! }
//! let (vertices, _log) = rt.run_for(Duration::from_secs(2));
//! assert!(vertices.iter().any(|v| v.deadlock().is_some()));
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

use simnet::runtime::{LiveContext, LiveProcess};
use simnet::sim::NodeId;

use crate::probe::ProbeTag;

/// Messages exchanged by live vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveMsg {
    /// Underlying-computation request (creates/blackens the wait edge).
    Request,
    /// Underlying-computation reply (whitens/deletes the wait edge).
    Reply,
    /// Detection probe.
    Probe(ProbeTag),
}

const TAG_KICKOFF: u64 = 0;
const TAG_SERVE: u64 = 1;

/// A basic-model vertex running on an OS thread.
pub struct LiveVertex {
    /// Target requested shortly after start (for scripted scenarios).
    initial_request: Option<NodeId>,
    /// If set, the vertex replies to pending requests this long after
    /// becoming able to (G3: only while it has no outgoing edges).
    service: Option<Duration>,
    serve_pending: bool,
    out_waits: BTreeSet<NodeId>,
    in_black: BTreeSet<NodeId>,
    own_n: u64,
    latest: BTreeMap<NodeId, (u64, bool)>,
    deadlocked: Option<ProbeTag>,
}

impl fmt::Debug for LiveVertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveVertex")
            .field("blocked", &!self.out_waits.is_empty())
            .field("deadlocked", &self.deadlocked.is_some())
            .finish_non_exhaustive()
    }
}

impl Default for LiveVertex {
    fn default() -> Self {
        LiveVertex::new()
    }
}

impl LiveVertex {
    /// A passive vertex: replies after 5 ms when active, never requests on
    /// its own (drive it via [`LiveVertex::request`] from `on_start` hooks
    /// or scripted subclasses).
    pub fn new() -> Self {
        LiveVertex {
            initial_request: None,
            service: Some(Duration::from_millis(5)),
            serve_pending: false,
            out_waits: BTreeSet::new(),
            in_black: BTreeSet::new(),
            own_n: 0,
            latest: BTreeMap::new(),
            deadlocked: None,
        }
    }

    /// A vertex that requests `target` shortly after start — `k` of these
    /// in a ring produce a guaranteed deadlock.
    pub fn ring_member(target: NodeId) -> Self {
        LiveVertex {
            initial_request: Some(target),
            ..LiveVertex::new()
        }
    }

    /// Overrides the auto-reply service delay (`None` = never reply).
    pub fn with_service(mut self, service: Option<Duration>) -> Self {
        self.service = service;
        self
    }

    /// The computation that proved this vertex deadlocked, if any.
    pub fn deadlock(&self) -> Option<ProbeTag> {
        self.deadlocked
    }

    /// `true` while this vertex has outstanding requests.
    pub fn is_blocked(&self) -> bool {
        !self.out_waits.is_empty()
    }

    /// Sends a request to `target` and, per §4.2, initiates a probe
    /// computation on the new edge. FIFO channels put the probe behind the
    /// request (axiom P1). Duplicate requests to the same target are
    /// ignored (G1).
    pub fn request(&mut self, ctx: &mut LiveContext<LiveMsg>, target: NodeId) {
        if target == ctx.id() || self.out_waits.contains(&target) {
            return;
        }
        self.out_waits.insert(target);
        ctx.send(target, LiveMsg::Request);
        self.initiate(ctx);
    }

    /// Step A0: sends probes of a fresh computation along all outgoing
    /// edges.
    pub fn initiate(&mut self, ctx: &mut LiveContext<LiveMsg>) {
        if self.out_waits.is_empty() {
            return;
        }
        self.own_n += 1;
        let tag = ProbeTag::new(ctx.id(), self.own_n);
        for &t in &self.out_waits.clone() {
            ctx.send(t, LiveMsg::Probe(tag));
        }
    }

    fn schedule_serve(&mut self, ctx: &mut LiveContext<LiveMsg>) {
        if let Some(d) = self.service {
            if !self.serve_pending && self.out_waits.is_empty() && !self.in_black.is_empty() {
                self.serve_pending = true;
                ctx.set_timer(d, TAG_SERVE);
            }
        }
    }
}

impl LiveProcess<LiveMsg> for LiveVertex {
    fn on_start(&mut self, ctx: &mut LiveContext<LiveMsg>) {
        if self.initial_request.is_some() {
            // Stagger kick-offs a little so greys and blacks both occur.
            ctx.set_timer(
                Duration::from_millis(3 + ctx.id().0 as u64 * 2),
                TAG_KICKOFF,
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut LiveContext<LiveMsg>, tag: u64) {
        match tag {
            TAG_KICKOFF => {
                if let Some(target) = self.initial_request.take() {
                    self.request(ctx, target);
                }
            }
            TAG_SERVE => {
                self.serve_pending = false;
                if self.out_waits.is_empty() {
                    for requester in std::mem::take(&mut self.in_black) {
                        ctx.send(requester, LiveMsg::Reply);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut LiveContext<LiveMsg>, from: NodeId, msg: LiveMsg) {
        match msg {
            LiveMsg::Request => {
                self.in_black.insert(from);
                self.schedule_serve(ctx);
            }
            LiveMsg::Reply => {
                self.out_waits.remove(&from);
                self.schedule_serve(ctx);
            }
            LiveMsg::Probe(tag) => {
                // Meaningful iff the travelled edge is black right now.
                if !self.in_black.contains(&from) {
                    return;
                }
                if tag.initiator == ctx.id() {
                    // A1.
                    if tag.n == self.own_n && self.deadlocked.is_none() {
                        self.deadlocked = Some(tag);
                        ctx.note(format!("DECLARE deadlock (computation {tag})"));
                    }
                    return;
                }
                // A2 with latest-n supersession.
                let entry = self.latest.entry(tag.initiator).or_insert((0, false));
                if tag.n < entry.0 || (tag.n == entry.0 && entry.1) {
                    return;
                }
                *entry = (tag.n, true);
                for &t in &self.out_waits.clone() {
                    ctx.send(t, LiveMsg::Probe(tag));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::runtime::Runtime;

    #[test]
    fn live_ring_detects_deadlock() {
        let k = 5;
        let mut rt = Runtime::new();
        for i in 0..k {
            rt.add_node(LiveVertex::ring_member(NodeId((i + 1) % k)));
        }
        let (vertices, log) = rt.run_for(Duration::from_millis(400));
        let declared = vertices.iter().filter(|v| v.deadlock().is_some()).count();
        assert!(declared >= 1, "ring not detected; log: {log:?}");
        assert!(vertices.iter().all(LiveVertex::is_blocked));
    }

    #[test]
    fn live_chain_resolves_without_declaration() {
        // 0 -> 1 -> 2, with 2 active: replies cascade back and everyone
        // unblocks; no declaration.
        let mut rt = Runtime::new();
        rt.add_node(LiveVertex::ring_member(NodeId(1)));
        rt.add_node(LiveVertex::ring_member(NodeId(2)));
        rt.add_node(LiveVertex::new());
        let (vertices, _log) = rt.run_for(Duration::from_millis(400));
        assert!(vertices.iter().all(|v| v.deadlock().is_none()));
        assert!(vertices.iter().all(|v| !v.is_blocked()));
    }

    #[test]
    fn never_serving_pair_deadlocks() {
        let mut rt = Runtime::new();
        rt.add_node(LiveVertex::ring_member(NodeId(1)).with_service(None));
        rt.add_node(LiveVertex::ring_member(NodeId(0)).with_service(None));
        let (vertices, _log) = rt.run_for(Duration::from_millis(300));
        assert!(vertices.iter().any(|v| v.deadlock().is_some()));
    }
}
