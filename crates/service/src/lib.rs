//! # cmh-service — the networked detector service
//!
//! Promotes the CMH reproduction from a simulated system to a deployable
//! one: every DDB site/controller runs as a thread-per-core worker
//! ([`node::spawn_site`]) serving real TCP or Unix-domain sockets, and a
//! load generator ([`loadgen`]) drives configurable simulated client
//! populations against the resulting multi-thread site topology.
//!
//! ## Architecture (DESIGN.md §14)
//!
//! Each site server hosts the **unmodified** [`cmh_ddb::controller::Controller`]
//! inside a single-node-scoped deterministic simulation (`simnet::sim`):
//! the controller occupies its own slot, and every remote site is a relay
//! stub that captures outbound messages into an outbox. The drive loop
//! maps wall-clock time onto virtual ticks (`tick_micros`), drains the
//! outbox onto real sockets, and injects inbound peer frames back through
//! the relay slots — so the algorithm code, its timers, and its
//! correctness arguments carry over from the simulator verbatim.
//!
//! Peer links speak the substrate-generic reliable transport
//! ([`simnet::transport::Endpoint`]): per-direction sequence numbers,
//! cumulative acks, capped-backoff retransmission, dup suppression and
//! resequencing. Transport state lives in a *stable store* owned by the
//! cluster ([`cluster::Cluster`]), so killing a site server loses only
//! volatile controller state — exactly the crash model the simulator's
//! fault layer implements — and a restarted site replays unacknowledged
//! frames from where it left off.
//!
//! The wire format is hand-rolled ([`wire`], [`proto`]): the vendored
//! `serde` is a no-op shim, so frames are length-prefixed little-endian
//! binary with explicit tag bytes, reassembled by an incremental
//! [`wire::FrameReader`] that rejects malformed lengths.
//!
//! Experiment E14 (`exp_service`) measures the
//! stack end-to-end on loopback: sustained requests/sec, request→grant
//! and request→Declare latency quantiles, probe overhead per detected
//! deadlock, and time-to-recovery across a controller kill/restart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod loadgen;
pub mod node;
pub mod proto;
pub mod sock;
pub mod wire;
