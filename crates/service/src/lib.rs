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
//! A site is a sans-IO **core** behind a socket **shell**. The core
//! ([`core::SiteCore`]) hosts the **unmodified**
//! [`cmh_ddb::controller::Controller`] as the one process of a
//! [`simnet::solo::Solo`] host, so the algorithm code, its timers and its
//! correctness arguments carry over from the simulator verbatim. Around it the core keeps one reliable
//! [`simnet::transport::Endpoint`] per peer, the client-request tracking
//! and the transaction-id high-water mark. Decoded frames and a
//! microsecond clock go in, encoded frames come out; it touches no
//! socket, thread or wall clock, which is why `tests/sim_cluster.rs` can
//! run it under the simulator's fault injector.
//!
//! The shell ([`node`]) accepts, dials, reads, writes and sleeps. What
//! survives a crash ([`core::SiteStable`]) parks in a store owned by the
//! cluster ([`cluster::Cluster`]), so killing a site server loses only
//! volatile controller state — the crash model of the simulator's fault
//! layer — and a restarted site replays unacknowledged frames.
//!
//! The wire format ([`wire`], [`proto`]) is length-prefixed little-endian
//! binary with explicit tag bytes, reassembled by an incremental
//! [`wire::FrameReader`] that rejects malformed lengths.
//!
//! `benchmark/` (the `svc_*` workloads, `e2e.recovery_ms`) measures the
//! stack end-to-end on loopback; `tests/service_e2e.rs` pins that it
//! works — staged ring, kill/restart, open loop — over both transports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod core;
pub mod loadgen;
pub mod node;
pub mod proto;
pub mod sock;
pub mod wire;
