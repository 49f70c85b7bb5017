//! # wfg — coloured wait-for graphs (Chandy & Misra, PODC 1982, §2)
//!
//! The paper models a distributed computation as a directed graph whose
//! vertices are processes and whose edges are outstanding requests,
//! coloured **grey** (request in flight), **black** (request received,
//! reply pending) or **white** (reply in flight). Four axioms (G1–G4)
//! constrain how the graph may evolve; a cycle of grey/black ("dark")
//! edges persists forever and is precisely a deadlock.
//!
//! This crate provides:
//!
//! * [`graph::WaitForGraph`] — the coloured graph with axioms G1–G4
//!   *enforced* (illegal mutations are rejected), backed by a dense
//!   interned-id core so traversals are index arithmetic, not tree walks;
//! * [`oracle`] — centralised ground-truth queries (dark-cycle membership,
//!   permanently blocked sets, WFGD closures) used to validate the
//!   distributed algorithm; hot paths hold an [`oracle::Oracle`] for
//!   answers memoized until the graph's dark edge set changes;
//! * [`generators`] — topologies for tests and experiments;
//! * [`journal`] — timestamped mutation journals for as-of-time replay,
//!   with [`journal::ReplayCursor`] for cheap repeated seeks.
//!
//! ```
//! use simnet::sim::NodeId;
//! use wfg::generators::{cycle, realise_black};
//! use wfg::oracle;
//!
//! let g = realise_black(&cycle(4));
//! assert!(oracle::is_on_dark_cycle(&g, NodeId(2)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod generators;
pub mod graph;
pub mod journal;
pub mod oracle;

pub use graph::{AxiomViolation, Edge, EdgeColour, WaitForGraph};
