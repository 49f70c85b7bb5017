//! # cmh-core — the Chandy–Misra probe computation (PODC 1982, §3–§5)
//!
//! This crate implements the paper's primary contribution for the **basic
//! model**: a distributed algorithm by which a vertex of the wait-for
//! graph detects that it lies on a *dark cycle* (a deadlock).
//!
//! ## The algorithm (§3.4)
//!
//! A vertex `v_i` initiates probe computation `(i, n)` by sending a probe
//! along each outgoing edge (**A0**). A probe is *meaningful* at its
//! receiver iff the edge it travelled is black on arrival — a fact the
//! receiver observes locally (P3). A non-initiator forwards probes along
//! all its outgoing edges on the **first** meaningful probe of each
//! computation (**A2**); when the initiator receives a meaningful probe of
//! its own computation it declares "I am on a black cycle" (**A1**).
//!
//! The two proved properties:
//!
//! * **QRP1** — if the initiator is on a dark cycle at initiation, it
//!   eventually receives a meaningful probe (no missed deadlock);
//! * **QRP2** — if the initiator receives a meaningful probe, it is on a
//!   black cycle at that moment (no false deadlock).
//!
//! [`engine::Net::verify_soundness`] and
//! [`engine::BasicNet::verify_completeness`] machine-check both properties
//! on every simulated run, against the centralised [`wfg::oracle`].
//!
//! ## Module map
//!
//! | paper | module |
//! |---|---|
//! | §3.2 probe tags `(i, n)` | [`probe`] |
//! | §2 underlying computation G1–G4 (shared with `baselines`); §3.4 A0/A1/A2 | [`process`] |
//! | §4.2–§4.3 initiation rules, O(N) state | [`config`], [`process`] |
//! | §5 WFGD computation | [`wfgd`] |
//! | journalled harness (shared with `baselines`) + validation | [`engine`] |
//!
//! ## Quick start
//!
//! ```
//! use cmh_core::config::BasicConfig;
//! use cmh_core::engine::BasicNet;
//! use simnet::sim::NodeId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three processes request each other in a ring: a deadlock.
//! let mut net = BasicNet::new(3, BasicConfig::on_block(5), 1);
//! for i in 0..3 {
//!     net.request(NodeId(i), NodeId((i + 1) % 3))?;
//! }
//! net.run_to_quiescence(100_000);
//!
//! let reports = net.declarations();
//! assert!(!reports.is_empty());
//! println!("{}", reports[0]);
//!
//! // Machine-check the paper's properties on this run.
//! net.verify_soundness()?;
//! net.verify_completeness()?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod explore;
pub mod ormodel;
pub mod probe;
pub mod process;
pub mod vset;
pub mod wfgd;

pub use config::{BasicConfig, ForwardPolicy, InitiationPolicy, ReplyPolicy};
pub use engine::{BasicNet, Classified, Net, ValidationError, Vertex};
pub use probe::{DeadlockReport, ProbeTag};
pub use process::{BasicMsg, BasicProcess, RequestError};
