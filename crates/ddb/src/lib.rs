//! # cmh-ddb — the Menasce–Muntz distributed database model (§6)
//!
//! §6 of the paper extends the basic-model probe computation to a
//! distributed database: transactions `T_i` run as collections of processes
//! `(T_i, S_j)`, one per site, coordinated by per-site controllers `C_j`
//! that manage locks and exchange all messages. Wait-for edges come in two
//! kinds:
//!
//! * **intra-controller** edges `(T_i,S_j) → (T_k,S_j)` — derived from the
//!   local lock table, always black;
//! * **inter-controller** edges `(T_i,S_j) → (T_i,S_m)` — a process waiting
//!   to hear that its sibling acquired a remote resource; grey/black/white
//!   with the basic model's meaning.
//!
//! Controllers run the probe computation of §6.6 (probes travel only along
//! inter-controller edges; label propagation replaces probes inside one
//! controller) with the §6.7 **Q-optimisation**: purely local cycles are
//! declared without probes, and only processes with incoming black
//! inter-controller edges get their own computations.
//!
//! Module map:
//!
//! | paper | module |
//! |---|---|
//! | §6.2 processes, sites, transactions | [`ids`], [`txn`] |
//! | locking (cited to Menasce–Muntz/Gray) | [`lock`] |
//! | §6.4 coloured edges | [`controller`] (state) + [`net`] (reconstruction) |
//! | §6.5–§6.6 probe computation | [`probe`], [`controller`] |
//! | §6.7 Q-optimisation | [`controller`], [`config`] |
//! | resolution (deferred by the paper) | [`config::Resolution`] |
//! | QRP1, QRP2, liveness (`wfg::oracle`, `cmh_core::ValidationError`) | [`net`] (simulator), [`snapshot`] (at rest), [`explore`] (`mck`) |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod config;
pub mod controller;
pub mod explore;
pub mod ids;
pub mod lock;
pub mod msg;
pub mod net;
pub mod probe;
pub mod snapshot;
pub mod txn;
pub mod wfgd;

pub use config::{DdbConfig, DdbInitiation, Resolution};
pub use controller::Controller;
pub use ids::{AgentId, DdbProbeTag, ResourceId, SiteId, TransactionId};
pub use lock::{LockMode, LockOutcome, LockTable};
pub use net::DdbNet;
pub use probe::DdbDeadlock;
pub use txn::{LockReq, Transaction, TxnStatus, TxnStep};
