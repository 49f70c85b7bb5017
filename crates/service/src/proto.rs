//! Protocol messages and their binary codecs.
//!
//! Three frame families share the wire format ([`crate::wire`]) but use
//! disjoint tag spaces, so a frame routed to the wrong decoder fails
//! loudly instead of aliasing:
//!
//! * [`PeerFrame`] (tags `0x0*`) — controller↔controller: a `Hello`
//!   identifying the dialing site, reliably sequenced `Data` frames
//!   carrying [`DdbMsg`]s, and cumulative `Ack`s (the transport state
//!   machine is [`simnet::transport::Endpoint`]);
//! * [`ClientFrame`] (tags `0x1*`) — client→server: a `Hello` and
//!   transaction submissions (the server assigns the real
//!   [`TransactionId`]; clients name requests by their own `req` id);
//! * [`ServerFrame`] (tags `0x2*`) — server→client notifications:
//!   first-lock grant, deadlock declaration against the transaction, and
//!   the commit.

use cmh_ddb::ids::{AgentId, DdbProbeTag, ResourceId, SiteId, TransactionId};
use cmh_ddb::lock::LockMode;
use cmh_ddb::msg::DdbMsg;
use cmh_ddb::txn::{LockReq, Transaction, TxnStep};
use cmh_ddb::wfgd::AgentEdgeSet;

use crate::wire::{put_u32, put_u64, put_u8, Dec, WireError};

/// Controller↔controller frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerFrame {
    /// First frame on a dialed peer connection: who is calling.
    Hello {
        /// The dialing site.
        site: SiteId,
    },
    /// A reliably sequenced controller message.
    Data {
        /// Per-direction sequence number (see [`simnet::transport`]).
        seq: u64,
        /// The controller message.
        msg: DdbMsg,
    },
    /// Cumulative acknowledgement of the opposite direction's `Data`.
    Ack {
        /// Next sequence number expected (everything below is delivered).
        next: u64,
    },
    /// Service-level declaration forward: the sender's controller declared
    /// `txn` deadlocked and `txn`'s home is the recipient, which owes its
    /// client a [`ServerFrame::Declared`]. Best-effort (sent outside the
    /// reliable endpoint): under `Resolution::None` the declaring
    /// controller keeps the declaration forever, so a lost forward is
    /// recoverable from the at-rest snapshot, and under resolution the
    /// home site learns anyway via the algorithm's own `Abort`.
    Declare {
        /// The declared (subject) transaction.
        txn: TransactionId,
    },
}

/// Client→server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFrame {
    /// First frame on a client connection.
    Hello,
    /// Submit a transaction homed at the serving site. The server assigns
    /// the cluster-unique [`TransactionId`]; notifications echo `req`.
    Submit {
        /// Client-chosen request id, unique per connection.
        req: u64,
        /// The script steps (home/id are the server's to fill in).
        steps: Vec<TxnStep>,
    },
}

/// Server→client notification frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerFrame {
    /// The transaction's first lock step completed (request→grant).
    Granted {
        /// The client's request id.
        req: u64,
    },
    /// A deadlock was declared with this transaction as subject.
    Declared {
        /// The client's request id.
        req: u64,
    },
    /// The transaction reached a terminal state.
    Done {
        /// The client's request id.
        req: u64,
        /// `true` = committed. A site never sends `false`: an aborted
        /// victim restarts, so the only terminal state is a commit.
        committed: bool,
        /// Times the script was started (restarts = attempts − 1).
        attempts: u32,
    },
}

// --- tag bytes ---

const T_PEER_HELLO: u8 = 0x01;
const T_PEER_DATA: u8 = 0x02;
const T_PEER_ACK: u8 = 0x03;
const T_PEER_DECLARE: u8 = 0x04;
const T_CLIENT_HELLO: u8 = 0x11;
const T_CLIENT_SUBMIT: u8 = 0x12;
const T_SERVER_GRANTED: u8 = 0x21;
const T_SERVER_DECLARED: u8 = 0x22;
const T_SERVER_DONE: u8 = 0x23;

// --- scalar codecs ---

fn put_site(buf: &mut Vec<u8>, s: SiteId) {
    put_u32(buf, s.0 as u32);
}

fn get_site(d: &mut Dec<'_>) -> Result<SiteId, WireError> {
    Ok(SiteId(d.u32()? as usize))
}

fn put_txn_id(buf: &mut Vec<u8>, t: TransactionId) {
    put_u32(buf, t.0);
}

fn get_txn_id(d: &mut Dec<'_>) -> Result<TransactionId, WireError> {
    Ok(TransactionId(d.u32()?))
}

fn put_resource(buf: &mut Vec<u8>, r: ResourceId) {
    put_u64(buf, r.0);
}

fn get_resource(d: &mut Dec<'_>) -> Result<ResourceId, WireError> {
    Ok(ResourceId(d.u64()?))
}

fn put_mode(buf: &mut Vec<u8>, m: LockMode) {
    put_u8(buf, matches!(m, LockMode::Exclusive) as u8);
}

fn get_mode(d: &mut Dec<'_>) -> Result<LockMode, WireError> {
    match d.u8()? {
        0 => Ok(LockMode::Shared),
        1 => Ok(LockMode::Exclusive),
        tag => Err(WireError::BadTag {
            what: "LockMode",
            tag,
        }),
    }
}

fn put_agent(buf: &mut Vec<u8>, a: AgentId) {
    put_txn_id(buf, a.txn);
    put_site(buf, a.site);
}

fn get_agent(d: &mut Dec<'_>) -> Result<AgentId, WireError> {
    let txn = get_txn_id(d)?;
    let site = get_site(d)?;
    Ok(AgentId::new(txn, site))
}

// --- DdbMsg codec ---

const M_REMOTE_REQUEST: u8 = 1;
const M_ACQUIRED: u8 = 2;
const M_REMOTE_RELEASE: u8 = 3;
const M_PROBE: u8 = 4;
const M_ABORT: u8 = 5;
const M_WFGD: u8 = 6;

/// Appends the binary encoding of a controller message.
pub fn put_ddb_msg(buf: &mut Vec<u8>, msg: &DdbMsg) {
    match msg {
        DdbMsg::RemoteRequest {
            txn,
            resource,
            mode,
            home,
        } => {
            put_u8(buf, M_REMOTE_REQUEST);
            put_txn_id(buf, *txn);
            put_resource(buf, *resource);
            put_mode(buf, *mode);
            put_site(buf, *home);
        }
        DdbMsg::Acquired { txn, resource } => {
            put_u8(buf, M_ACQUIRED);
            put_txn_id(buf, *txn);
            put_resource(buf, *resource);
        }
        DdbMsg::RemoteRelease { txn, resource } => {
            put_u8(buf, M_REMOTE_RELEASE);
            put_txn_id(buf, *txn);
            put_resource(buf, *resource);
        }
        DdbMsg::Probe { tag, edge } => {
            put_u8(buf, M_PROBE);
            put_site(buf, tag.initiator);
            put_u64(buf, tag.n);
            put_agent(buf, edge.0);
            put_agent(buf, edge.1);
        }
        DdbMsg::Abort { txn } => {
            put_u8(buf, M_ABORT);
            put_txn_id(buf, *txn);
        }
        DdbMsg::Wfgd { txn, edges } => {
            put_u8(buf, M_WFGD);
            put_txn_id(buf, *txn);
            put_u32(buf, edges.len() as u32);
            for (a, b) in edges {
                put_agent(buf, a);
                put_agent(buf, b);
            }
        }
    }
}

/// Decodes a controller message.
pub fn get_ddb_msg(d: &mut Dec<'_>) -> Result<DdbMsg, WireError> {
    match d.u8()? {
        M_REMOTE_REQUEST => Ok(DdbMsg::RemoteRequest {
            txn: get_txn_id(d)?,
            resource: get_resource(d)?,
            mode: get_mode(d)?,
            home: get_site(d)?,
        }),
        M_ACQUIRED => Ok(DdbMsg::Acquired {
            txn: get_txn_id(d)?,
            resource: get_resource(d)?,
        }),
        M_REMOTE_RELEASE => Ok(DdbMsg::RemoteRelease {
            txn: get_txn_id(d)?,
            resource: get_resource(d)?,
        }),
        M_PROBE => {
            let initiator = get_site(d)?;
            let n = d.u64()?;
            let from = get_agent(d)?;
            let to = get_agent(d)?;
            Ok(DdbMsg::Probe {
                tag: DdbProbeTag { initiator, n },
                edge: (from, to),
            })
        }
        M_ABORT => Ok(DdbMsg::Abort {
            txn: get_txn_id(d)?,
        }),
        M_WFGD => {
            let txn = get_txn_id(d)?;
            let n = d.count()?;
            let mut edges = AgentEdgeSet::new();
            for _ in 0..n {
                let a = get_agent(d)?;
                let b = get_agent(d)?;
                edges.insert((a, b));
            }
            Ok(DdbMsg::Wfgd { txn, edges })
        }
        tag => Err(WireError::BadTag {
            what: "DdbMsg",
            tag,
        }),
    }
}

// --- TxnStep codec ---

// Tag 1 is retired (the single-lock step, now a `LockAll` of one): do
// not reuse it.
const S_LOCK_ALL: u8 = 2;
const S_WORK: u8 = 3;

/// Appends the binary encoding of one script step.
pub fn put_step(buf: &mut Vec<u8>, step: &TxnStep) {
    match step {
        TxnStep::LockAll(reqs) => {
            put_u8(buf, S_LOCK_ALL);
            put_u32(buf, reqs.len() as u32);
            for r in reqs {
                put_site(buf, r.site);
                put_resource(buf, r.resource);
                put_mode(buf, r.mode);
            }
        }
        TxnStep::Work { ticks } => {
            put_u8(buf, S_WORK);
            put_u64(buf, *ticks);
        }
    }
}

/// Decodes one script step, rejecting shapes the transaction builder
/// panics on (empty or duplicate-target `lock_all`).
pub fn get_step(d: &mut Dec<'_>) -> Result<TxnStep, WireError> {
    match d.u8()? {
        S_LOCK_ALL => {
            let n = d.count()?;
            if n == 0 {
                return Err(WireError::Invalid("empty lock_all"));
            }
            let mut reqs = Vec::with_capacity(n);
            for _ in 0..n {
                reqs.push(LockReq {
                    site: get_site(d)?,
                    resource: get_resource(d)?,
                    mode: get_mode(d)?,
                });
            }
            let mut targets: Vec<(SiteId, ResourceId)> =
                reqs.iter().map(|r| (r.site, r.resource)).collect();
            targets.sort_unstable();
            targets.dedup();
            if targets.len() != reqs.len() {
                return Err(WireError::Invalid("duplicate lock_all target"));
            }
            Ok(TxnStep::LockAll(reqs))
        }
        S_WORK => Ok(TxnStep::Work { ticks: d.u64()? }),
        tag => Err(WireError::BadTag {
            what: "TxnStep",
            tag,
        }),
    }
}

/// Rebuilds a [`Transaction`] from decoded steps, with the server-assigned
/// identity.
pub fn build_txn(id: TransactionId, home: SiteId, steps: &[TxnStep]) -> Transaction {
    let mut t = Transaction::new(id, home);
    for s in steps {
        t = match s {
            TxnStep::LockAll(reqs) => t.lock_all(reqs.iter().copied()),
            TxnStep::Work { ticks } => t.work(*ticks),
        };
    }
    t
}

// --- frame codecs ---

impl PeerFrame {
    /// The body of `PeerFrame::Data { seq, msg }` from a borrowed message:
    /// the sender keeps `msg` in its retransmission buffer, so encoding
    /// must not cost it a clone.
    pub fn encode_data(seq: u64, msg: &DdbMsg) -> Vec<u8> {
        let mut b = Vec::with_capacity(32);
        put_u8(&mut b, T_PEER_DATA);
        put_u64(&mut b, seq);
        put_ddb_msg(&mut b, msg);
        b
    }

    /// Encodes into a fresh body buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32);
        match self {
            PeerFrame::Hello { site } => {
                put_u8(&mut b, T_PEER_HELLO);
                put_site(&mut b, *site);
            }
            PeerFrame::Data { seq, msg } => {
                put_u8(&mut b, T_PEER_DATA);
                put_u64(&mut b, *seq);
                put_ddb_msg(&mut b, msg);
            }
            PeerFrame::Ack { next } => {
                put_u8(&mut b, T_PEER_ACK);
                put_u64(&mut b, *next);
            }
            PeerFrame::Declare { txn } => {
                put_u8(&mut b, T_PEER_DECLARE);
                put_txn_id(&mut b, *txn);
            }
        }
        b
    }

    /// Decodes a full frame body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(body);
        let v = match d.u8()? {
            T_PEER_HELLO => PeerFrame::Hello {
                site: get_site(&mut d)?,
            },
            T_PEER_DATA => {
                let seq = d.u64()?;
                let msg = get_ddb_msg(&mut d)?;
                PeerFrame::Data { seq, msg }
            }
            T_PEER_ACK => PeerFrame::Ack { next: d.u64()? },
            T_PEER_DECLARE => PeerFrame::Declare {
                txn: get_txn_id(&mut d)?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "PeerFrame",
                    tag,
                })
            }
        };
        d.done()?;
        Ok(v)
    }
}

impl ClientFrame {
    /// Appends the body of `ClientFrame::Submit { req, steps }` from
    /// borrowed steps: the load client frames a round of submissions
    /// straight into its write buffer, with no clone and no body of its own.
    pub(crate) fn put_submit(buf: &mut Vec<u8>, req: u64, steps: &[TxnStep]) {
        put_u8(buf, T_CLIENT_SUBMIT);
        put_u64(buf, req);
        put_u32(buf, steps.len() as u32);
        for s in steps {
            put_step(buf, s);
        }
    }

    /// Encodes into a fresh body buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32);
        match self {
            ClientFrame::Hello => put_u8(&mut b, T_CLIENT_HELLO),
            ClientFrame::Submit { req, steps } => ClientFrame::put_submit(&mut b, *req, steps),
        }
        b
    }

    /// Decodes a full frame body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(body);
        let v = match d.u8()? {
            T_CLIENT_HELLO => ClientFrame::Hello,
            T_CLIENT_SUBMIT => {
                let req = d.u64()?;
                let n = d.count()?;
                let mut steps = Vec::with_capacity(n);
                for _ in 0..n {
                    steps.push(get_step(&mut d)?);
                }
                ClientFrame::Submit { req, steps }
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "ClientFrame",
                    tag,
                })
            }
        };
        d.done()?;
        Ok(v)
    }
}

impl ServerFrame {
    /// Encodes into a fresh body buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(16);
        match self {
            ServerFrame::Granted { req } => {
                put_u8(&mut b, T_SERVER_GRANTED);
                put_u64(&mut b, *req);
            }
            ServerFrame::Declared { req } => {
                put_u8(&mut b, T_SERVER_DECLARED);
                put_u64(&mut b, *req);
            }
            ServerFrame::Done {
                req,
                committed,
                attempts,
            } => {
                put_u8(&mut b, T_SERVER_DONE);
                put_u64(&mut b, *req);
                put_u8(&mut b, *committed as u8);
                put_u32(&mut b, *attempts);
            }
        }
        b
    }

    /// Decodes a full frame body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(body);
        let v = match d.u8()? {
            T_SERVER_GRANTED => ServerFrame::Granted { req: d.u64()? },
            T_SERVER_DECLARED => ServerFrame::Declared { req: d.u64()? },
            T_SERVER_DONE => {
                let req = d.u64()?;
                let committed = match d.u8()? {
                    0 => false,
                    1 => true,
                    tag => return Err(WireError::BadTag { what: "bool", tag }),
                };
                let attempts = d.u32()?;
                ServerFrame::Done {
                    req,
                    committed,
                    attempts,
                }
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "ServerFrame",
                    tag,
                })
            }
        };
        d.done()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_frames_roundtrip() {
        let frames = [
            PeerFrame::Hello { site: SiteId(3) },
            PeerFrame::Data {
                seq: 42,
                msg: DdbMsg::RemoteRequest {
                    txn: TransactionId(7),
                    resource: ResourceId(9),
                    mode: LockMode::Exclusive,
                    home: SiteId(1),
                },
            },
            PeerFrame::Ack { next: 17 },
        ];
        for f in frames {
            assert_eq!(PeerFrame::decode(&f.encode()).unwrap(), f);
        }
    }

    #[test]
    fn wfgd_edge_set_roundtrips() {
        let mut edges = AgentEdgeSet::new();
        for i in 0..5u32 {
            edges.insert((
                AgentId::new(TransactionId(i), SiteId(0)),
                AgentId::new(TransactionId(i + 1), SiteId(1)),
            ));
        }
        let f = PeerFrame::Data {
            seq: 0,
            msg: DdbMsg::Wfgd {
                txn: TransactionId(2),
                edges,
            },
        };
        assert_eq!(PeerFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn client_submit_roundtrips_and_rebuilds() {
        let steps = vec![
            TxnStep::lock(SiteId(0), ResourceId(5), LockMode::Shared),
            TxnStep::Work { ticks: 30 },
            TxnStep::LockAll(vec![
                LockReq {
                    site: SiteId(1),
                    resource: ResourceId(1),
                    mode: LockMode::Exclusive,
                },
                LockReq {
                    site: SiteId(2),
                    resource: ResourceId(1),
                    mode: LockMode::Exclusive,
                },
            ]),
        ];
        let f = ClientFrame::Submit {
            req: 8,
            steps: steps.clone(),
        };
        let dec = ClientFrame::decode(&f.encode()).unwrap();
        assert_eq!(dec, f);
        let t = build_txn(TransactionId(99), SiteId(0), &steps);
        assert_eq!(t.steps(), &steps[..]);
        assert_eq!(t.id(), TransactionId(99));
    }

    #[test]
    fn malformed_lock_all_is_rejected_not_panicked() {
        // Hand-build a Submit with an empty lock_all.
        let mut b = Vec::new();
        put_u8(&mut b, 0x12);
        put_u64(&mut b, 1); // req
        put_u32(&mut b, 1); // one step
        put_u8(&mut b, 2); // S_LOCK_ALL
        put_u32(&mut b, 0); // zero locks
        assert_eq!(
            ClientFrame::decode(&b),
            Err(WireError::Invalid("empty lock_all"))
        );
    }

    #[test]
    fn cross_family_tags_fail_loudly() {
        let peer = PeerFrame::Ack { next: 1 }.encode();
        assert!(matches!(
            ClientFrame::decode(&peer),
            Err(WireError::BadTag { .. })
        ));
        let client = ClientFrame::Hello.encode();
        assert!(matches!(
            ServerFrame::decode(&client),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = PeerFrame::Ack { next: 1 }.encode();
        body.push(0);
        assert_eq!(
            PeerFrame::decode(&body),
            Err(WireError::Trailing { extra: 1 })
        );
    }
}
