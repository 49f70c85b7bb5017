//! Property tests for the service wire codec: every frame family
//! round-trips bit-exactly, framed streams reassemble under arbitrary
//! chunking, and malformed input (trailing bytes, oversized lengths,
//! truncations) is rejected instead of aliasing.

use proptest::prelude::*;
use proptest::strategy::Just;

use cmh_ddb::ids::{AgentId, DdbProbeTag, ResourceId, SiteId, TransactionId};
use cmh_ddb::lock::LockMode;
use cmh_ddb::msg::DdbMsg;
use cmh_ddb::txn::{LockReq, TxnStep};
use cmh_ddb::wfgd::AgentEdgeSet;
use cmh_service::proto::{ClientFrame, PeerFrame, ServerFrame};
use cmh_service::wire::{frame, put_frame, FrameReader, WireError, MAX_FRAME};

fn site() -> impl Strategy<Value = SiteId> {
    (0usize..64).prop_map(SiteId)
}

fn txn_id() -> impl Strategy<Value = TransactionId> {
    (0u64..1 << 32).prop_map(|v| TransactionId(v as u32))
}

fn resource() -> impl Strategy<Value = ResourceId> {
    any::<u64>().prop_map(ResourceId)
}

fn mode() -> impl Strategy<Value = LockMode> {
    any::<bool>().prop_map(|b| {
        if b {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        }
    })
}

fn agent() -> impl Strategy<Value = AgentId> {
    (txn_id(), site()).prop_map(|(t, s)| AgentId::new(t, s))
}

fn ddb_msg() -> impl Strategy<Value = DdbMsg> {
    prop_oneof![
        (txn_id(), resource(), mode(), site()).prop_map(|(txn, resource, mode, home)| {
            DdbMsg::RemoteRequest {
                txn,
                resource,
                mode,
                home,
            }
        }),
        (txn_id(), resource()).prop_map(|(txn, resource)| DdbMsg::Acquired { txn, resource }),
        (txn_id(), resource()).prop_map(|(txn, resource)| DdbMsg::RemoteRelease { txn, resource }),
        (site(), any::<u64>(), agent(), agent()).prop_map(|(initiator, n, a, b)| DdbMsg::Probe {
            tag: DdbProbeTag { initiator, n },
            edge: (a, b),
        }),
        txn_id().prop_map(|txn| DdbMsg::Abort { txn }),
        (
            txn_id(),
            proptest::collection::vec((agent(), agent()), 0..12)
        )
            .prop_map(|(txn, pairs)| {
                let mut edges = AgentEdgeSet::new();
                for p in pairs {
                    edges.insert(p);
                }
                DdbMsg::Wfgd { txn, edges }
            }),
    ]
}

fn step() -> impl Strategy<Value = TxnStep> {
    prop_oneof![
        // Distinct resources per entry keep the builder's duplicate-target
        // panic out of reach, matching what the decoder enforces.
        (proptest::collection::vec((site(), mode()), 1..6)).prop_map(|picks| {
            TxnStep::LockAll(
                picks
                    .into_iter()
                    .enumerate()
                    .map(|(i, (site, mode))| LockReq {
                        site,
                        resource: ResourceId(i as u64),
                        mode,
                    })
                    .collect(),
            )
        }),
        any::<u64>().prop_map(|ticks| TxnStep::Work { ticks }),
    ]
}

fn peer_frame() -> impl Strategy<Value = PeerFrame> {
    prop_oneof![
        site().prop_map(|site| PeerFrame::Hello { site }),
        (any::<u64>(), ddb_msg()).prop_map(|(seq, msg)| PeerFrame::Data { seq, msg }),
        any::<u64>().prop_map(|next| PeerFrame::Ack { next }),
        txn_id().prop_map(|txn| PeerFrame::Declare { txn }),
    ]
}

fn client_frame() -> impl Strategy<Value = ClientFrame> {
    prop_oneof![
        Just(ClientFrame::Hello),
        (any::<u64>(), proptest::collection::vec(step(), 0..8))
            .prop_map(|(req, steps)| ClientFrame::Submit { req, steps }),
    ]
}

fn server_frame() -> impl Strategy<Value = ServerFrame> {
    prop_oneof![
        any::<u64>().prop_map(|req| ServerFrame::Granted { req }),
        any::<u64>().prop_map(|req| ServerFrame::Declared { req }),
        (any::<u64>(), any::<bool>(), 0u64..1 << 32).prop_map(|(req, committed, a)| {
            ServerFrame::Done {
                req,
                committed,
                attempts: a as u32,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Peer frames survive encode → decode bit-exactly, and the borrowing
    /// `Data` encoder emits the same bytes as the owning one.
    #[test]
    fn peer_frame_roundtrips(f in peer_frame()) {
        if let PeerFrame::Data { seq, msg } = &f {
            prop_assert_eq!(PeerFrame::encode_data(*seq, msg), f.encode());
        }
        prop_assert_eq!(PeerFrame::decode(&f.encode()).unwrap(), f);
    }

    /// Client frames survive encode → decode bit-exactly.
    #[test]
    fn client_frame_roundtrips(f in client_frame()) {
        prop_assert_eq!(ClientFrame::decode(&f.encode()).unwrap(), f);
    }

    /// Server frames survive encode → decode bit-exactly.
    #[test]
    fn server_frame_roundtrips(f in server_frame()) {
        prop_assert_eq!(ServerFrame::decode(&f.encode()).unwrap(), f);
    }

    /// A stream of length-prefixed frames reassembles identically no
    /// matter how the byte stream is chopped into reads, whether a chunk
    /// is pushed or read in place (`fill`, the sockets' path), and every
    /// borrowed body is byte for byte the encoded one.
    #[test]
    fn framing_survives_arbitrary_chunking(
        frames in proptest::collection::vec(peer_frame(), 1..10),
        cuts in proptest::collection::vec((1usize..17, any::<bool>()), 0..64),
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&frame(&f.encode()));
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        let mut pos = 0usize;
        let mut cut = cuts.iter().cycle();
        while pos < stream.len() {
            let &(take, in_place) = cut.next().unwrap_or(&(7, false));
            let chunk = &stream[pos..pos + take.min(stream.len() - pos)];
            if in_place {
                let read = reader.fill(|room| {
                    room[..chunk.len()].copy_from_slice(chunk);
                    Ok(chunk.len())
                });
                prop_assert_eq!(read.unwrap(), chunk.len());
            } else {
                reader.push(chunk);
            }
            pos += chunk.len();
            while let Some(body) = reader.next_frame().unwrap() {
                prop_assert_eq!(body, &frames[decoded.len()].encode()[..]);
                decoded.push(PeerFrame::decode(body).unwrap());
            }
        }
        prop_assert_eq!(decoded, frames);
    }

    /// A pass's per-connection buffer — frames appended with `put_frame`
    /// into a reused buffer — is the concatenation of `frame(body)`, and
    /// read back in random chunks it decodes to the same frame sequence.
    #[test]
    fn a_coalesced_write_reads_back_frame_by_frame(
        passes in proptest::collection::vec(proptest::collection::vec(peer_frame(), 0..10), 1..4),
        cuts in proptest::collection::vec(1usize..64, 1..64),
    ) {
        let mut buf = Vec::new();
        for pass in &passes {
            buf.clear();
            for f in pass {
                put_frame(&mut buf, &f.encode());
            }
            let framed: Vec<u8> = pass.iter().flat_map(|f| frame(&f.encode())).collect();
            prop_assert_eq!(&buf, &framed);
            let mut reader = FrameReader::new();
            let mut decoded = Vec::new();
            let mut cut = cuts.iter().cycle();
            let mut rest = &buf[..];
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at((*cut.next().expect("cycle")).min(rest.len()));
                reader.push(chunk);
                rest = tail;
                while let Some(body) = reader.next_frame().unwrap() {
                    decoded.push(PeerFrame::decode(body).unwrap());
                }
            }
            prop_assert_eq!(&decoded, pass);
        }
    }

    /// Appending junk to a well-formed body must fail decoding (the
    /// trailing-bytes check), for every frame family.
    #[test]
    fn trailing_bytes_rejected(f in peer_frame(), junk in any::<u8>()) {
        let mut body = f.encode();
        body.push(junk);
        prop_assert!(matches!(
            PeerFrame::decode(&body),
            Err(WireError::Trailing { .. }) | Err(WireError::BadTag { .. })
        ));
    }

    /// A length prefix beyond `MAX_FRAME` poisons the reader permanently,
    /// even if well-formed frames follow.
    #[test]
    fn oversized_length_poisons_reader(extra in 1u64..1 << 30, tail in peer_frame()) {
        let bad_len = (MAX_FRAME as u64 + extra).min(u32::MAX as u64) as u32;
        let mut stream = bad_len.to_le_bytes().to_vec();
        stream.extend_from_slice(&frame(&tail.encode()));
        let mut reader = FrameReader::new();
        reader.push(&stream);
        prop_assert!(matches!(reader.next_frame(), Err(WireError::FrameTooBig { .. })));
        prop_assert!(matches!(reader.next_frame(), Err(WireError::FrameTooBig { .. })));
    }

    /// A truncated frame pends (`Ok(None)`) rather than erroring or
    /// yielding a partial body.
    #[test]
    fn truncated_frame_pends(f in peer_frame(), keep in 0usize..1000) {
        let full = frame(&f.encode());
        let keep = keep.min(full.len().saturating_sub(1));
        let mut reader = FrameReader::new();
        reader.push(&full[..keep]);
        prop_assert!(reader.next_frame().unwrap().is_none());
        // Completing the bytes completes the frame.
        reader.push(&full[keep..]);
        prop_assert_eq!(
            PeerFrame::decode(reader.next_frame().unwrap().unwrap()).unwrap(),
            f
        );
    }
}

#[test]
fn single_lock_is_a_lock_all_of_one_and_step_tag_1_is_retired() {
    let f = ClientFrame::Submit {
        req: 3,
        steps: vec![TxnStep::lock(SiteId(1), ResourceId(9), LockMode::Shared)],
    };
    let mut body = f.encode();
    assert_eq!(ClientFrame::decode(&body).unwrap(), f);
    // Frame tag, u64 req, u32 step count, then the step's own tag.
    let step_tag = 1 + 8 + 4;
    assert_eq!(body[step_tag], 2, "lock_all keeps its tag");
    body[step_tag] = 1;
    assert_eq!(
        ClientFrame::decode(&body),
        Err(WireError::BadTag {
            what: "TxnStep",
            tag: 1
        })
    );
}
