//! Property tests for the networking substrate: the codec must
//! round-trip every well-formed message and must never panic on
//! arbitrary bytes (it parses data from the network).

use p2p::codec::{decode, encode, read_frame, write_frame};
use p2p::{LogEntry, Message};
use proptest::prelude::*;

fn arb_log_entry() -> impl Strategy<Value = LogEntry> {
    prop_oneof![
        (any::<u16>(), any::<u64>()).prop_map(|(node, epoch)| LogEntry::Join {
            node: node as usize,
            epoch,
        }),
        (any::<u16>(), any::<u64>()).prop_map(|(node, inc)| LogEntry::Down {
            node: node as usize,
            inc,
        }),
        (any::<u16>(), any::<u64>()).prop_map(|(node, inc)| LogEntry::Rejoin {
            node: node as usize,
            inc,
        }),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| LogEntry::Repair {
            a: a as usize,
            b: b as usize,
        }),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u16>(),
            any::<u64>(),
            any::<i64>(),
            prop::collection::vec(any::<u32>(), 0..500)
        )
            .prop_map(|(from, id, length, order)| Message::TourFound {
                from: from as usize,
                id,
                length,
                order,
            }),
        (any::<u16>(), any::<i64>()).prop_map(|(from, length)| Message::OptimumFound {
            from: from as usize,
            length,
        }),
        any::<u16>().prop_map(|from| Message::Leave { from: from as usize }),
        any::<u16>().prop_map(|from| Message::Ping { from: from as usize }),
        (any::<u16>(), any::<u64>()).prop_map(|(from, t_ns)| Message::Pong {
            from: from as usize,
            t_ns,
        }),
        any::<u16>().prop_map(|from| Message::BestRequest { from: from as usize }),
        (
            any::<u16>(),
            any::<u64>(),
            any::<i64>(),
            prop::collection::vec(any::<u32>(), 0..500)
        )
            .prop_map(|(from, id, length, order)| Message::BestReply {
                from: from as usize,
                id,
                length,
                order,
            }),
        (any::<u16>(), any::<u64>()).prop_map(|(from, epoch)| Message::HubClaim {
            from: from as usize,
            epoch,
        }),
        (any::<u16>(), prop::collection::vec(arb_log_entry(), 0..64)).prop_map(
            |(from, entries)| Message::LogSnapshot {
                from: from as usize,
                entries,
            }
        ),
        arb_telemetry(),
        arb_job_message(),
    ]
}

/// Generators for the job-service frames (tags 12–16). Enum-like
/// fields stay in their wire-legal ranges (`payload_kind` ∈ {1, 2},
/// reason ≤ 3) — the codec rejects everything else, which the
/// dedicated rejection tests below pin.
fn arb_job_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            (any::<u16>(), any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<i64>(), 1u8..=2),
            prop::collection::vec(any::<u8>(), 0..512),
        )
            .prop_map(
                |(
                    (from, job, client, seed),
                    (kicks, deadline_ms, target, payload_kind),
                    payload,
                )| {
                    Message::JobSubmit {
                        from: from as usize,
                        job,
                        client,
                        seed,
                        kicks,
                        deadline_ms,
                        target,
                        payload_kind,
                        payload,
                    }
                }
            ),
        (any::<u16>(), any::<u64>(), any::<u64>()).prop_map(|(from, job, worker)| {
            Message::JobAccept {
                from: from as usize,
                job,
                worker,
            }
        }),
        (
            any::<u16>(),
            any::<u64>(),
            any::<i64>(),
            prop::collection::vec(any::<u32>(), 0..500)
        )
            .prop_map(|(from, job, length, order)| Message::JobImproved {
                from: from as usize,
                job,
                length,
                order,
            }),
        (
            any::<u16>(),
            any::<u64>(),
            0u8..=3,
            any::<i64>(),
            prop::collection::vec(any::<u32>(), 0..500)
        )
            .prop_map(|(from, job, reason, length, order)| Message::JobDone {
                from: from as usize,
                job,
                reason,
                length,
                order,
            }),
        (any::<u16>(), any::<u64>(), 0u8..=3).prop_map(|(from, job, reason)| {
            Message::JobCancel {
                from: from as usize,
                job,
                reason,
            }
        }),
    ]
}

/// Metric names on the wire: short ASCII dotted paths (UTF-8 by
/// construction, under the codec's length cap).
fn arb_metric_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..38, 1..24).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| match b {
                0..=25 => (b'a' + b) as char,
                26..=35 => (b'0' + b - 26) as char,
                36 => '.',
                _ => '_',
            })
            .collect()
    })
}

fn arb_telemetry() -> impl Strategy<Value = Message> {
    (
        (any::<u16>(), any::<u64>(), any::<u64>()),
        (any::<i64>(), any::<u64>(), any::<bool>()),
        prop::collection::vec((arb_metric_name(), any::<u64>()), 0..12),
        prop::collection::vec((arb_metric_name(), any::<i64>()), 0..12),
        prop::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(
            |(
                (from, t_ns, rtt_ns),
                (best_len, clk_calls, stalled),
                counters,
                gauges,
                events_jsonl,
            )| {
                Message::Telemetry {
                    from: from as usize,
                    t_ns,
                    rtt_ns,
                    best_len,
                    clk_calls,
                    stalled,
                    counters,
                    gauges,
                    events_jsonl,
                }
            },
        )
}

/// Killing nodes one at a time never disconnects the survivors, in any
/// topology; rejoin restores a connected graph too.
#[test]
fn membership_repairs_preserve_connectivity() {
    use p2p::{Membership, Topology};
    for n in [4usize, 6, 8, 11, 16] {
        for t in [
            Topology::Hypercube,
            Topology::Ring,
            Topology::Complete,
            Topology::Star,
        ] {
            let mut m = Membership::new(t, n);
            // Kill in a fixed pseudo-random order, leaving 2 alive.
            let mut order: Vec<usize> = (0..n).collect();
            order.rotate_left(n / 3 + 1);
            for &dead in order.iter().take(n - 2) {
                m.fail(dead);
                assert!(m.alive_connected(), "{t:?} n={n} after killing {dead}");
            }
            // Everyone comes back; graph must stay connected throughout.
            for &back in order.iter().take(n - 2) {
                m.rejoin(back);
                assert!(m.alive_connected(), "{t:?} n={n} after rejoin {back}");
            }
        }
    }
}

proptest! {
    /// encode → decode is the identity for every message.
    #[test]
    fn codec_roundtrip(msg in arb_message()) {
        let frame = encode(&msg);
        let (len_prefix, payload) = frame.split_at(4);
        let len = u32::from_le_bytes(len_prefix.try_into().unwrap()) as usize;
        prop_assert_eq!(len, payload.len());
        let back = decode(payload).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// decode never panics on arbitrary payloads — it returns an error
    /// or a valid message (the payload comes off the wire).
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = decode(&bytes);
    }

    /// A stream of frames survives concatenation and sequential reads.
    #[test]
    fn framed_stream_roundtrip(msgs in prop::collection::vec(arb_message(), 0..8)) {
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &msgs {
            let got = read_frame(&mut cursor).unwrap();
            prop_assert_eq!(&got, m);
        }
    }

    /// read_frame rejects corrupted length prefixes without panicking.
    #[test]
    fn read_frame_survives_corruption(
        msg in arb_message(),
        flip_byte in 0usize..4,
        xor in 1u8..255,
    ) {
        let frame = encode(&msg).to_vec();
        let mut corrupted = frame.clone();
        corrupted[flip_byte] ^= xor;
        let mut cursor = std::io::Cursor::new(corrupted);
        // Either an error, or (if the corrupted length happens to be
        // valid) some decode result — never a panic.
        let _ = read_frame(&mut cursor);
    }

    /// A frame truncated anywhere — mid-prefix or mid-payload — is an
    /// error, never a panic and never a bogus message.
    #[test]
    fn truncated_frames_error(msg in arb_message(), cut in any::<u64>()) {
        let frame = encode(&msg).to_vec();
        // Cut strictly inside the frame (a zero-length frame cannot
        // happen: every message has at least a tag byte).
        let keep = (cut % frame.len() as u64) as usize;
        let mut cursor = std::io::Cursor::new(frame[..keep].to_vec());
        prop_assert!(read_frame(&mut cursor).is_err());
    }

    /// Corruption anywhere in the frame — prefix or payload — never
    /// panics the framed reader (the wire parser handles every byte of
    /// attacker/fault-controlled input).
    #[test]
    fn read_frame_survives_payload_corruption(
        msg in arb_message(),
        flip in any::<u64>(),
        xor in 1u8..255,
    ) {
        let mut frame = encode(&msg).to_vec();
        let at = (flip % frame.len() as u64) as usize;
        frame[at] ^= xor;
        let mut cursor = std::io::Cursor::new(frame);
        let _ = read_frame(&mut cursor);
    }

    /// decode is total on truncations of valid payloads: every prefix
    /// of a well-formed payload either errors or (for the full length)
    /// round-trips — no panic on any split point.
    #[test]
    fn decode_total_on_payload_prefixes(msg in arb_message(), cut in any::<u64>()) {
        let frame = encode(&msg).to_vec();
        let payload = &frame[4..];
        let keep = (cut % (payload.len() as u64 + 1)) as usize;
        match decode(&payload[..keep]) {
            Ok(back) => prop_assert_eq!(back, msg),
            Err(_) => prop_assert!(keep < payload.len()),
        }
    }

    /// Every job-service frame (tags 12–16) round-trips exactly — the
    /// dedicated coverage the multi-tenant service leans on, matching
    /// the tag-11 `ShardResult` discipline.
    #[test]
    fn job_frames_roundtrip(msg in arb_job_message()) {
        let frame = encode(&msg);
        let back = decode(&frame[4..]).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Every strict truncation of a job frame's payload is rejected:
    /// all five frames demand exact consumption, so a cut anywhere —
    /// mid-header or mid-payload — errors cleanly.
    #[test]
    fn job_frames_reject_truncation(msg in arb_job_message(), cut in any::<u64>()) {
        let frame = encode(&msg).to_vec();
        let payload = &frame[4..];
        let keep = (cut % payload.len() as u64) as usize;
        prop_assert!(decode(&payload[..keep]).is_err());
    }

    /// Corrupting the enum-like wire fields past their legal ranges is
    /// rejected: `payload_kind` ∉ {1, 2} in `JobSubmit`, and a
    /// `reason` above `MAX_JOB_REASON` in `JobDone`/`JobCancel`.
    #[test]
    fn job_frames_reject_bad_enum_bytes(msg in arb_job_message(), bump in 1u8..=200) {
        let mut payload = encode(&msg).to_vec().split_off(4);
        // Offset of the validated byte within the decoded payload:
        // JobSubmit carries payload_kind after tag + 7 fixed u64/i64
        // fields; JobDone/JobCancel carry reason after tag + 2.
        let at = match msg {
            Message::JobSubmit { .. } => Some(1 + 7 * 8),
            Message::JobDone { .. } | Message::JobCancel { .. } => Some(1 + 2 * 8),
            _ => None,
        };
        if let Some(at) = at {
            // Push the byte out of range (kind > 2, reason > 3; 200+
            // headroom keeps the addition from wrapping back legal).
            payload[at] = payload[at].saturating_add(3).saturating_add(bump);
            prop_assert!(decode(&payload).is_err());
        }
    }
}

fn memory_pair() -> (p2p::memory::MemoryEndpoint, p2p::memory::MemoryEndpoint) {
    use p2p::{InMemoryNetwork, Topology};
    let (mut eps, _) = InMemoryNetwork::build(2, Topology::Ring);
    let b = eps.pop().unwrap();
    let a = eps.pop().unwrap();
    (a, b)
}

fn arb_election_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u16>(), any::<u64>()).prop_map(|(f, e)| Message::HubClaim {
            from: f as usize,
            epoch: e,
        }),
        (any::<u16>(), prop::collection::vec(arb_log_entry(), 0..16)).prop_map(
            |(f, entries)| Message::LogSnapshot {
                from: f as usize,
                entries,
            }
        ),
    ]
}

proptest! {
    /// Election frames (`HubClaim`, `LogSnapshot`) delivered through a
    /// fault-free decorator arrive intact and in order — the decorator
    /// adds no serialization artifacts of its own.
    #[test]
    fn election_frames_pass_faultfree_transport(
        msgs in prop::collection::vec(arb_election_message(), 0..16),
        seed in any::<u64>(),
    ) {
        use p2p::{FaultConfig, FaultyTransport, Transport};
        let (mut a, b) = memory_pair();
        let mut b = FaultyTransport::new(b, FaultConfig::none(seed));
        for m in &msgs {
            a.send(1, m.clone()).unwrap();
        }
        prop_assert_eq!(b.drain(), msgs);
    }

    /// Wire-level corruption of election frames is either caught by
    /// the codec (frame discarded) or survives as a structurally valid
    /// message — never a panic, and every frame is accounted for.
    #[test]
    fn corrupt_election_frames_are_rejected_or_valid(
        snapshots in prop::collection::vec(
            prop::collection::vec(arb_log_entry(), 0..16),
            1..20,
        ),
        seed in any::<u64>(),
    ) {
        use p2p::{FaultConfig, FaultyTransport, Transport};
        let (mut a, b) = memory_pair();
        let mut b = FaultyTransport::new(b, FaultConfig::corrupt_rate(1.0, seed));
        let sent = snapshots.len() as u64;
        for entries in snapshots {
            a.send(1, Message::LogSnapshot { from: 0, entries }).unwrap();
        }
        let got = b.drain();
        let s = b.stats();
        prop_assert_eq!(got.len() as u64, s.corrupted_delivered);
        prop_assert_eq!(s.corrupted_delivered + s.corrupted_discarded, sent);
    }
}

/// Topology neighbor lists are always symmetric and self-loop-free.
#[test]
fn topology_properties() {
    use p2p::Topology;
    for n in 2..=17usize {
        for t in [
            Topology::Hypercube,
            Topology::Ring,
            Topology::Complete,
            Topology::Star,
        ] {
            for v in 0..n {
                let nb = t.neighbors(v, n);
                assert!(!nb.contains(&v), "{t:?} self-loop at n={n}");
                let unique: std::collections::HashSet<_> = nb.iter().collect();
                assert_eq!(unique.len(), nb.len(), "{t:?} duplicate edge at n={n}");
                for m in nb {
                    assert!(
                        t.neighbors(m, n).contains(&v),
                        "{t:?} asymmetric {v}-{m} at n={n}"
                    );
                }
            }
        }
    }
}
