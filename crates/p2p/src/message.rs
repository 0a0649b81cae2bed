//! Messages exchanged between nodes.
//!
//! The paper's protocol is deliberately small: nodes broadcast improved
//! tours to their neighbors, announce when the known optimum was found
//! (a termination criterion), and leave the network when their budget
//! runs out (the topology "degenerates" near the end of a run, §2.3).

/// Dense node identifier assigned by the hub (the node's position in
/// the hypercube).
pub type NodeId = usize;

/// A protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// An improved tour, broadcast to the sender's neighbors
    /// (paper Fig. 1: `BROADCASTTONEIGHBORS(s_best)`).
    TourFound {
        /// Originating node.
        from: NodeId,
        /// Broadcast id, unique per originating broadcast
        /// (`origin << 32 | seq`). Preserved verbatim on epidemic
        /// forwarding so a tour's migration can be traced hub-to-leaf
        /// in the event logs.
        id: u64,
        /// Tour length (precomputed by the sender so receivers can
        /// filter without touching the instance).
        length: i64,
        /// Visiting order.
        order: Vec<u32>,
    },
    /// The sender's local CLK discovered a tour matching the known
    /// optimum — every node may terminate (§2.3 criterion 2).
    OptimumFound {
        /// Originating node.
        from: NodeId,
        /// The optimal length found.
        length: i64,
    },
    /// The sender is leaving the network (budget exhausted).
    Leave {
        /// Departing node.
        from: NodeId,
    },
    /// Liveness probe: "are you still there?". The TCP transport
    /// answers these itself (with [`Message::Pong`]) and never
    /// surfaces them to the node loop; over in-memory transports the
    /// node driver answers.
    Ping {
        /// Probing node.
        from: NodeId,
    },
    /// Liveness probe answer. Refreshes the sender's last-seen clock
    /// on the receiving endpoint; the carried timestamp additionally
    /// lets the prober estimate the responder's clock offset
    /// (`t_remote - (t_send + rtt/2)`) for cross-node timeline
    /// alignment.
    Pong {
        /// Answering node.
        from: NodeId,
        /// The responder's local monotonic clock, in nanoseconds since
        /// its observability epoch (0 when observability is off).
        t_ns: u64,
    },
    /// A rejoining node asking its neighborhood for the current best
    /// tour, so it can resume from population state instead of a cold
    /// construction (state resync; see DESIGN.md "Failure model").
    BestRequest {
        /// Rejoining node.
        from: NodeId,
    },
    /// Answer to [`Message::BestRequest`]: the responder's current
    /// best tour. Validated by the receiver exactly like
    /// [`Message::TourFound`] (city count, permutation, recomputed
    /// length) before adoption.
    BestReply {
        /// Responding node.
        from: NodeId,
        /// Broadcast id of the carried tour (same scheme as
        /// `TourFound`, so resyncs are traceable in the event logs).
        id: u64,
        /// Tour length as recomputed by the responder.
        length: i64,
        /// Visiting order.
        order: Vec<u32>,
    },
    /// `HUB_CLAIM(epoch)`: node `from` claims (or is relayed to have
    /// claimed) the lifecycle-hub role at `epoch`. Receivers accept
    /// iff the epoch is newer — or equally new with a lower claimer
    /// id — and forward accepted claims; stale hubs step down (see
    /// [`crate::election`]).
    HubClaim {
        /// Claiming node (not necessarily the transport-level sender:
        /// claims are relayable facts).
        from: NodeId,
        /// Fencing epoch of the claim.
        epoch: u64,
    },
    /// A batch of replicated membership-log entries: either a gossip
    /// delta (the entries that just changed a replica's state) or a
    /// full log snapshot for a rejoiner rebuilding its replica.
    LogSnapshot {
        /// Sending node.
        from: NodeId,
        /// Log entries, oldest first.
        entries: Vec<crate::election::LogEntry>,
    },
    /// Periodic live-telemetry shipment from a node to the current
    /// hub: metric deltas, recent events, and anytime convergence
    /// state. The hub folds these into its cluster-merged live
    /// registry (`METRICS`/`STATUS` scrapes) and estimates the
    /// sender's clock offset from `t_ns` + the measured RTT.
    Telemetry {
        /// Reporting node.
        from: NodeId,
        /// Sender's local monotonic clock (ns since its observability
        /// epoch) at send time.
        t_ns: u64,
        /// Round-trip time to the hub as last measured by the sender
        /// (previous shipment ack, or the transport's Ping/Pong
        /// probe); 0 when unknown.
        rtt_ns: u64,
        /// Anytime best tour length on this node.
        best_len: i64,
        /// CLK calls performed so far (the hub derives the iteration
        /// rate from successive shipments).
        clk_calls: u64,
        /// Whether the stall detector is currently tripped (no
        /// improvement for the configured window).
        stalled: bool,
        /// Counter increments since the previous shipment, by name.
        counters: Vec<(String, u64)>,
        /// Gauge readings (absolute, point-in-time), by name.
        gauges: Vec<(String, i64)>,
        /// Recent events serialized as JSONL (node-local timestamps;
        /// the hub re-stamps them onto its own timeline).
        events_jsonl: Vec<u8>,
    },
    /// A solved subregion of a sharded (divide-and-optimize) run: the
    /// sub-tour of one spatial shard, sent by the worker that solved it
    /// to the collector node. Carried in *global* city ids; the
    /// collector validates membership against its own deterministic
    /// partition and recomputes the length before accepting, and
    /// winner-merges duplicates by `(length, shard id, sender)`.
    ShardResult {
        /// Worker that solved the shard.
        from: NodeId,
        /// Shard index in the deterministic partition.
        shard: u32,
        /// Sub-tour length as computed by the worker.
        length: i64,
        /// Sub-tour visiting order in global city ids.
        order: Vec<u32>,
    },
    /// A solve job entering the service layer: sent by a client over
    /// the hub's `JOB` command. Placement on a worker and reassignment
    /// after a worker death happen inside the service and send no
    /// frame.
    JobSubmit {
        /// Submitting node.
        from: NodeId,
        /// Job id, `client << 32 | seq` — the same composition as
        /// [`broadcast_id`], so `job >> 32` recovers the owning client
        /// anywhere in the pipeline. `0` until the hub assigns one.
        job: u64,
        /// Client (tenant) the job belongs to; the fairness ledger is
        /// keyed by this.
        client: u64,
        /// RNG seed of the job's engine (per-job determinism).
        seed: u64,
        /// Kick budget per engine; `0` = unbounded (deadline-only).
        kicks: u64,
        /// Wall-clock deadline in milliseconds from acceptance;
        /// `0` = none.
        deadline_ms: u64,
        /// Target length (quality budget): the job stops as soon as a
        /// tour of this length or shorter is found. `i64::MIN` = none.
        target: i64,
        /// Payload format: 1 = TSPLIB text, 2 = JSON point list.
        payload_kind: u8,
        /// The instance payload bytes.
        payload: Vec<u8>,
    },
    /// The service placed a job on a worker, which is solving it.
    JobAccept {
        /// Sending node.
        from: NodeId,
        /// Job id.
        job: u64,
        /// Worker id echoed as a field so the frame can be relayed to
        /// the client without rewriting `from`.
        worker: u64,
    },
    /// Anytime stream: the job's engine improved its best tour. Sent
    /// to the client for every strict improvement.
    JobImproved {
        /// Sending node.
        from: NodeId,
        /// Job id.
        job: u64,
        /// Improved tour length.
        length: i64,
        /// Visiting order.
        order: Vec<u32>,
    },
    /// Terminal frame of a job stream: budget exhausted, target
    /// reached, deadline expired, or cancelled — with the final best
    /// tour either way (anytime semantics).
    JobDone {
        /// Sending node.
        from: NodeId,
        /// Job id.
        job: u64,
        /// Why the job ended: 0 = budget exhausted, 1 = target
        /// reached, 2 = deadline expired, 3 = cancelled.
        reason: u8,
        /// Final best length.
        length: i64,
        /// Final best visiting order.
        order: Vec<u32>,
    },
    /// Cancel an in-flight job (client request). The job's stream ends
    /// with a [`Message::JobDone`] carrying its best-so-far.
    JobCancel {
        /// Requesting node.
        from: NodeId,
        /// Job id.
        job: u64,
        /// Reason code, same scale as [`Message::JobDone::reason`]
        /// (2 = deadline enforcement, 3 = client cancel).
        reason: u8,
    },
}

/// Compose a per-broadcast tour id from the originating node and its
/// local broadcast sequence number. The high half carries the origin,
/// so `id >> 32` recovers where a tour was first found even after it
/// has been forwarded across the hypercube.
pub fn broadcast_id(origin: NodeId, seq: u32) -> u64 {
    ((origin as u64) << 32) | seq as u64
}

/// Compose a job id from the owning client and the hub's per-client
/// submission sequence number — the [`broadcast_id`] composition
/// applied to the job layer, so `job >> 32` recovers the tenant
/// anywhere a job frame is observed.
pub fn job_id(client: u64, seq: u32) -> u64 {
    (client << 32) | seq as u64
}

impl Message {
    /// The sender of the message.
    pub fn from(&self) -> NodeId {
        match *self {
            Message::TourFound { from, .. }
            | Message::OptimumFound { from, .. }
            | Message::Leave { from }
            | Message::Ping { from }
            | Message::Pong { from, .. }
            | Message::BestRequest { from }
            | Message::BestReply { from, .. }
            | Message::HubClaim { from, .. }
            | Message::LogSnapshot { from, .. }
            | Message::Telemetry { from, .. }
            | Message::ShardResult { from, .. }
            | Message::JobSubmit { from, .. }
            | Message::JobAccept { from, .. }
            | Message::JobImproved { from, .. }
            | Message::JobDone { from, .. }
            | Message::JobCancel { from, .. } => from,
        }
    }

    /// Wire-size estimate in bytes (used by the message-statistics
    /// experiment to report communication volume).
    pub fn wire_size(&self) -> usize {
        match self {
            Message::TourFound { order, .. } | Message::BestReply { order, .. } => {
                1 + 8 + 8 + 8 + 4 + 4 * order.len()
            }
            // tag + from + shard + length + count + cities.
            Message::ShardResult { order, .. } => 1 + 8 + 4 + 8 + 4 + 4 * order.len(),
            Message::JobSubmit { payload, .. } => {
                // tag + from + job + client + seed + kicks + deadline
                // + target + kind + length-prefixed payload.
                1 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 1 + 4 + payload.len()
            }
            Message::JobAccept { .. } => 1 + 8 + 8 + 8,
            // tag + from + job + length + count + cities.
            Message::JobImproved { order, .. } => 1 + 8 + 8 + 8 + 4 + 4 * order.len(),
            // tag + from + job + reason + length + count + cities.
            Message::JobDone { order, .. } => 1 + 8 + 8 + 1 + 8 + 4 + 4 * order.len(),
            Message::JobCancel { .. } => 1 + 8 + 8 + 1,
            Message::OptimumFound { .. } => 1 + 8 + 8,
            Message::Leave { .. } | Message::Ping { .. } => 1 + 8,
            Message::Pong { .. } => 1 + 8 + 8,
            Message::BestRequest { .. } => 1 + 8,
            Message::HubClaim { .. } => 1 + 8 + 8,
            Message::LogSnapshot { entries, .. } => 1 + 8 + 4 + 17 * entries.len(),
            Message::Telemetry {
                counters,
                gauges,
                events_jsonl,
                ..
            } => {
                // tag + from + t_ns + rtt_ns + best_len + clk_calls
                // + stalled + three length-prefixed sections.
                1 + 8 + 8 + 8 + 8 + 8 + 1
                    + 4
                    + counters.iter().map(|(n, _)| 2 + n.len() + 8).sum::<usize>()
                    + 4
                    + gauges.iter().map(|(n, _)| 2 + n.len() + 8).sum::<usize>()
                    + 4
                    + events_jsonl.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_extracts_sender() {
        assert_eq!(Message::Leave { from: 3 }.from(), 3);
        assert_eq!(
            Message::OptimumFound { from: 7, length: 1 }.from(),
            7
        );
        assert_eq!(
            Message::TourFound {
                from: 2,
                id: broadcast_id(2, 0),
                length: 10,
                order: vec![0, 1, 2]
            }
            .from(),
            2
        );
    }

    #[test]
    fn from_extracts_sender_liveness_and_resync() {
        assert_eq!(Message::Ping { from: 4 }.from(), 4);
        assert_eq!(Message::Pong { from: 5, t_ns: 123 }.from(), 5);
        assert_eq!(Message::BestRequest { from: 6 }.from(), 6);
        assert_eq!(
            Message::BestReply {
                from: 1,
                id: broadcast_id(1, 9),
                length: 77,
                order: vec![0, 1, 2]
            }
            .from(),
            1
        );
    }

    #[test]
    fn best_reply_wire_size_matches_tour_found() {
        let order: Vec<u32> = (0..55).collect();
        let a = Message::TourFound {
            from: 0,
            id: 0,
            length: 1,
            order: order.clone(),
        };
        let b = Message::BestReply {
            from: 0,
            id: 0,
            length: 1,
            order,
        };
        assert_eq!(a.wire_size(), b.wire_size());
        assert_eq!(Message::Ping { from: 0 }.wire_size(), 9);
        // Pong additionally carries the responder's clock.
        assert_eq!(Message::Pong { from: 0, t_ns: 0 }.wire_size(), 17);
    }

    #[test]
    fn telemetry_wire_size_counts_sections() {
        let empty = Message::Telemetry {
            from: 0,
            t_ns: 0,
            rtt_ns: 0,
            best_len: 0,
            clk_calls: 0,
            stalled: false,
            counters: vec![],
            gauges: vec![],
            events_jsonl: vec![],
        };
        // tag + 5×u64/i64 + bool + three u32 section lengths.
        assert_eq!(empty.wire_size(), 1 + 5 * 8 + 1 + 3 * 4);
        let loaded = Message::Telemetry {
            from: 0,
            t_ns: 0,
            rtt_ns: 0,
            best_len: 0,
            clk_calls: 0,
            stalled: true,
            counters: vec![("ab".into(), 1)],
            gauges: vec![("xyz".into(), -2)],
            events_jsonl: b"{}\n".to_vec(),
        };
        assert_eq!(
            loaded.wire_size() - empty.wire_size(),
            (2 + 2 + 8) + (2 + 3 + 8) + 3
        );
    }

    #[test]
    fn from_extracts_sender_election_messages() {
        use crate::election::LogEntry;
        assert_eq!(Message::HubClaim { from: 3, epoch: 2 }.from(), 3);
        assert_eq!(
            Message::LogSnapshot {
                from: 4,
                entries: vec![LogEntry::Down { node: 1, inc: 0 }]
            }
            .from(),
            4
        );
    }

    #[test]
    fn election_wire_sizes() {
        use crate::election::LogEntry;
        assert_eq!(Message::HubClaim { from: 0, epoch: 0 }.wire_size(), 17);
        let empty = Message::LogSnapshot {
            from: 0,
            entries: vec![],
        };
        let two = Message::LogSnapshot {
            from: 0,
            entries: vec![
                LogEntry::Join { node: 0, epoch: 0 },
                LogEntry::Repair { a: 1, b: 2 },
            ],
        };
        assert_eq!(empty.wire_size(), 13);
        assert_eq!(two.wire_size() - empty.wire_size(), 2 * 17);
    }

    #[test]
    fn shard_result_sender_and_wire_size() {
        let msg = Message::ShardResult {
            from: 9,
            shard: 4,
            length: 321,
            order: (0..25).collect(),
        };
        assert_eq!(msg.from(), 9);
        // tag + from + shard + length + count + 25 cities.
        assert_eq!(msg.wire_size(), 1 + 8 + 4 + 8 + 4 + 4 * 25);
    }

    #[test]
    fn job_frames_sender_and_wire_size() {
        let submit = Message::JobSubmit {
            from: 0,
            job: job_id(7, 3),
            client: 7,
            seed: 42,
            kicks: 100,
            deadline_ms: 5_000,
            target: i64::MIN,
            payload_kind: 1,
            payload: b"NAME: t\n".to_vec(),
        };
        assert_eq!(submit.from(), 0);
        // Fixed header + kind byte + one length-prefixed section.
        assert_eq!(submit.wire_size(), 1 + 7 * 8 + 1 + 4 + 8);
        assert_eq!(
            Message::JobAccept {
                from: 2,
                job: 1,
                worker: 2
            }
            .from(),
            2
        );
        assert_eq!(
            Message::JobAccept {
                from: 2,
                job: 1,
                worker: 2
            }
            .wire_size(),
            25
        );
        let improved = Message::JobImproved {
            from: 3,
            job: job_id(7, 3),
            length: 99,
            order: (0..12).collect(),
        };
        assert_eq!(improved.from(), 3);
        assert_eq!(improved.wire_size(), 1 + 8 + 8 + 8 + 4 + 4 * 12);
        let done = Message::JobDone {
            from: 3,
            job: 1,
            reason: 2,
            length: 99,
            order: (0..12).collect(),
        };
        assert_eq!(done.from(), 3);
        // JobDone = JobImproved + the reason byte.
        assert_eq!(done.wire_size(), improved.wire_size() + 1);
        let cancel = Message::JobCancel {
            from: 0,
            job: 1,
            reason: 3,
        };
        assert_eq!(cancel.from(), 0);
        assert_eq!(cancel.wire_size(), 18);
    }

    #[test]
    fn job_id_recovers_client() {
        let id = job_id(9, 41);
        assert_eq!(id >> 32, 9);
        assert_eq!(id & 0xffff_ffff, 41);
        assert_ne!(job_id(9, 41), job_id(41, 9));
    }

    #[test]
    fn broadcast_id_recovers_origin() {
        let id = broadcast_id(5, 17);
        assert_eq!(id >> 32, 5);
        assert_eq!(id & 0xffff_ffff, 17);
        assert_ne!(broadcast_id(5, 17), broadcast_id(17, 5));
    }

    #[test]
    fn wire_size_scales_with_tour() {
        let small = Message::TourFound {
            from: 0,
            id: 0,
            length: 0,
            order: vec![0; 10],
        };
        let big = Message::TourFound {
            from: 0,
            id: 0,
            length: 0,
            order: vec![0; 1000],
        };
        assert!(big.wire_size() > small.wire_size());
        assert_eq!(big.wire_size() - small.wire_size(), 4 * 990);
    }
}
