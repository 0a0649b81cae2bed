//! Hub migration: a replicated membership log and a deterministic
//! bully-style election.
//!
//! The paper's hub is "only a central component during bootstrap"
//! (§2.2). Repairs after bootstrap are coordinated by a hub *role*
//! that one node holds; held by a fixed node it would be a single
//! point of repair. This module makes the role migratable:
//!
//! * [`MembershipLog`] — an append-only log of JOIN / DOWN / REJOIN /
//!   REPAIR facts. Every node keeps a [`Replica`]; entries gossip
//!   piggy-back on the existing broadcast fabric
//!   ([`crate::Message::LogSnapshot`]) and the full log is
//!   snapshot-transferable through the wire codec, so any survivor can
//!   reconstruct the hub's repair state.
//! * **Election rule** — the lowest *alive* node id wins, tie-broken
//!   by join epoch (the node's incarnation number; relevant only when
//!   a stale incarnation of the same id races its own rejoin). Every
//!   replica evaluates the same rule over the same log, so no
//!   coordination round is needed: the rule *is* the coordination.
//! * **Epoch fencing** — the winner announces
//!   [`crate::Message::HubClaim`] with `epoch = current + 1`. A claim
//!   is accepted iff its epoch is newer, or equally new with a lower
//!   claimer id (the concurrent-candidate tie-break). Stale hubs see a
//!   newer epoch and step down; re-deliveries are rejected, which is
//!   what terminates claim-forwarding epidemics.
//!
//! Entries carry SWIM-style **incarnation numbers**: `DOWN(v, i)` only
//! applies while `v`'s incarnation is still `i`, so a death report
//! that was delayed past the node's rejoin cannot re-kill it.
//! [`Replica::apply`] is idempotent and returns only the entries that
//! changed state — forwarding exactly that subset both bounds gossip
//! and terminates the epidemic.

use crate::message::NodeId;
use crate::topology::{Membership, Topology};

/// One replicated membership fact.
///
/// Wire encoding (inside [`crate::Message::LogSnapshot`]): a `kind`
/// byte (1 = JOIN, 2 = DOWN, 3 = REJOIN, 4 = REPAIR) followed by two
/// `u64` LE fields — 17 bytes per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEntry {
    /// `node` joined the network at bootstrap with initial
    /// incarnation `epoch` (always 0 today; recorded so a snapshot
    /// doubles as the full roster).
    Join {
        /// Joining node.
        node: NodeId,
        /// Initial incarnation.
        epoch: u64,
    },
    /// `node` was observed dead while at incarnation `inc`.
    Down {
        /// Dead node.
        node: NodeId,
        /// Incarnation the report refers to; stale reports (from
        /// before a later rejoin) no longer match and are ignored.
        inc: u64,
    },
    /// `node` came back from incarnation `inc`; applying bumps it to
    /// `inc + 1`.
    Rejoin {
        /// Rejoining node.
        node: NodeId,
        /// Incarnation the node is returning from.
        inc: u64,
    },
    /// Repair edge `a — b` was added (clique rule around a death).
    Repair {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
}

/// Append-only log of membership facts. Order within one log is a
/// valid causal order for the facts its owner applied, so shipping the
/// whole log (a snapshot) and replaying it in order reconstructs the
/// owner's view.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MembershipLog {
    entries: Vec<LogEntry>,
}

impl MembershipLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// All entries, oldest first.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no fact has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append one entry (the caller has already applied it).
    pub fn push(&mut self, e: LogEntry) {
        self.entries.push(e);
    }
}

/// Who a replica currently believes is hub, fenced by claim epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectionState {
    hub: Option<NodeId>,
    epoch: u64,
}

impl ElectionState {
    /// Bootstrap state: `hub` holds the role at epoch 0 (by the hub
    /// bootstrap convention this is node 0 — the node the original
    /// central hub handed id 0).
    pub fn bootstrap(hub: NodeId) -> Self {
        ElectionState {
            hub: Some(hub),
            epoch: 0,
        }
    }

    /// Current hub, if any claim (or the bootstrap) is in force.
    pub fn hub(&self) -> Option<NodeId> {
        self.hub
    }

    /// Epoch of the claim in force.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Observe `HUB_CLAIM(claimer, epoch)`. Accepts — and returns
    /// `true` — iff the claim is strictly newer, or equally new with a
    /// lower claimer id (concurrent candidates converge on the lowest
    /// id). Re-delivery of the claim in force returns `false`, which
    /// is what stops claim-forwarding epidemics.
    pub fn observe_claim(&mut self, claimer: NodeId, epoch: u64) -> bool {
        let newer = epoch > self.epoch
            || (epoch == self.epoch && self.hub.map(|h| claimer < h).unwrap_or(true));
        if newer {
            self.hub = Some(claimer);
            self.epoch = epoch;
        }
        newer
    }
}

/// One node's replica of the membership log: the log itself, the
/// [`Membership`] view obtained by replaying it, per-node incarnation
/// numbers, and the election state.
///
/// Replicas at different nodes may hold the log in different orders
/// (gossip is not ordered), but [`Replica::apply`]'s incarnation
/// fencing makes the *state* — alive set, adjacency, incarnations —
/// convergent: it is a join-semilattice over the set of applied facts.
#[derive(Debug, Clone)]
pub struct Replica {
    log: MembershipLog,
    view: Membership,
    inc: Vec<u64>,
    state: ElectionState,
}

impl Replica {
    /// Fresh replica: full static topology, everyone alive at
    /// incarnation 0, node 0 holding the hub role at epoch 0 (the hub
    /// bootstrap convention). The log is seeded with one JOIN entry
    /// per node so a snapshot carries the roster.
    pub fn bootstrap(topo: Topology, n: usize) -> Self {
        let mut log = MembershipLog::new();
        for node in 0..n {
            log.push(LogEntry::Join { node, epoch: 0 });
        }
        Replica {
            log,
            view: Membership::new(topo, n),
            inc: vec![0; n],
            state: ElectionState::bootstrap(0),
        }
    }

    /// The replayed membership view.
    pub fn view(&self) -> &Membership {
        &self.view
    }

    /// The full log (snapshot-transferable via the wire codec).
    pub fn log(&self) -> &MembershipLog {
        &self.log
    }

    /// Current incarnation of `id` (0 until its first rejoin).
    pub fn incarnation(&self, id: NodeId) -> u64 {
        self.inc.get(id).copied().unwrap_or(0)
    }

    /// Hub currently believed in force.
    pub fn hub(&self) -> Option<NodeId> {
        self.state.hub()
    }

    /// Epoch of the hub claim in force.
    pub fn epoch(&self) -> u64 {
        self.state.epoch()
    }

    /// Is the believed hub actually alive in this replica's view?
    pub fn hub_alive(&self) -> bool {
        self.state.hub().is_some_and(|h| self.view.is_alive(h))
    }

    /// The deterministic election rule: lowest alive node id,
    /// tie-broken by join epoch (incarnation). Ids are unique, so the
    /// epoch only matters as the fencing component carried into the
    /// winner's claim.
    pub fn winner(&self) -> Option<NodeId> {
        self.view
            .alive_nodes()
            .into_iter()
            .min_by_key(|&v| (v, self.incarnation(v)))
    }

    /// Observe a `HUB_CLAIM`; see [`ElectionState::observe_claim`].
    pub fn observe_claim(&mut self, claimer: NodeId, epoch: u64) -> bool {
        self.state.observe_claim(claimer, epoch)
    }

    /// Locally observed death (from `take_peer_downs` — the in-memory
    /// analogue of the TCP Ping/Pong last-seen clock expiring).
    /// Returns the new log entries (the DOWN plus the derived REPAIR
    /// edges) for gossiping; empty if the death was already known.
    pub fn note_down(&mut self, dead: NodeId) -> Vec<LogEntry> {
        if dead >= self.view.len() || !self.view.is_alive(dead) {
            return Vec::new();
        }
        let mut out = vec![LogEntry::Down {
            node: dead,
            inc: self.incarnation(dead),
        }];
        let group = self.view.fail(dead);
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                out.push(LogEntry::Repair { a, b });
            }
        }
        for &e in &out {
            self.log.push(e);
        }
        out
    }

    /// Locally observed rejoin (e.g. a `BestRequest` from a node this
    /// replica believed dead). Returns the new log entries for
    /// gossiping; empty if the node was already alive.
    pub fn note_rejoin(&mut self, node: NodeId) -> Vec<LogEntry> {
        if node >= self.view.len() || self.view.is_alive(node) {
            return Vec::new();
        }
        let entry = LogEntry::Rejoin {
            node,
            inc: self.incarnation(node),
        };
        self.apply_one(entry);
        vec![entry]
    }

    /// Apply gossiped or snapshot entries in order. Returns the subset
    /// that changed state — the entries worth forwarding onward; the
    /// rest were already known (idempotence terminates the epidemic).
    pub fn apply(&mut self, entries: &[LogEntry]) -> Vec<LogEntry> {
        entries
            .iter()
            .copied()
            .filter(|&e| self.apply_one(e))
            .collect()
    }

    fn apply_one(&mut self, e: LogEntry) -> bool {
        let n = self.view.len();
        let changed = match e {
            // Roster facts: every replica bootstraps with the full
            // roster already joined, so these are always known.
            LogEntry::Join { .. } => false,
            LogEntry::Down { node, inc } => {
                if node < n && self.view.is_alive(node) && self.inc[node] == inc {
                    self.view.fail(node);
                    true
                } else {
                    false
                }
            }
            LogEntry::Rejoin { node, inc } => {
                if node < n && !self.view.is_alive(node) && self.inc[node] == inc {
                    self.view.rejoin(node);
                    self.inc[node] = inc + 1;
                    true
                } else {
                    false
                }
            }
            LogEntry::Repair { a, b } => a < n && b < n && self.view.wire(a, b),
        };
        if changed {
            self.log.push(e);
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica8() -> Replica {
        Replica::bootstrap(Topology::Hypercube, 8)
    }

    #[test]
    fn bootstrap_hub_is_node_zero_at_epoch_zero() {
        let r = replica8();
        assert_eq!(r.hub(), Some(0));
        assert_eq!(r.epoch(), 0);
        assert!(r.hub_alive());
        assert_eq!(r.winner(), Some(0));
        assert_eq!(r.log().len(), 8, "roster JOIN entries");
    }

    #[test]
    fn winner_is_min_alive_id() {
        let mut r = replica8();
        r.note_down(0);
        assert_eq!(r.winner(), Some(1));
        r.note_down(1);
        r.note_down(2);
        assert_eq!(r.winner(), Some(3));
        assert!(!r.hub_alive());
    }

    #[test]
    fn claims_fence_by_epoch_then_id() {
        let mut s = ElectionState::bootstrap(0);
        assert!(s.observe_claim(1, 1), "newer epoch accepted");
        assert!(!s.observe_claim(1, 1), "re-delivery rejected");
        assert!(!s.observe_claim(2, 1), "same epoch, higher id rejected");
        assert!(s.observe_claim(0, 1), "same epoch, lower id wins");
        assert!(!s.observe_claim(5, 0), "stale epoch rejected");
        assert_eq!(s.hub(), Some(0));
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn note_down_emits_down_plus_repair_entries_once() {
        let mut r = replica8();
        let entries = r.note_down(3);
        // 3's hypercube neighbors {1, 2, 7} → one DOWN + C(3,2) repairs.
        assert_eq!(entries.len(), 1 + 3);
        assert_eq!(entries[0], LogEntry::Down { node: 3, inc: 0 });
        assert!(r.note_down(3).is_empty(), "idempotent");
    }

    #[test]
    fn apply_is_idempotent_and_returns_changed_subset() {
        let mut a = replica8();
        let mut b = replica8();
        let entries = a.note_down(5);
        let changed = b.apply(&entries);
        // The DOWN re-derives the clique, so the REPAIR entries are
        // already satisfied when they apply: only the DOWN is fresh.
        assert_eq!(changed, vec![LogEntry::Down { node: 5, inc: 0 }]);
        assert!(b.apply(&entries).is_empty(), "second apply is a no-op");
        assert_eq!(b.view().alive_nodes(), a.view().alive_nodes());
    }

    #[test]
    fn stale_down_after_rejoin_is_fenced_by_incarnation() {
        let mut r = replica8();
        let stale = r.note_down(2); // DOWN(2, inc 0)
        r.note_rejoin(2); // inc 2 → 1
        assert!(r.view().is_alive(2));
        // The old death report resurfaces via gossip: must not re-kill.
        assert!(r.apply(&stale).is_empty());
        assert!(r.view().is_alive(2));
        assert_eq!(r.incarnation(2), 1);
    }

    #[test]
    fn snapshot_replay_reconstructs_view() {
        let mut a = replica8();
        a.note_down(0);
        a.note_down(4);
        a.note_rejoin(0);
        a.note_down(6);
        let mut b = Replica::bootstrap(Topology::Hypercube, 8);
        b.apply(a.log().entries());
        assert_eq!(b.view().alive_nodes(), a.view().alive_nodes());
        for v in 0..8 {
            assert_eq!(b.incarnation(v), a.incarnation(v), "node {v}");
            assert_eq!(b.view().neighbors(v), a.view().neighbors(v), "node {v}");
        }
        assert!(b.view().alive_connected());
    }

    #[test]
    fn gossip_converges_across_orders() {
        // Two replicas learn the same facts in different orders and
        // still converge (the state is a join-semilattice).
        let mut origin = replica8();
        let d3 = origin.note_down(3);
        let d5 = origin.note_down(5);
        let mut fwd = replica8();
        fwd.apply(&d3);
        fwd.apply(&d5);
        let mut rev = replica8();
        rev.apply(&d5);
        rev.apply(&d3);
        assert_eq!(fwd.view().alive_nodes(), rev.view().alive_nodes());
        for v in 0..8 {
            assert_eq!(fwd.view().neighbors(v), rev.view().neighbors(v));
        }
        assert_eq!(fwd.winner(), rev.winner());
    }

    #[test]
    fn rejoin_notes_are_fenced_too() {
        let mut r = replica8();
        let down = r.note_down(7);
        let rejoin = r.note_rejoin(7);
        assert_eq!(rejoin, vec![LogEntry::Rejoin { node: 7, inc: 0 }]);
        assert!(r.note_rejoin(7).is_empty(), "already alive");
        // A second observer applying [down, rejoin, down-again] ends
        // alive at incarnation 1 only after a *fresh* death report.
        let mut o = replica8();
        o.apply(&down);
        o.apply(&rejoin);
        assert!(o.view().is_alive(7));
        let fresh = o.note_down(7);
        assert_eq!(fresh[0], LogEntry::Down { node: 7, inc: 1 });
    }

    #[test]
    fn out_of_range_entries_are_ignored() {
        let mut r = replica8();
        assert!(r.note_down(99).is_empty());
        assert!(r.note_rejoin(99).is_empty());
        assert!(r
            .apply(&[
                LogEntry::Down { node: 42, inc: 0 },
                LogEntry::Repair { a: 1, b: 99 },
            ])
            .is_empty());
        assert_eq!(r.view().alive_nodes().len(), 8);
    }
}
