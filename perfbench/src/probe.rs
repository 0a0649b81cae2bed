//! Outside-in probes for the traced run: wrappers around the program's
//! public seams (the tour representation and the transport), and the
//! self-time analysis of the span tree recorded through `obs` spans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use obs::{Event, Obs};
use p2p::{Message, NetError, NodeId, Transport};
use tsp_core::{Instance, TourOps, TourRep};

/// Event-ring size of a traced run: far above the spans any workload
/// records, so `events_dropped() == 0` holds and is asserted.
pub const RING_CAPACITY: usize = 1 << 17;

/// A fresh span recorder for one traced run. It records as node 1: span
/// ids are `node << 32 | seq`, and node 0's first span would get id 0,
/// which reads as "no parent".
pub fn recorder() -> Obs {
    Obs::with_capacity(1, RING_CAPACITY)
}

static FLIPS: AtomicU64 = AtomicU64::new(0);
static FLIP_NS: AtomicU64 = AtomicU64::new(0);

/// `(flips, ns inside flip)` counted by every [`CountingTour`] so far.
/// Process-wide because the engine rebuilds its tour on every revert
/// (`R::from_order_slice`), so per-value counters would be lost.
pub fn flip_totals() -> (u64, u64) {
    (
        FLIPS.load(Ordering::Relaxed),
        FLIP_NS.load(Ordering::Relaxed),
    )
}

/// A tour representation that delegates every operation to `R` and
/// counts and times `flip`, the single mutation every move reduces to.
#[derive(Clone)]
pub struct CountingTour<R>(pub R);

impl<R: TourRep> TourOps for CountingTour<R> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn next(&self, c: usize) -> usize {
        self.0.next(c)
    }
    fn prev(&self, c: usize) -> usize {
        self.0.prev(c)
    }
    fn between(&self, a: usize, b: usize, c: usize) -> bool {
        self.0.between(a, b, c)
    }
    fn flip(&mut self, a: usize, b: usize) {
        let t = Instant::now();
        self.0.flip(a, b);
        FLIP_NS.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        FLIPS.fetch_add(1, Ordering::Relaxed);
    }
    fn to_order(&self) -> Vec<u32> {
        self.0.to_order()
    }
    fn has_edge(&self, a: usize, b: usize) -> bool {
        self.0.has_edge(a, b)
    }
    fn tour_length(&self, inst: &Instance) -> i64 {
        self.0.tour_length(inst)
    }
}

impl<R: TourRep> TourRep for CountingTour<R> {
    const NAME: &'static str = R::NAME;

    fn from_order_slice(order: &[u32]) -> Self {
        CountingTour(R::from_order_slice(order))
    }
    fn from_tour(tour: &tsp_core::Tour) -> Self {
        CountingTour(R::from_tour(tour))
    }
    fn to_tour(&self) -> tsp_core::Tour {
        self.0.to_tour()
    }
}

/// Per-endpoint transport counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinkCounts {
    pub sends: u64,
    pub send_ns: u64,
    pub recv_calls: u64,
    pub recv_ns: u64,
    pub received: u64,
    pub wire_bytes: u64,
    /// Sent `TourFound` broadcasts.
    pub tours: u64,
}

impl LinkCounts {
    pub fn add(&mut self, o: &LinkCounts) {
        self.sends += o.sends;
        self.send_ns += o.send_ns;
        self.recv_calls += o.recv_calls;
        self.recv_ns += o.recv_ns;
        self.received += o.received;
        self.wire_bytes += o.wire_bytes;
        self.tours += o.tours;
    }
}

/// A transport that delegates to `T` and counts and times `send` and
/// `try_recv`, with the wire size of every sent message.
pub struct CountingTransport<T> {
    pub inner: T,
    pub counts: LinkCounts,
}

impl<T: Transport> CountingTransport<T> {
    pub fn new(inner: T) -> Self {
        CountingTransport {
            inner,
            counts: LinkCounts::default(),
        }
    }
}

impl<T: Transport> Transport for CountingTransport<T> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }
    fn neighbors(&self) -> Vec<NodeId> {
        self.inner.neighbors()
    }
    fn send(&mut self, to: NodeId, msg: Message) -> Result<(), NetError> {
        let bytes = msg.wire_size() as u64;
        let tour = matches!(msg, Message::TourFound { .. });
        let t = Instant::now();
        let r = self.inner.send(to, msg);
        self.counts.send_ns += t.elapsed().as_nanos() as u64;
        // Count delivered messages only, as the network's own statistics
        // do (a send to a peer that already left fails).
        if r.is_ok() {
            self.counts.sends += 1;
            self.counts.wire_bytes += bytes;
            self.counts.tours += u64::from(tour);
        }
        r
    }
    fn try_recv(&mut self) -> Option<Message> {
        let t = Instant::now();
        let m = self.inner.try_recv();
        self.counts.recv_ns += t.elapsed().as_nanos() as u64;
        self.counts.recv_calls += 1;
        self.counts.received += u64::from(m.is_some());
        m
    }
    fn leave(&mut self) {
        // The in-memory endpoint also unregisters itself on leave, which
        // the default method would skip; its `Leave` notices bypass the
        // counters.
        self.inner.leave()
    }
    fn take_peer_downs(&mut self) -> Vec<NodeId> {
        self.inner.take_peer_downs()
    }
}

/// Span statistics of one kind: total and self time.
#[derive(Debug, Default, Clone)]
pub struct KindStats {
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every span's duration, for percentiles.
    pub durs_ns: Vec<u64>,
}

impl KindStats {
    /// Duration percentile in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let v: Vec<f64> = self.durs_ns.iter().map(|&d| d as f64).collect();
        crate::report::quantile(&v, q)
    }
}

/// Group span events by kind. A span's self time is its duration minus
/// the durations of its direct children.
pub fn span_stats(events: &[Event]) -> BTreeMap<String, KindStats> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        if let (Some(parent), Some(dur)) = (e.field_u64("parent"), e.field_u64("dur_ns")) {
            if parent != 0 {
                *child_ns.entry(parent).or_default() += dur;
            }
        }
    }
    let mut out: BTreeMap<String, KindStats> = BTreeMap::new();
    for e in events {
        let (Some(id), Some(dur)) = (e.field_u64("span"), e.field_u64("dur_ns")) else {
            continue;
        };
        let k = out.entry(e.kind.to_string()).or_default();
        k.total_ns += dur;
        k.self_ns += dur.saturating_sub(child_ns.get(&id).copied().unwrap_or(0));
        k.durs_ns.push(dur);
    }
    out
}

/// Write the recorder's spans as a Chrome trace (Perfetto-loadable)
/// under `.bench_out/` in the working directory and check that the ring
/// lost nothing. Returns the span statistics.
pub fn finish_trace(
    obs: &Obs,
    workload: &str,
    out: &mut crate::report::Outcome,
) -> BTreeMap<String, KindStats> {
    if obs.events_dropped() != 0 {
        out.reject(format!("{} trace events dropped", obs.events_dropped()));
    }
    let events = obs.events();
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{workload}.trace.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, obs::chrome_trace_json(&events)));
    match written {
        Ok(()) => out.notes.push(format!(
            "trace: {} spans -> {}",
            events.len(),
            path.display()
        )),
        Err(e) => out.notes.push(format!("trace not written: {e}")),
    }
    span_stats(&events)
}

/// One row of the prediction table: a layer's share of the workload's
/// traced wall time beside the end-to-end metrics it should move.
pub fn share_line(layer: &str, ns: u64, root_ns: u64, predicts: &str) -> String {
    let pct = if root_ns == 0 {
        0.0
    } else {
        100.0 * ns as f64 / root_ns as f64
    };
    format!("layer {layer:<34} share {pct:6.2}%   should move: {predicts}")
}
