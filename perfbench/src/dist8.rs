//! `dist8-e2k`: the paper's 8-node DistCLK (`distclk::run_lockstep`) on
//! 2k uniform cities, on one thread and deterministic, with the paper's
//! defaults (hypercube, c_v = 64, c_r = 256, 20 kicks per CLK call) and
//! a fixed number of CLK calls per node.

use std::time::Instant;

use distclk::{run_lockstep, DistConfig, DistResult, NodeDriver, NodeEvent, NodeResult};
use lk::{Budget, ChainedLkConfig};
use obs::Obs;
use p2p::{InMemoryNetwork, Topology};
use tsp_core::{generate, Instance, Tour};

use crate::clk::{target_length, SIDE};
use crate::probe::{self, CountingTransport, LinkCounts};
use crate::report::{check_tour, len_norm, mean, Outcome};
use crate::{load, repeat_rounds, summarize, timed_setup, Op};

pub const CITIES: usize = 2_000;
pub const NODES: usize = 8;
/// CLK calls per node, the initial full LK pass included.
pub const CALLS: u64 = 10;
/// Instances per round; `len_norm` is their mean. Eight distinct
/// instances keep the medians of the short first-tour and candidate
/// times from hanging on one instance's work.
pub const INSTANCES: u64 = 8;
/// `time_to_target_s` threshold on normalised length, met by node 0's
/// first LK-optimal tour on every seed; see `perfbench/README.md` for
/// the derivation.
pub const TARGET_NORM: f64 = 0.7700;

/// The paper's configuration (the solver's `DistConfig` defaults) with
/// a CLK-call budget.
pub fn config(seed: u64, calls: u64) -> DistConfig {
    DistConfig {
        nodes: NODES,
        topology: Topology::Hypercube,
        clk: ChainedLkConfig {
            seed,
            ..ChainedLkConfig::default()
        },
        budget: Budget::kicks(calls),
        seed,
        ..DistConfig::default()
    }
}

/// Kicks a run spent: every CLK call but each node's initial pass runs
/// `clk_kicks_per_call` kicks.
fn kicks_of(nodes: &[NodeResult], cfg: &DistConfig) -> u64 {
    nodes
        .iter()
        .map(|n| n.clk_calls.saturating_sub(1) * cfg.clk_kicks_per_call)
        .sum()
}

/// The untraced operation: candidate lists, then `run_lockstep`.
pub fn solve(inst: &Instance, cfg: &DistConfig) -> (DistResult, Op) {
    let t0 = Instant::now();
    let neighbors = distclk::build_neighbors(inst, cfg);
    let accept_s = t0.elapsed().as_secs_f64();
    let res = run_lockstep(inst, &neighbors, cfg);
    let done_s = t0.elapsed().as_secs_f64();
    let trace = &res.network_trace;
    let op = Op {
        accept_s,
        first_s: accept_s + trace.points().first().map_or(0.0, |p| p.0),
        done_s,
        target_s: trace
            .time_to_reach(target_length(inst, TARGET_NORM))
            .map(|s| accept_s + s),
        kicks: kicks_of(&res.nodes, cfg),
    };
    (res, op)
}

/// What the traced replay returns besides its spans.
pub struct Traced {
    pub best_tour: Tour,
    pub best_length: i64,
    pub nodes: Vec<NodeResult>,
    pub links: LinkCounts,
}

/// The traced operation: the lockstep schedule of `run_lockstep`,
/// driven from here so each `NodeDriver::step` is a span, over
/// in-memory endpoints wrapped in a counting transport. The best tour
/// is chosen as `run_lockstep` chooses it (lowest length, then lowest
/// node id), so it must equal the untraced run's bit for bit.
pub fn traced(inst: &Instance, cfg: &DistConfig, obs: &Obs) -> Traced {
    let root = obs.span("dist.solve");
    let span = root.child("tsp_core.neighbors.build");
    let neighbors = distclk::build_neighbors(inst, cfg);
    span.end();
    let (endpoints, _) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
    let mut drivers: Vec<Option<NodeDriver<'_, CountingTransport<_>>>> = endpoints
        .into_iter()
        .map(|ep| {
            let span = root.child("distclk.node.init");
            let node = NodeDriver::new(inst, &neighbors, cfg, CountingTransport::new(ep));
            span.end();
            Some(node)
        })
        .collect();
    let mut links = LinkCounts::default();
    let mut nodes = Vec::new();
    loop {
        let mut any_live = false;
        for slot in drivers.iter_mut() {
            let Some(node) = slot else { continue };
            let span = root.child("distclk.node.step");
            let live = node.step();
            span.end();
            if live {
                any_live = true;
            } else {
                let mut node = slot.take().expect("matched Some above");
                links.add(&node.transport_mut().counts);
                nodes.push(node.finish());
            }
        }
        if !any_live {
            break;
        }
    }
    root.end();
    nodes.sort_by_key(|n| n.id);
    let best = nodes
        .iter()
        .filter(|n| !n.aborted)
        .min_by_key(|n| n.best_length)
        .expect("at least one node finished");
    Traced {
        best_tour: best.best_tour.clone(),
        best_length: best.best_tour.length(inst),
        links,
        nodes,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new();
    let insts = timed_setup(&mut out, || {
        (0..INSTANCES)
            .map(|k| {
                load(generate::uniform(
                    CITIES,
                    SIDE,
                    seed.wrapping_mul(1_000_003).wrapping_add(k),
                ))
            })
            .collect::<Vec<_>>()
    });
    let cfg = config(seed, CALLS);
    if trace {
        traced_run(&insts[0], &cfg, &mut out);
        return out;
    }
    let (rounds, wall_s) = repeat_rounds(seconds, |_| {
        insts
            .iter()
            .map(|inst| solve(inst, &cfg))
            .collect::<Vec<_>>()
    });
    for (r, round) in rounds.iter().enumerate() {
        for (k, ((res, op), inst)) in round.iter().zip(&insts).enumerate() {
            out.attempted += 1;
            if let Err(e) = check_tour(inst, res.best_tour.order(), res.best_length) {
                out.reject(format!("round {r}, instance {k}: {e}"));
            }
            if res.best_tour.order() != rounds[0][k].0.best_tour.order() {
                out.reject(format!(
                    "round {r}, instance {k}: tour differs from round 0"
                ));
            }
            if res.nodes.iter().any(|n| n.aborted || n.rejected > 0) {
                out.reject(format!(
                    "round {r}, instance {k}: a node aborted or rejected a tour"
                ));
            }
            if op.target_s.is_none() {
                out.failed += 1;
            }
        }
    }
    let ops: Vec<Op> = rounds.iter().flatten().map(|r| r.1).collect();
    let solves: Vec<f64> = ops.iter().map(|o| o.done_s).collect();
    let busy: f64 = ops.iter().map(|o| o.done_s - o.accept_s).sum();
    summarize(&mut out, &ops, &solves, wall_s, busy);
    let norms: Vec<f64> = rounds[0]
        .iter()
        .zip(&insts)
        .map(|((res, _), inst)| len_norm(inst, res.best_length))
        .collect();
    out.set("len_norm", mean(&norms));
    for ((res, _), inst) in rounds[0].iter().zip(&insts) {
        out.notes.push(format!(
            "len_norm first tour {:.5}, final {:.5}; {} kicks over {NODES} nodes",
            len_norm(inst, res.network_trace.points().first().map_or(0, |p| p.2)),
            len_norm(inst, res.best_length),
            kicks_of(&res.nodes, &cfg),
        ));
    }
    out
}

fn traced_run(inst: &Instance, cfg: &DistConfig, out: &mut Outcome) {
    let (reference, op) = solve(inst, cfg);
    let obs = probe::recorder();
    let t = traced(inst, cfg, &obs);
    out.attempted = 1;
    if let Err(e) = check_tour(inst, t.best_tour.order(), t.best_length) {
        out.reject(format!("traced tour: {e}"));
    }
    if t.best_tour.order() != reference.best_tour.order() || t.best_length != reference.best_length
    {
        out.reject("traced run diverged from the untraced run".into());
    }
    let spans = probe::finish_trace(&obs, "dist8-e2k", out);
    let get = |k: &str| spans.get(k).cloned().unwrap_or_default();
    let root = get("dist.solve").total_ns;
    let step = get("distclk.node.step");
    let sum = |f: fn(&NodeResult) -> u64| t.nodes.iter().map(f).sum::<u64>();
    let received = sum(|n| n.received);
    let adopted = sum(|n| {
        n.events
            .iter()
            .filter(|e| matches!(e, NodeEvent::Improved { local: false, .. }))
            .count() as u64
    });
    let restarts = sum(|n| {
        n.events
            .iter()
            .filter(|e| matches!(e, NodeEvent::Restart { .. }))
            .count() as u64
    });
    let l = t.links;
    out.set(
        "tsp_core.neighbors.build_ms",
        get("tsp_core.neighbors.build").total_ns as f64 / 1e6,
    );
    out.set("distclk.node.step_ms.p50", step.quantile_ns(0.5) / 1e6);
    out.set("distclk.node.step_ms.p90", step.quantile_ns(0.9) / 1e6);
    out.set("distclk.clk_calls", sum(|n| n.clk_calls) as f64);
    out.set("distclk.broadcasts", sum(|n| n.broadcasts) as f64);
    out.set("distclk.received", received as f64);
    out.set("distclk.rejected", sum(|n| n.rejected) as f64);
    out.set(
        "distclk.adopt_ratio",
        adopted as f64 / received.max(1) as f64,
    );
    out.set("distclk.restarts", restarts as f64);
    out.set(
        "p2p.send_us",
        l.send_ns as f64 / l.sends.max(1) as f64 / 1e3,
    );
    out.set(
        "p2p.recv_us",
        l.recv_ns as f64 / l.recv_calls.max(1) as f64 / 1e3,
    );
    out.set("p2p.msgs", l.sends as f64);
    out.set("p2p.wire_bytes", l.wire_bytes as f64);
    out.set(
        "obs.trace_overhead_pct",
        100.0 * (root as f64 / 1e9 - op.done_s) / op.done_s,
    );
    let p2p_ns = l.send_ns + l.recv_ns;
    for (layer, ns, predicts) in [
        (
            "tsp_core.neighbors.build_ms",
            get("tsp_core.neighbors.build").self_ns,
            "time_to_target_s@dist8-e2k",
        ),
        (
            "distclk.node.init (construct + first LK)",
            get("distclk.node.init").self_ns,
            "first_tour_ms.*@dist8-e2k",
        ),
        ("distclk.node.step_ms", step.self_ns, "solve_s@dist8-e2k"),
        (
            "p2p.send_us + p2p.recv_us",
            p2p_ns,
            "solve_s@dist8-e2k (predicted <1%)",
        ),
    ] {
        out.notes.push(probe::share_line(layer, ns, root, predicts));
    }
}
