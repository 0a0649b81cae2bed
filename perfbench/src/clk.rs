//! `clk-e50k`: single-node Chained LK on 50k uniform cities through
//! `lk::ClkEngine::auto` (the two-level list from its 50k threshold),
//! k-NN candidates with k = 10 and a fixed kick budget.

use std::time::Instant;

use lk::kick::kick;
use lk::{Budget, ChainedLk, ChainedLkConfig, ClkEngine, ClkResult};
use obs::Obs;
use tsp_core::{generate, Instance, Tour, TourOps, TourRep, TwoLevelList};

use crate::probe::{self, CountingTour};
use crate::report::{check_tour, len_norm, Outcome};
use crate::{load, repeat_rounds, summarize, timed_setup, Op};

pub const CITIES: usize = 50_000;
/// Side of the square the cities are drawn from (DIMACS `E` recipe).
pub const SIDE: f64 = 1_000_000.0;
/// Chained-LK kicks after the first full LK pass.
pub const KICKS: u64 = 500;
/// `time_to_target_s` threshold on normalised length, met by the first
/// LK-optimal tour on every seed; see `perfbench/README.md` for the
/// derivation.
pub const TARGET_NORM: f64 = 0.7450;

/// The engine configuration: the solver's defaults under `seed`.
pub fn config(seed: u64) -> ChainedLkConfig {
    ChainedLkConfig {
        seed,
        ..ChainedLkConfig::default()
    }
}

/// Length whose normalised value is `norm` on `inst`, rounded down.
pub fn target_length(inst: &Instance, norm: f64) -> i64 {
    (norm * len_norm(inst, 1).recip()).floor() as i64
}

/// The untraced operation: build candidates, then run the engine the
/// way a user does. Returns the engine's result and the timings.
pub fn solve(inst: &Instance, cfg: &ChainedLkConfig, kicks: u64) -> (ClkResult, Op) {
    let t0 = Instant::now();
    let neighbors = cfg.build_neighbors(inst);
    let accept_s = t0.elapsed().as_secs_f64();
    let mut engine = ClkEngine::auto(inst, &neighbors, cfg.clone());
    let run_start = t0.elapsed().as_secs_f64();
    let res = engine.run(&Budget::kicks(kicks));
    let done_s = t0.elapsed().as_secs_f64();
    let target = target_length(inst, TARGET_NORM);
    let op = Op {
        accept_s,
        first_s: run_start + res.trace.points().first().map_or(0.0, |p| p.0),
        done_s,
        target_s: res.trace.time_to_reach(target).map(|s| run_start + s),
        kicks: res.kicks,
    };
    (res, op)
}

/// What the traced replay observed besides its spans.
#[derive(Debug, Clone)]
pub struct Traced {
    pub tour: Tour,
    pub length: i64,
    pub kicks: u64,
    /// Steps replayed piecewise (kick, re-optimisation, revert).
    pub replayed: u64,
    /// Replayed steps whose result was kept.
    pub accepted: u64,
    /// Flips and nanoseconds inside `flip` during the kick phase.
    pub flips: u64,
    pub flip_ns: u64,
}

/// The traced operation: the same search as [`solve`], driven from
/// outside through `ChainedLk` on a flip-counting tour. Even steps go
/// through `ChainedLk::chain_step`; odd steps are replayed from its
/// parts (`kick::kick`, `optimize_around`, revert) to time each part.
/// Both consume the engine's RNG exactly like `ClkEngine::run`, so the
/// final tour must be bit-identical.
pub fn traced(inst: &Instance, cfg: &ChainedLkConfig, kicks: u64, obs: &Obs) -> Traced {
    if inst.len() >= cfg.tl_threshold {
        traced_rep::<TwoLevelList>(inst, cfg, kicks, obs)
    } else {
        traced_rep::<Tour>(inst, cfg, kicks, obs)
    }
}

fn traced_rep<R: TourRep + Send + Sync>(
    inst: &Instance,
    cfg: &ChainedLkConfig,
    kicks: u64,
    obs: &Obs,
) -> Traced {
    let root = obs.span("clk.solve");
    let span = root.child("tsp_core.neighbors.build");
    let neighbors = cfg.build_neighbors(inst);
    span.end();
    let mut engine = ChainedLk::new(inst, &neighbors, cfg.clone());

    let span = root.child("lk.construct");
    let start = engine.construct_tour();
    span.end();
    let span = root.child("lk.optimize");
    let mut rep = CountingTour::<R>::from_tour(&start);
    let mut best = start.length(inst) - engine.optimize(&mut rep);
    span.end();

    let (flips0, flip_ns0) = probe::flip_totals();
    let chain = root.child("lk.chain");
    let (mut spent, mut replayed, mut accepted) = (0u64, 0u64, 0u64);
    while spent < kicks {
        best = if spent % 2 == 0 {
            let span = chain.child("lk.chain_step");
            let len = engine.chain_step(&mut rep, best);
            span.end();
            len
        } else {
            replayed += 1;
            let step = chain.child("lk.replay_step");
            let span = step.child("lk.revert");
            let saved = rep.to_order();
            span.end();
            let span = step.child("lk.kick");
            let k = kick(cfg.kick, inst, &mut rep, &neighbors, engine.rng_mut());
            span.end();
            match k {
                None => best,
                Some(k) => {
                    let span = step.child("lk.reopt");
                    let gain = engine.optimize_around(&mut rep, &k.cities);
                    span.end();
                    let len = best + k.delta - gain;
                    if len <= best {
                        accepted += 1;
                        len
                    } else {
                        let span = step.child("lk.revert");
                        rep = CountingTour::<R>::from_order_slice(&saved);
                        span.end();
                        best
                    }
                }
            }
        };
        spent += 1;
    }
    chain.end();
    let (flips1, flip_ns1) = probe::flip_totals();
    let tour = rep.to_tour();
    root.end();
    Traced {
        tour,
        length: best,
        kicks: spent,
        replayed,
        accepted,
        flips: flips1 - flips0,
        flip_ns: flip_ns1 - flip_ns0,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new();
    let inst = timed_setup(&mut out, || load(generate::uniform(CITIES, SIDE, seed)));
    let cfg = config(seed);
    if trace {
        traced_run(&inst, &cfg, &mut out);
        return out;
    }
    let (rounds, wall_s) = repeat_rounds(seconds, |_| solve(&inst, &cfg, KICKS));
    let (first, _) = &rounds[0];
    for (i, (res, op)) in rounds.iter().enumerate() {
        out.attempted += 1;
        if let Err(e) = check_tour(&inst, res.tour.order(), res.length) {
            out.reject(format!("round {i}: {e}"));
        }
        if res.tour.order() != first.tour.order() {
            out.reject(format!(
                "round {i}: tour differs from round 0 under the same seed"
            ));
        }
        if op.target_s.is_none() {
            out.failed += 1;
        }
    }
    let ops: Vec<Op> = rounds.iter().map(|r| r.1).collect();
    let solves: Vec<f64> = ops.iter().map(|o| o.done_s).collect();
    let busy: f64 = ops.iter().map(|o| o.done_s - o.first_s).sum();
    summarize(&mut out, &ops, &solves, wall_s, busy);
    out.set("len_norm", len_norm(&inst, first.length));
    out.notes.push(format!(
        "len_norm first tour {:.5}, final {:.5}; {} kicks",
        len_norm(&inst, first.trace.points().first().map_or(0, |p| p.2)),
        len_norm(&inst, first.length),
        first.kicks,
    ));
    out
}

fn traced_run(inst: &Instance, cfg: &ChainedLkConfig, out: &mut Outcome) {
    let (reference, op) = solve(inst, cfg, KICKS);
    let obs = probe::recorder();
    let t = traced(inst, cfg, KICKS, &obs);
    out.attempted = 1;
    if let Err(e) = check_tour(inst, t.tour.order(), t.length) {
        out.reject(format!("traced tour: {e}"));
    }
    if t.tour.order() != reference.tour.order() || t.length != reference.length {
        out.reject("traced run diverged from the untraced run".into());
    }
    let spans = probe::finish_trace(&obs, "clk-e50k", out);
    let get = |k: &str| spans.get(k).cloned().unwrap_or_default();
    let root = get("clk.solve").total_ns;
    let step = get("lk.chain_step");
    let per_replay = |k: &str| get(k).total_ns as f64 / t.replayed.max(1) as f64 / 1e3;
    out.set(
        "tsp_core.neighbors.build_ms",
        get("tsp_core.neighbors.build").total_ns as f64 / 1e6,
    );
    out.set(
        "tsp_core.tour.flips_per_kick",
        t.flips as f64 / t.kicks as f64,
    );
    out.set(
        "tsp_core.tour.flip_ns",
        t.flip_ns as f64 / t.flips.max(1) as f64,
    );
    out.set("lk.construct_ms", get("lk.construct").total_ns as f64 / 1e6);
    out.set("lk.optimize_ms", get("lk.optimize").total_ns as f64 / 1e6);
    out.set("lk.chain_step_us.p50", step.quantile_ns(0.5) / 1e3);
    out.set("lk.chain_step_us.p90", step.quantile_ns(0.9) / 1e3);
    out.set("lk.kick_us", per_replay("lk.kick"));
    out.set("lk.reopt_us", per_replay("lk.reopt"));
    out.set("lk.revert_us", per_replay("lk.revert"));
    out.set(
        "lk.kick_accept_ratio",
        t.accepted as f64 / t.replayed.max(1) as f64,
    );
    out.set(
        "obs.trace_overhead_pct",
        100.0 * (root as f64 / 1e9 - op.done_s) / op.done_s,
    );
    let kick_phase = "kicks_per_s@clk-e50k";
    for (layer, ns, predicts) in [
        (
            "tsp_core.neighbors.build_ms",
            get("tsp_core.neighbors.build").self_ns,
            "time_to_target_s@clk-e50k",
        ),
        ("tsp_core.tour.flip_ns", t.flip_ns, kick_phase),
        (
            "lk.construct_ms",
            get("lk.construct").self_ns,
            "time_to_target_s@clk-e50k",
        ),
        (
            "lk.optimize_ms",
            get("lk.optimize").self_ns,
            "time_to_target_s@clk-e50k",
        ),
        ("lk.chain_step_us", step.total_ns, kick_phase),
        ("lk.kick_us", get("lk.kick").self_ns, kick_phase),
        ("lk.reopt_us", get("lk.reopt").self_ns, kick_phase),
        ("lk.revert_us", get("lk.revert").self_ns, kick_phase),
    ] {
        out.notes.push(probe::share_line(layer, ns, root, predicts));
    }
}
