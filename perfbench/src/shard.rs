//! `shard-e200k`: the sharded pipeline (`distclk::run_sharded_threads`)
//! on 200k uniform cities, 16 shards on 2 nodes.

use std::time::Instant;

use distclk::{run_sharded_threads, ShardDistConfig, ShardDistResult, RESOLVED_LOCALLY};
use lk::shard::{solve_one_shard, stitch_and_refine, ShardConfig, ShardStats};
use lk::ChainedLkConfig;
use obs::Obs;
use tsp_core::{generate, Instance, Partition, SubInstance, Tour};

use crate::clk::SIDE;
use crate::probe;
use crate::report::{check_tour, len_norm, Outcome};
use crate::{load, repeat_rounds, summarize, timed_setup, Op};

pub const CITIES: usize = 200_000;
pub const SHARDS: usize = 16;
pub const NODES: usize = 2;
/// CLK kicks per shard after its first full LK pass.
pub const KICKS_PER_SHARD: u64 = 50;
/// `time_to_target_s` threshold on normalised length, met by the final
/// tour on every seed; see `perfbench/README.md` for the derivation.
pub const TARGET_NORM: f64 = 0.7500;

pub fn config(seed: u64, shards: usize, kicks_per_shard: u64) -> ShardDistConfig {
    ShardDistConfig {
        nodes: NODES,
        shard: ShardConfig {
            shards,
            clk: ChainedLkConfig {
                seed,
                ..ChainedLkConfig::default()
            },
            kicks_per_shard,
            ..ShardConfig::default()
        },
        ..ShardDistConfig::default()
    }
}

/// The untraced operation. The pipeline returns one tour at the end,
/// so acceptance, first tour and completion coincide.
pub fn solve(inst: &Instance, cfg: &ShardDistConfig) -> (ShardDistResult, Op) {
    let t0 = Instant::now();
    let res = run_sharded_threads(inst, cfg);
    let done_s = t0.elapsed().as_secs_f64();
    let op = Op {
        accept_s: done_s,
        first_s: done_s,
        done_s,
        target_s: (len_norm(inst, res.length) <= TARGET_NORM).then_some(done_s),
        kicks: res.stats.shard_count as u64 * cfg.shard.kicks_per_shard,
    };
    (res, op)
}

/// Check one shard's sub-tour: a permutation of the shard's cities
/// whose recomputed cycle length is the reported one.
pub fn check_shard(
    inst: &Instance,
    members: &[u32],
    order: &[u32],
    length: i64,
) -> Result<(), String> {
    let mut a = order.to_vec();
    let mut b = members.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    if a != b {
        return Err("sub-tour is not a permutation of its shard".into());
    }
    let n = order.len();
    let actual: i64 = (0..n)
        .map(|i| inst.dist(order[i] as usize, order[(i + 1) % n] as usize))
        .sum();
    if actual != length {
        return Err(format!("sub-tour length {length}, recomputed {actual}"));
    }
    Ok(())
}

/// What the traced replay returns besides its spans.
pub struct Traced {
    pub tour: Tour,
    pub stats: ShardStats,
    /// Shard sub-tours that failed [`check_shard`].
    pub bad_shards: Vec<String>,
}

/// The traced operation: `Partition::build`, `solve_one_shard` per
/// shard and `stitch_and_refine`, called in sequence. Shard solves are
/// pure functions of `(instance, partition, shard, config)`, so the
/// result must equal the two-node run bit for bit.
pub fn traced(inst: &Instance, cfg: &ShardConfig, obs: &Obs) -> Traced {
    let root = obs.span("shard.solve");
    let span = root.child("tsp_core.partition.build");
    let part = Partition::build(inst, cfg.shards);
    span.end();
    let mut stats = ShardStats {
        shard_count: part.shard_count(),
        max_shard_cities: part.max_shard_len(),
        ..ShardStats::default()
    };
    let mut cycles = Vec::with_capacity(part.shard_count());
    let mut bad_shards = Vec::new();
    for s in 0..part.shard_count() {
        let span = root.child("lk.shard.solve");
        let (order, length) = solve_one_shard(inst, &part, s, cfg);
        span.end();
        if let Err(e) = check_shard(inst, part.shard(s), &order, length) {
            bad_shards.push(format!("shard {s}: {e}"));
        }
        stats.shard_lengths.push(length);
        cycles.push(Some(order));
    }
    let span = root.child("lk.shard.stitch_refine");
    let tour = stitch_and_refine(inst, &part, cycles, cfg, &Obs::disabled(), &mut stats);
    span.end();
    root.end();

    // The candidate build inside each shard solve, timed on its own
    // outside the solve span so the shares above stay disjoint.
    let probe = obs.span("shard.neighbors_probe");
    for s in 0..part.shard_count() {
        let sub = SubInstance::extract(inst, part.shard(s), format!("s{s}"));
        let span = probe.child("tsp_core.neighbors.build");
        std::hint::black_box(cfg.clk.build_neighbors(sub.instance()));
        span.end();
    }
    probe.end();
    Traced {
        tour,
        stats,
        bad_shards,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new();
    let inst = timed_setup(&mut out, || load(generate::uniform(CITIES, SIDE, seed)));
    let cfg = config(seed, SHARDS, KICKS_PER_SHARD);
    if trace {
        traced_run(&inst, &cfg, &mut out);
        return out;
    }
    let (rounds, wall_s) = repeat_rounds(seconds, |_| solve(&inst, &cfg));
    let (first, _) = &rounds[0];
    for (i, (res, op)) in rounds.iter().enumerate() {
        out.attempted += 1;
        check_result(&inst, res, first, i, &mut out);
        if op.target_s.is_none() {
            out.failed += 1;
        }
    }
    let ops: Vec<Op> = rounds.iter().map(|r| r.1).collect();
    let solves: Vec<f64> = ops.iter().map(|o| o.done_s).collect();
    summarize(&mut out, &ops, &solves, wall_s, solves.iter().sum());
    out.set("len_norm", len_norm(&inst, first.length));
    out.notes.push(format!(
        "len_norm stitched {:.5}, final {:.5}; {} shards, largest {} cities",
        len_norm(&inst, first.stats.stitched_length),
        len_norm(&inst, first.length),
        first.stats.shard_count,
        first.stats.max_shard_cities
    ));
    out
}

fn check_result(
    inst: &Instance,
    res: &ShardDistResult,
    first: &ShardDistResult,
    round: usize,
    out: &mut Outcome,
) {
    if let Err(e) = check_tour(inst, res.tour.order(), res.length) {
        out.reject(format!("round {round}: {e}"));
    }
    if res.tour.order() != first.tour.order() {
        out.reject(format!(
            "round {round}: tour differs from round 0 under the same seed"
        ));
    }
    if res.rejected > 0 || res.solver_of.contains(&RESOLVED_LOCALLY) {
        out.reject(format!(
            "round {round}: a shard result was rejected or re-solved"
        ));
    }
}

fn traced_run(inst: &Instance, cfg: &ShardDistConfig, out: &mut Outcome) {
    let (reference, op) = solve(inst, cfg);
    check_result(inst, &reference, &reference, 0, out);
    // The replay below runs the shards on one thread, so its overhead is
    // taken against the solver's own one-thread pipeline.
    let t0 = Instant::now();
    let local = lk::shard::shard_solve(inst, &cfg.shard);
    let local_s = t0.elapsed().as_secs_f64();
    let obs = probe::recorder();
    let t = traced(inst, &cfg.shard, &obs);
    out.attempted = 1;
    if local.tour.order() != reference.tour.order() {
        out.reject("one-thread pipeline diverged from the two-node run".into());
    }
    for e in &t.bad_shards {
        out.reject(e.clone());
    }
    if t.tour.order() != reference.tour.order() {
        out.reject("traced run diverged from the untraced run".into());
    }
    let spans = probe::finish_trace(&obs, "shard-e200k", out);
    let get = |k: &str| spans.get(k).cloned().unwrap_or_default();
    let root = get("shard.solve").total_ns;
    let solve = get("lk.shard.solve");
    let neighbors = get("tsp_core.neighbors.build");
    out.set(
        "tsp_core.neighbors.build_ms",
        neighbors.total_ns as f64 / 1e6,
    );
    out.set(
        "tsp_core.partition.build_ms",
        get("tsp_core.partition.build").total_ns as f64 / 1e6,
    );
    out.set("lk.shard.solve_ms.p50", solve.quantile_ns(0.5) / 1e6);
    out.set("lk.shard.solve_ms.max", solve.quantile_ns(1.0) / 1e6);
    out.set(
        "lk.shard.stitch_refine_ms",
        get("lk.shard.stitch_refine").total_ns as f64 / 1e6,
    );
    out.set("lk.shard.refine_gain", t.stats.refine_gain as f64);
    out.set("distclk.shard.messages", reference.messages.0 as f64);
    out.set("distclk.shard.wire_bytes", reference.messages.1 as f64);
    out.set("distclk.shard.rejected", reference.rejected as f64);
    out.set(
        "obs.trace_overhead_pct",
        100.0 * (root as f64 / 1e9 - local_s) / local_s,
    );
    out.notes.push(format!(
        "untraced: {:.2} s on {NODES} nodes, {local_s:.2} s on one thread",
        op.done_s
    ));
    for (layer, ns, predicts) in [
        (
            "tsp_core.neighbors.build_ms",
            neighbors.total_ns,
            "solve_s@shard-e200k (inside lk.shard.solve)",
        ),
        (
            "tsp_core.partition.build_ms",
            get("tsp_core.partition.build").self_ns,
            "solve_s@shard-e200k",
        ),
        (
            "lk.shard.solve_ms",
            solve.self_ns,
            "solve_s, len_norm@shard-e200k",
        ),
        (
            "lk.shard.stitch_refine_ms",
            get("lk.shard.stitch_refine").self_ns,
            "solve_s, len_norm@shard-e200k",
        ),
    ] {
        out.notes.push(probe::share_line(layer, ns, root, predicts));
    }
}
