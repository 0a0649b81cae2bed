//! ISSUE acceptance criterion: the live telemetry plane must cost at
//! most 2% on a fixed-seed distributed CLK run, with bit-identical
//! tours.
//!
//! Methodology as in `lk/tests/obs_overhead.rs` (the PR 2 bound):
//! min-of-N timing with alternating on/off order, so scheduler noise
//! and thermal drift hit both variants equally and the minimum
//! approaches the true cost of the code.

use std::sync::Arc;
use std::time::{Duration, Instant};

use distclk::{DistConfig, Run, TelemetryAttach};
use lk::Budget;
use p2p::{InMemoryNetwork, TelemetryStore};
use tsp_core::{generate, NeighborLists};

const N_CITIES: usize = 300;
const NODES: usize = 4;
const CALLS: u64 = 8;
const KICKS_PER_CALL: u64 = 12;
const ROUNDS: usize = 5;

fn cfg() -> DistConfig {
    DistConfig {
        nodes: NODES,
        budget: Budget::kicks(CALLS),
        clk_kicks_per_call: KICKS_PER_CALL,
        seed: 4242,
        ..Default::default()
    }
}

/// One lockstep run; `telemetry_every > 0` attaches a live store and
/// ships a frame from every node every round (the heaviest cadence).
fn run_once(
    inst: &tsp_core::Instance,
    nl: &NeighborLists,
    telemetry_every: u64,
) -> (Duration, i64, Vec<u32>) {
    let mut cfg = cfg();
    cfg.telemetry_every = telemetry_every;
    let (endpoints, stats) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
    let start = Instant::now();
    let mut run = Run::new(inst, nl, &cfg).over(endpoints, Some(stats));
    if telemetry_every > 0 {
        run = run.telemetry(TelemetryStore::shared(), TelemetryAttach::AllNodes);
    }
    let res = run.lockstep();
    (start.elapsed(), res.best_length, res.best_tour.order().to_vec())
}

/// Shipping a frame every round must not perturb the search: same
/// seed, same tour, with and without the live plane.
#[test]
fn telemetry_does_not_change_the_search_trajectory() {
    let inst = generate::uniform(N_CITIES, 100_000.0, 4242);
    let nl = NeighborLists::build(&inst, 10);
    let (_, len_off, tour_off) = run_once(&inst, &nl, 0);
    let (_, len_on, tour_on) = run_once(&inst, &nl, 1);
    assert_eq!(len_off, len_on, "telemetry changed the fixed-seed result");
    assert_eq!(tour_off, tour_on, "telemetry changed the fixed-seed tour");
}

/// The headline bound: live telemetry within 2% of a plain run.
#[test]
fn telemetry_overhead_under_two_percent() {
    let inst = generate::uniform(N_CITIES, 100_000.0, 4242);
    let nl = NeighborLists::build(&inst, 10);

    // Warm-up: touch caches, trigger lazy init, page in the code.
    run_once(&inst, &nl, 0);
    run_once(&inst, &nl, 1);

    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    for _ in 0..ROUNDS {
        let (t_off, _, _) = run_once(&inst, &nl, 0);
        let (t_on, _, _) = run_once(&inst, &nl, 1);
        best_off = best_off.min(t_off);
        best_on = best_on.min(t_on);
    }

    let off = best_off.as_secs_f64();
    let on = best_on.as_secs_f64();
    // Keep the workload long enough that 2% clears timer resolution;
    // if this fires, raise CALLS/KICKS_PER_CALL rather than loosening
    // the bound.
    assert!(
        off > 0.05,
        "workload too short ({off:.3}s) for a meaningful 2% bound; raise the budget"
    );
    assert!(
        on <= off * 1.02,
        "telemetry overhead {:.2}% exceeds the 2% budget (off={off:.3}s on={on:.3}s)",
        (on - off) / off * 100.0
    );
}

/// A keep-alive for the Arc-sharing contract: the caller's handle sees
/// the frames the run shipped.
#[test]
fn callers_store_handle_sees_the_run() {
    let inst = generate::uniform(120, 100_000.0, 7);
    let nl = NeighborLists::build(&inst, 8);
    let mut c = cfg();
    c.budget = Budget::kicks(3);
    c.telemetry_every = 1;
    let store = TelemetryStore::shared();
    let (endpoints, stats) = InMemoryNetwork::build(c.nodes, c.topology);
    Run::new(&inst, &nl, &c)
        .over(endpoints, Some(stats))
        .telemetry(Arc::clone(&store), TelemetryAttach::AllNodes)
        .lockstep();
    assert_eq!(store.nodes().len(), NODES);
    assert!(store.merged_snapshot().counter("telemetry.frames") >= NODES as u64);
}
