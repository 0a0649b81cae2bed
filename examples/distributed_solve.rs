//! The paper's headline experiment in miniature: the 8-node
//! distributed CLK finds better tours than standalone CLK given the
//! same *total* CPU budget, and solves drill-plate instances that trap
//! plain CLK in local optima.
//!
//! ```text
//! cargo run --release --example distributed_solve
//! ```

use dist_clk::distclk::{DistConfig, Run};
use dist_clk::lk::{Budget, ChainedLk, ChainedLkConfig, KickStrategy};
use dist_clk::p2p::Topology;
use dist_clk::tsp_core::{generate, NeighborLists};

fn main() {
    // A drill-plate instance: the structure of TSPLIB's fl1577/fl3795,
    // whose deep local optima defeat standalone CLK (paper §4.1).
    let inst = generate::drill_plate(1500, 7);
    let neighbors = NeighborLists::build(&inst, 10);
    println!("instance: {} ({} cities)", inst.name(), inst.len());

    // Standalone CLK: 2000 kicks.
    let clk_kicks = 2000u64;
    let mut engine = ChainedLk::new(
        &inst,
        &neighbors,
        ChainedLkConfig {
            kick: KickStrategy::RandomWalk(50),
            seed: 1,
            ..Default::default()
        },
    );
    let clk = engine.run(&Budget::kicks(clk_kicks));
    println!(
        "ABCC-CLK:      length {} after {} kicks ({:.2}s)",
        clk.length, clk.kicks, clk.seconds
    );

    // Distributed: 8 nodes, one tenth of the kicks per node — the
    // paper's budget ratio (total CPU = 8/10 of the standalone run).
    let cfg = DistConfig {
        nodes: 8,
        topology: Topology::Hypercube,
        clk_kicks_per_call: 25,
        budget: Budget::kicks(clk_kicks / 10 / 25),
        seed: 1,
        ..Default::default()
    };
    let dist = Run::new(&inst, &neighbors, &cfg).threads();
    println!(
        "DistCLK (8):   length {} ({} broadcasts, {} messages, {:.2}s wall)",
        dist.best_length,
        dist.total_broadcasts(),
        dist.messages.0,
        dist.wall_seconds
    );

    let delta = clk.length - dist.best_length;
    if delta >= 0 {
        println!(
            "distributed variant is {delta} shorter ({:.3}%) with 20% less total CPU",
            delta as f64 / clk.length as f64 * 100.0
        );
    } else {
        println!("standalone won this seed by {}", -delta);
    }
}
