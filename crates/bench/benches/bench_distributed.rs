//! End-to-end distributed runs at bench scale: the lockstep driver
//! (deterministic) and the threaded driver.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use distclk::{run_lockstep, DistConfig, Run};
use lk::Budget;
use tsp_core::{generate, NeighborLists};

fn cfg(nodes: usize) -> DistConfig {
    DistConfig {
        nodes,
        clk_kicks_per_call: 5,
        budget: Budget::kicks(3),
        seed: 1,
        ..Default::default()
    }
}

fn bench_drivers(c: &mut Criterion) {
    let inst = generate::uniform(300, 1_000_000.0, 14);
    let nl = NeighborLists::build(&inst, 10);
    let mut g = c.benchmark_group("distributed_300c");
    g.sample_size(10);
    g.bench_function("lockstep_8n_3calls", |b| {
        b.iter(|| black_box(run_lockstep(&inst, &nl, &cfg(8)).best_length))
    });
    g.bench_function("threads_8n_3calls", |b| {
        b.iter(|| black_box(Run::new(&inst, &nl, &cfg(8)).threads().best_length))
    });
    g.bench_function("lockstep_1n_3calls", |b| {
        b.iter(|| black_box(run_lockstep(&inst, &nl, &cfg(1)).best_length))
    });
    g.finish();
}

criterion_group!(benches, bench_drivers);
criterion_main!(benches);
