//! The traced replays must not change the search: at small n, each
//! traced operation returns the untraced operation's tour bit for bit.

use perfbench::{clk, dist8, probe, shard};
use tsp_core::generate;

#[test]
fn clk_traced_equals_untraced_on_both_representations() {
    let inst = generate::uniform(1_500, 1_000_000.0, 7);
    for tl_threshold in [usize::MAX, 1_000] {
        let cfg = lk::ChainedLkConfig {
            tl_threshold,
            ..clk::config(7)
        };
        let (plain, _) = clk::solve(&inst, &cfg, 60);
        let obs = probe::recorder();
        let traced = clk::traced(&inst, &cfg, 60, &obs);
        assert_eq!(
            traced.tour.order(),
            plain.tour.order(),
            "tl_threshold {tl_threshold}"
        );
        assert_eq!(traced.length, plain.length);
        assert_eq!(traced.kicks, plain.kicks);
        assert!(traced.flips > 0 && traced.replayed == 30);
        assert_eq!(obs.events_dropped(), 0);
    }
}

#[test]
fn dist8_traced_equals_untraced() {
    let inst = generate::uniform(300, 1_000_000.0, 3);
    let cfg = dist8::config(3, 4);
    let (plain, _) = dist8::solve(&inst, &cfg);
    let traced = dist8::traced(&inst, &cfg, &probe::recorder());
    assert_eq!(traced.best_tour.order(), plain.best_tour.order());
    assert_eq!(traced.best_length, plain.best_length);
    let calls: u64 = traced.nodes.iter().map(|n| n.clk_calls).sum();
    assert_eq!(calls, plain.nodes.iter().map(|n| n.clk_calls).sum::<u64>());
    // The counting transport saw the network's tour broadcasts; only the
    // final `Leave` notices pass it by.
    assert_eq!(traced.links.tours, plain.messages.2);
    assert!(traced.links.sends > 0 && traced.links.sends <= plain.messages.0);
}

#[test]
fn shard_traced_equals_two_node_run() {
    let inst = generate::uniform(6_000, 1_000_000.0, 5);
    let cfg = shard::config(5, 4, 10);
    let (plain, _) = shard::solve(&inst, &cfg);
    let traced = shard::traced(&inst, &cfg.shard, &probe::recorder());
    assert!(traced.bad_shards.is_empty(), "{:?}", traced.bad_shards);
    assert_eq!(traced.tour.order(), plain.tour.order());
    assert_eq!(traced.stats.refine_gain, plain.stats.refine_gain);
}

#[test]
fn span_self_time_subtracts_direct_children() {
    let obs = probe::recorder();
    let root = obs.span("root");
    let child = root.child("child");
    let grandchild = child.child("grandchild");
    std::thread::sleep(std::time::Duration::from_millis(2));
    grandchild.end();
    child.end();
    root.end();
    let stats = probe::span_stats(&obs.events());
    let (r, c, g) = (&stats["root"], &stats["child"], &stats["grandchild"]);
    assert_eq!(r.self_ns, r.total_ns - c.total_ns);
    assert_eq!(c.self_ns, c.total_ns - g.total_ns);
    assert_eq!(g.self_ns, g.total_ns);
    assert!(g.total_ns >= 2_000_000);
}

#[test]
fn benchmark_json_declares_every_printed_metric() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the package");
    let lists = [perfbench::report::END_TO_END, perfbench::report::PER_LAYER];
    for (name, unit) in lists.iter().flat_map(|l| l.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "missing {entry}");
    }
    let declared = json.matches("\"better\"").count();
    assert_eq!(declared, lists.iter().map(|l| l.len()).sum::<usize>());
    for w in perfbench::WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
            "workload {w}"
        );
    }
}
