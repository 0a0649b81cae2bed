//! **Fault sweep** (extension beyond the paper) — tour quality under an
//! unreliable network.
//!
//! The paper's cluster had a dedicated switched Ethernet; its only
//! robustness claim is that the algorithm "should keep working" when
//! the network degrades. This experiment measures that directly: the
//! in-memory lockstep network is wrapped in
//! [`p2p::fault::FaultyTransport`] and message **drop** and wire-level
//! **corruption** rates are swept on the paper's hypercube and on a
//! ring (the sparsest topology, where every lost broadcast hurts the
//! most). Corrupted tours that survive the codec are fed to the
//! receive-side validation in the node loop; the `rejected` column
//! counts how many it turned away.
//!
//! Expected shape: quality degrades smoothly with the fault rate (no
//! cliff), the hypercube tolerates faults better than the ring (more
//! redundant paths), and corruption never crashes a run or pollutes
//! the reported best (every reported length is recomputed locally).

use distclk::Run;
use lk::KickStrategy;
use p2p::fault::{FaultConfig, FaultyTransport};
use p2p::memory::InMemoryNetwork;
use p2p::Topology;
use tsp_core::{generate, NeighborLists};

use crate::experiments::common::{dist_config, mean};
use crate::report::Report;
use crate::testbed::Scale;

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "faults",
        "Fault sweep: tour quality under message drop and corruption",
    );
    let sized = |base: usize| ((base as f64 * scale.size_factor) as usize).max(256);
    let inst = generate::uniform(sized(1000), 1_000_000.0, 21);
    let nl = NeighborLists::build(&inst, 10);
    let kick = KickStrategy::RandomWalk(50);
    let mut csv = Vec::new();

    for (fault_kind, rates) in [
        ("drop", [0.0, 0.1, 0.2, 0.4]),
        ("corrupt", [0.0, 0.1, 0.2, 0.4]),
    ] {
        let mut rows = Vec::new();
        for topo in [Topology::Hypercube, Topology::Ring] {
            for &rate in &rates {
                let mut lens = Vec::new();
                let mut rejected_per_run = Vec::new();
                for run in 0..scale.runs {
                    let mut cfg = dist_config(scale, kick, scale.nodes, 0);
                    cfg.topology = topo;
                    cfg.seed = 0xFA + run as u64;
                    let fcfg = match fault_kind {
                        "drop" => FaultConfig::drop_rate(rate, cfg.seed),
                        _ => FaultConfig::corrupt_rate(rate, cfg.seed),
                    };
                    let (eps, stats) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
                    let wrapped: Vec<_> = eps
                        .into_iter()
                        .map(|e| FaultyTransport::new(e, fcfg))
                        .collect();
                    let res = Run::new(&inst, &nl, &cfg)
                        .over(wrapped, Some(stats))
                        .lockstep();
                    let rejected: u64 = res.nodes.iter().map(|n| n.rejected).sum();
                    csv.push(format!(
                        "{fault_kind},{topo:?},{rate},{run},{},{rejected}",
                        res.best_length
                    ));
                    lens.push(res.best_length as f64);
                    rejected_per_run.push(rejected as f64);
                }
                rows.push(vec![
                    format!("{topo:?}"),
                    format!("{rate}"),
                    format!("{:.0}", mean(&lens)),
                    format!("{:.1}", mean(&rejected_per_run)),
                ]);
            }
        }
        report.para(&format!(
            "Message {fault_kind} rate sweep ({} nodes, mean of {} runs; \
             'rejected' counts received tours turned away by validation):",
            scale.nodes, scale.runs
        ));
        report.table(
            &["Topology", "Rate", "Mean best length", "Mean rejected"],
            &rows,
        );
    }

    report.series(
        "faults",
        "fault,topology,rate,run,best_length,rejected",
        csv,
    );
    report
}
