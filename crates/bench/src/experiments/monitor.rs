//! **Live monitor mode** (extension beyond the paper) — drives the
//! distributed telemetry plane end-to-end on a real TCP deployment.
//!
//! A [`LifecycleHub`] is started with its live [`TelemetryStore`];
//! nodes bootstrap through it over real sockets and solve a
//! known-optimum grid while shipping telemetry frames to the
//! lifecycle-hub holder (node 0), which merges them into the hub's
//! store. Meanwhile this thread scrapes `METRICS` and `STATUS` over
//! TCP *mid-run*, exactly like an external Prometheus scraper or a
//! human with `nc`, and records a per-node convergence timeline.
//!
//! Artifacts written to `target/repro/`:
//!
//! - `monitor.md` — the report (scrape counts, stall totals, final
//!   gap, cross-node span correlation);
//! - `monitor_timeline.csv` — one row per (scrape, node): live best
//!   length, gap vs the known optimum, iteration rate, stall flag,
//!   RTT and clock-offset estimates;
//! - `monitor_trace.json` — Chrome trace-event JSON (open in Perfetto
//!   or `chrome://tracing`) of every shipped event and span,
//!   re-stamped onto the hub's clock via the per-node offsets the
//!   store estimated at ingest.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use distclk::{DistConfig, Run, TelemetryAttach};
use lk::Budget;
use obs_api::Obs;
use p2p::hub::{join_via_hub, scrape_metrics, scrape_status, LifecycleHub};
use p2p::tcp::TcpEndpoint;
use p2p::{TcpConfig, Topology};
use tsp_core::generate;

use crate::report::Report;
use crate::testbed::Scale;

pub fn run(scale: &Scale) -> Report {
    run_mode(scale.size_factor < 1.0)
}

/// Run the live monitor. `smoke` keeps the instance and budget
/// CI-friendly; the full mode watches a 1024-city solve.
pub fn run_mode(smoke: bool) -> Report {
    // Grids small enough to finish fast but big enough that no node's
    // *initial* CLK pass lands on the optimum — cooperation (broadcast
    // → adopt) must happen live, mid-run, where the scraper sees it.
    let (side, calls, kicks_per_call, scrape_every_ms) = if smoke {
        (22usize, 150u64, 2u64, 10u64)
    } else {
        (40, 400, 10, 50)
    };
    let nodes = 4usize;
    // Complete graph: telemetry frames are one hop (no routing), so
    // every node needs a direct edge to the hub holder.
    let topology = Topology::Complete;

    let mut report = Report::new(
        "monitor",
        format!(
            "Live monitor: mid-run telemetry scrape over TCP ({} mode)",
            if smoke { "smoke" } else { "full" }
        ),
    );
    report.para(
        "Nodes solve a known-optimum grid over real sockets while \
         shipping metric deltas, events, and convergence state to the \
         lifecycle-hub holder; this thread scrapes the hub's METRICS \
         and STATUS commands mid-run and exports the merged timeline.",
    );

    let inst = generate::grid_known_optimum(side, side, 100.0);
    let optimum = inst.known_optimum().expect("grid optimum is known");
    let cfg = DistConfig {
        nodes,
        topology,
        budget: Budget::kicks(calls),
        clk_kicks_per_call: kicks_per_call,
        telemetry_every: 1,
        // Rotate construction heuristics so nodes start from distinct
        // tours: early broadcasts then genuinely improve peers, and
        // the trace shows cross-node adoptions (spans sharing one
        // broadcast id on several tracks).
        diversify_construction: true,
        seed: 42,
        ..Default::default()
    };
    let nl = distclk::build_neighbors(&inst, &cfg);

    // The hub's scrape server and the solve share one store: frames
    // cross the node transport to node 0, node 0 ingests into this
    // Arc, and TCP scrapes on the hub port read the same view.
    let mut hub = LifecycleHub::start_with("127.0.0.1:0", nodes, topology, Obs::for_node(1000))
        .expect("start lifecycle hub");
    let store = hub.telemetry();
    store.set_reference(Some(optimum));

    let mut endpoints = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let mut ep = TcpEndpoint::bind(usize::MAX, "127.0.0.1:0").expect("bind node endpoint");
        let info = join_via_hub(hub.addr(), ep.listen_addr()).expect("join via hub");
        ep.set_id(info.id);
        for (nid, addr) in &info.neighbors {
            ep.connect_to(*nid, *addr).expect("dial neighbor");
        }
        endpoints.push(ep);
    }

    let net_cfg = TcpConfig::default();
    let hub_addr = hub.addr();
    let mut timeline: Vec<String> = Vec::new();
    let mut scrape_ok = 0u64;
    let mut last_metrics = String::new();
    let started = Instant::now();
    let result = std::thread::scope(|scope| {
        let solver = scope.spawn(|| {
            Run::new(&inst, &nl, &cfg)
                .over(endpoints, None)
                .telemetry(Arc::clone(&store), TelemetryAttach::Node(0))
                .threads()
        });
        while !solver.is_finished() {
            let t = started.elapsed().as_secs_f64();
            if let (Ok(metrics), Ok(status)) = (
                scrape_metrics(hub_addr, &net_cfg),
                scrape_status(hub_addr, &net_cfg),
            ) {
                let rows = status_to_rows(t, &status);
                if !rows.is_empty() {
                    scrape_ok += 1;
                    timeline.extend(rows);
                    last_metrics = metrics;
                }
            }
            std::thread::sleep(Duration::from_millis(scrape_every_ms));
        }
        solver.join().expect("solver thread panicked")
    });
    let wall = started.elapsed().as_secs_f64();

    // Final scrape so the timeline always ends on the converged state
    // (and the smoke run has rows even if the solve outpaced the
    // scraper).
    if let Ok(status) = scrape_status(hub_addr, &net_cfg) {
        timeline.extend(status_to_rows(wall, &status));
    }
    if let Ok(metrics) = scrape_metrics(hub_addr, &net_cfg) {
        last_metrics = metrics;
    }

    // Chrome trace export: events were re-stamped onto the hub's
    // timeline at ingest (half-RTT clock-offset estimate per node),
    // so the export is cross-node causally ordered as-is.
    let events = store.events();
    let trace = obs_api::chrome_trace_json(&events);
    let trace_path = Report::out_dir().join("monitor_trace.json");
    std::fs::write(&trace_path, &trace).expect("write trace.json");

    // Cross-node span correlation: groups of `node.round` spans from
    // different nodes sharing one broadcast id — a tour migration.
    let mut by_bcast: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    for e in &events {
        if e.field_u64("dur_ns").is_some() {
            if let Some(b) = e.field_u64("bcast") {
                by_bcast.entry(b).or_default().insert(e.node);
            }
        }
    }
    let cross_node_spans = by_bcast.values().filter(|s| s.len() >= 2).count();

    let reporting = store.nodes().len();
    let merged = store.merged_snapshot();
    let stalls = merged.counter(obs_api::kinds::C_STALLS);
    let frames = merged.counter("telemetry.frames");
    let gap = (result.best_length - optimum) as f64 * 100.0 / optimum as f64;
    report.para(&format!(
        "{side}x{side} grid (optimum {optimum}), {nodes} nodes over TCP, \
         {calls} CLK calls each: finished at {} ({gap:+.3}% vs optimum) \
         in {wall:.2}s.",
        result.best_length
    ));
    report.para(&format!(
        "Telemetry: nodes_reporting={reporting} frames={frames} \
         scrape_ok={scrape_ok} stalls={stalls} \
         cross_node_spans={cross_node_spans} \
         events_exported={} trace={}",
        events.len(),
        trace_path.display(),
    ));
    if !obs_api::ENABLED {
        report.para(
            "Note: built without the obs feature — events and spans are \
             compiled out, so the trace is empty; metric shipping and \
             the STATUS convergence view still work.",
        );
    }
    // A taste of the Prometheus exposition for the report.
    let scrape_excerpt: Vec<&str> = last_metrics
        .lines()
        .filter(|l| l.starts_with("telemetry_") || l.starts_with("node_clk_calls"))
        .collect();
    if !scrape_excerpt.is_empty() {
        report.para(&format!("METRICS excerpt:\n```\n{}\n```", scrape_excerpt.join("\n")));
    }
    report.series(
        "timeline",
        "t_secs,node,best,gap_pct,rate,stalled,rtt_ns,offset_ns,clk_calls",
        timeline,
    );
    hub.stop();
    report
}

/// Parse one `STATUS` body into timeline CSV rows (one per node line).
/// Line shape: `NODE <id> BEST <len> GAP <pct|-> RATE <r> STALLED <s>
/// RTT <ns> OFFSET <ns> CALLS <n>`.
fn status_to_rows(t: f64, status: &str) -> Vec<String> {
    status
        .lines()
        .filter_map(|line| {
            let tok: Vec<&str> = line.split_whitespace().collect();
            if tok.len() < 16 || tok[0] != "NODE" {
                return None;
            }
            Some(format!(
                "{t:.3},{},{},{},{},{},{},{},{}",
                tok[1], tok[3], tok[5], tok[7], tok[9], tok[11], tok[13], tok[15]
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_monitor_scrapes_live_and_exports_artifacts() {
        let report = run_mode(true);
        assert!(report.markdown.contains("Live monitor"));
        assert!(report.markdown.contains("nodes_reporting=4"));
        // The scrape loop must have caught the run in flight at least
        // once: the budget gives the solve ample wall time vs the
        // 10 ms scrape cadence.
        assert!(
            report.markdown.contains("scrape_ok=") && !report.markdown.contains("scrape_ok=0 "),
            "no successful mid-run scrape:\n{}",
            report.markdown
        );
        let (_, header, rows) = report
            .csv
            .iter()
            .find(|(n, _, _)| n == "timeline")
            .expect("timeline series");
        assert!(header.starts_with("t_secs,node,best"));
        assert!(!rows.is_empty(), "empty convergence timeline");
        let trace = std::fs::read_to_string(Report::out_dir().join("monitor_trace.json"))
            .expect("trace.json written");
        // JSON-array flavor of the trace-event format.
        assert!(trace.trim_start().starts_with('['), "{trace}");
        if obs_api::ENABLED {
            assert!(trace.contains("\"ph\":\"X\""), "no complete (span) events");
            assert!(trace.contains("node.round"), "no round spans in trace");
        }
    }

    #[test]
    fn status_parser_extracts_node_rows() {
        let body = "NODE 0 BEST 14400 GAP 0.0000 RATE 12.50 STALLED 0 RTT 180000 OFFSET -250 CALLS 37\nMOVED 3\n";
        let rows = status_to_rows(1.5, body);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], "1.500,0,14400,0.0000,12.50,0,180000,-250,37");
    }
}
