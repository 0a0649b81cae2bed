//! Metric names, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tsp_core::{Instance, Tour};

/// Every end-to-end metric, `(name, unit)`, printed by an untraced run
/// of every workload (see `perfbench/README.md` for what each one means
/// on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("time_to_target_s", "s"),
    ("len_norm", "ratio"),
    ("kicks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("accept_ms.p50", "ms"),
    ("accept_ms.p90", "ms"),
    ("first_tour_ms.p50", "ms"),
    ("first_tour_ms.p90", "ms"),
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Every per-layer metric, `(name, unit)`, printed by a traced run of
/// every workload. A workload that never enters a layer reports 0 for
/// it: no calls, no time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tsp_core.neighbors.build_ms", "ms"),
    ("tsp_core.partition.build_ms", "ms"),
    ("tsp_core.tour.flips_per_kick", "count"),
    ("tsp_core.tour.flip_ns", "ns"),
    ("lk.construct_ms", "ms"),
    ("lk.optimize_ms", "ms"),
    ("lk.chain_step_us.p50", "us"),
    ("lk.chain_step_us.p90", "us"),
    ("lk.kick_us", "us"),
    ("lk.reopt_us", "us"),
    ("lk.revert_us", "us"),
    ("lk.kick_accept_ratio", "ratio"),
    ("lk.shard.solve_ms.p50", "ms"),
    ("lk.shard.solve_ms.max", "ms"),
    ("lk.shard.stitch_refine_ms", "ms"),
    ("lk.shard.refine_gain", "count"),
    ("distclk.node.step_ms.p50", "ms"),
    ("distclk.node.step_ms.p90", "ms"),
    ("distclk.clk_calls", "count"),
    ("distclk.broadcasts", "count"),
    ("distclk.received", "count"),
    ("distclk.rejected", "count"),
    ("distclk.adopt_ratio", "ratio"),
    ("distclk.restarts", "count"),
    ("distclk.shard.messages", "count"),
    ("distclk.shard.wire_bytes", "bytes"),
    ("distclk.shard.rejected", "count"),
    ("distclk.service.queue_ms", "ms"),
    ("distclk.service.engine_first_ms", "ms"),
    ("distclk.service.frames_per_job", "count"),
    ("p2p.hub.job_rtt_ms.p50", "ms"),
    ("p2p.hub.job_rtt_ms.p90", "ms"),
    ("p2p.send_us", "us"),
    ("p2p.recv_us", "us"),
    ("p2p.msgs", "count"),
    ("p2p.wire_bytes", "bytes"),
    ("p2p.codec.decode_ns_per_byte", "ns/byte"),
    ("p2p.stream_bytes_per_job", "bytes"),
    ("obs.trace_overhead_pct", "%"),
];

/// What one run hands back: operation counts, the correctness verdict,
/// metric values by name, and free-form lines printed before the
/// result line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output passed its checks (invalid tours, broken streams and
    /// identity mismatches clear it; a missed target only counts as
    /// failed).
    pub correct: bool,
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a failed check: the run is no longer correct.
    pub fn reject(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }

    /// The single JSON result line: the `metrics` object carries every
    /// name of `names`, missing ones as 0.
    pub fn result_line(&self, names: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Quantile `q` of `values` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Tour length divided by √(n·A), A the area of the instance's bounding
/// box: comparable across instance sizes and seeds.
pub fn len_norm(inst: &Instance, length: i64) -> f64 {
    let (mut x0, mut y0, mut x1, mut y1) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
    for p in inst.points() {
        x0 = x0.min(p.x);
        y0 = y0.min(p.y);
        x1 = x1.max(p.x);
        y1 = y1.max(p.y);
    }
    length as f64 / (inst.len() as f64 * (x1 - x0) * (y1 - y0)).sqrt()
}

/// Check a returned tour: a permutation of the instance's cities whose
/// recomputed length equals the reported one.
pub fn check_tour(inst: &Instance, order: &[u32], reported: i64) -> Result<(), String> {
    if order.len() != inst.len() {
        return Err(format!(
            "tour has {} cities, instance {}",
            order.len(),
            inst.len()
        ));
    }
    let tour = Tour::try_from_order(order.to_vec())?;
    let actual = tour.length(inst);
    if actual != reported {
        return Err(format!("reported length {reported}, recomputed {actual}"));
    }
    Ok(())
}

/// Peak resident set of this process in MB (`VmHWM`; 0 where the
/// kernel does not report it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn result_line_lists_every_name() {
        let mut o = Outcome::new();
        o.set("setup_s", 0.5);
        let line = o.result_line(END_TO_END);
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }
}
