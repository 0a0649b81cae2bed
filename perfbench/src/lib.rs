//! Time-to-quality benchmark of the dist-clk solver.
//!
//! Four workloads drive the solver through its public API only:
//! single-node CLK (`clk-e50k`), 8-node DistCLK in lockstep
//! (`dist8-e2k`), the sharded pipeline (`shard-e200k`) and the job
//! service behind the hub's TCP `JOB` command (`svc-jobs`). Work is
//! bounded by kicks and CLK calls, never by wall clock, so the quality
//! metrics repeat exactly and the time metrics measure speed only.
//!
//! An untraced run prints the end-to-end metrics; a traced run replays
//! the same operation through wrappers and spans from this package (no
//! tracing inside the solver) and prints the per-layer metrics. See
//! `perfbench/README.md`.

pub mod clk;
pub mod dist8;
pub mod probe;
pub mod report;
pub mod shard;
pub mod svc;

use std::time::Instant;

use tsp_core::Instance;

use report::{median, quantile, Outcome};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["clk-e50k", "dist8-e2k", "shard-e200k", "svc-jobs"];

/// Set-up repeats at least this often and for at least
/// [`SETUP_MIN_SECONDS`], at most [`SETUP_MAX_REPS`] times; `setup_s`
/// is the median.
pub const SETUP_MIN_REPS: usize = 5;
pub const SETUP_MIN_SECONDS: f64 = 0.25;
pub const SETUP_MAX_REPS: usize = 1000;

/// Run one workload.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    Some(match workload {
        "clk-e50k" => clk::run(seed, seconds, trace),
        "dist8-e2k" => dist8::run(seed, seconds, trace),
        "shard-e200k" => shard::run(seed, seconds, trace),
        "svc-jobs" => svc::run(seed, seconds, trace),
        _ => return None,
    })
}

/// An instance as a user loads it: written as TSPLIB text and parsed
/// back with `tsp_core::tsplib`. The writer keeps every coordinate
/// digit, so the parsed instance equals the generated one.
pub fn load(generated: Instance) -> Instance {
    tsp_core::tsplib::parse_instance(&tsp_core::tsplib::write_instance(&generated))
        .expect("a generated instance survives the TSPLIB round trip")
}

/// Run `setup` repeatedly (see [`SETUP_MIN_REPS`]), report the median
/// time as `setup_s`, and keep the last result. Earlier results are
/// dropped before the next repetition starts (a service must release
/// its threads first).
pub fn timed_setup<T>(out: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let mut times = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&times));
    last.expect("at least one set-up")
}

/// Run `round` (the workload's fixed operation set) once, then again
/// while another round, as long as the longest so far, still ends
/// within `seconds`. Returns each round's result and the measured wall
/// time. Rounds repeat the same inputs and seeds, so every round after
/// the first must reproduce the first exactly.
pub fn repeat_rounds<R>(seconds: f64, mut round: impl FnMut(usize) -> R) -> (Vec<R>, f64) {
    let t = Instant::now();
    let mut out = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let r = Instant::now();
        out.push(round(out.len()));
        longest = longest.max(r.elapsed().as_secs_f64());
        if t.elapsed().as_secs_f64() + longest > seconds {
            return (out, t.elapsed().as_secs_f64());
        }
    }
}

/// Timings of one end-to-end operation (a solve, or a service job), in
/// seconds from the moment the instance is handed over.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// The solver accepted the work: candidate lists built, or the
    /// service's `JobAccept`.
    pub accept_s: f64,
    /// The first complete tour was available.
    pub first_s: f64,
    /// The budget ran out and the final tour was returned.
    pub done_s: f64,
    /// The best tour first reached the workload's target, if it did and
    /// the target applies to this operation.
    pub target_s: Option<f64>,
    /// Kicks spent.
    pub kicks: u64,
}

/// Fill the end-to-end metrics shared by every workload from its
/// operations. `solve_s` holds one sample per solve (per round of jobs
/// for the service); `busy_s` is the time the kicks were spent in.
pub fn summarize(out: &mut Outcome, ops: &[Op], solve_s: &[f64], wall_s: f64, busy_s: f64) {
    let ms = |f: fn(&Op) -> f64| ops.iter().map(|o| 1e3 * f(o)).collect::<Vec<_>>();
    let accept = ms(|o| o.accept_s);
    let first = ms(|o| o.first_s);
    let done = ms(|o| o.done_s);
    let targets: Vec<f64> = ops.iter().filter_map(|o| o.target_s).collect();
    let kicks: u64 = ops.iter().map(|o| o.kicks).sum();
    out.set("solve_s", median(solve_s));
    out.set("time_to_target_s", median(&targets));
    out.set("kicks_per_s", kicks as f64 / busy_s);
    out.set("peak_rss_mb", report::peak_rss_mb());
    out.set(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("accept_ms.p50", quantile(&accept, 0.5));
    out.set("accept_ms.p90", quantile(&accept, 0.9));
    out.set("first_tour_ms.p50", quantile(&first, 0.5));
    out.set("first_tour_ms.p90", quantile(&first, 0.9));
    out.set("job_ms.p50", quantile(&done, 0.5));
    out.set("job_ms.p90", quantile(&done, 0.9));
    out.set("jobs_per_s", ops.len() as f64 / wall_s);
    let samples: Vec<String> = solve_s.iter().map(|s| format!("{s:.3}")).collect();
    out.notes.push(format!(
        "{} operations in {wall_s:.2} s; {} reached the target; solve_s samples {}",
        ops.len(),
        targets.len(),
        samples.join(" ")
    ));
}
