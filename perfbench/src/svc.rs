//! `svc-jobs`: a `distclk::SolverService` with two workers behind the
//! lifecycle hub's `JOB` command on loopback TCP. Two closed-loop
//! clients, one connection each at a time, submit kick-bounded jobs on
//! 1000-city payloads that mix JSON and TSPLIB, uniform and clustered
//! instances.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use distclk::{
    points_to_json, DistConfig, JobPayload, JobSpec, ServiceConfig, ServiceJobHandler,
    SolverService,
};
use obs::Obs;
use p2p::hub::{submit_job, LifecycleHub};
use p2p::{Message, TcpConfig, Topology};
use tsp_core::{generate, Instance};

use crate::clk::{target_length, SIDE};
use crate::probe;
use crate::report::{check_tour, len_norm, mean, median, quantile, Outcome};
use crate::{repeat_rounds, summarize, timed_setup, Op};

pub const CITIES: usize = 1_000;
/// Jobs per round, split evenly over the clients.
pub const JOBS: usize = 100;
pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;
/// CLK-call budget of every job (the first call is the initial LK pass).
pub const CALLS: u64 = 5;
/// `time_to_target_s` threshold on normalised length for the uniform
/// jobs, met by their first streamed tour on every seed; see
/// `perfbench/README.md` for the derivation.
pub const TARGET_NORM: f64 = 0.8000;

/// One prepared job: its submission frame and the instance the service
/// will parse from it (used to check the returned tours).
pub struct Job {
    pub submit: Message,
    pub inst: Instance,
    pub uniform: bool,
}

/// Everything set up before measuring: payloads, the service and the
/// hub in front of it. Fields drop in order: the hub stops and releases
/// its handler's reference to the service before the last reference
/// goes and the service joins its threads.
pub struct Setup {
    pub jobs: Vec<Job>,
    pub addr: SocketAddr,
    _hub: LifecycleHub,
    _service: Arc<SolverService>,
}

/// The service's engine: the paper's per-node defaults.
pub fn engine() -> DistConfig {
    DistConfig::default()
}

/// Job `i` of a round: uniform or clustered (`i / 2` even or odd) and a
/// JSON or TSPLIB payload (`i` even or odd), each on its own instance.
pub fn make_job(seed: u64, i: usize) -> Job {
    let inst_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
    let uniform = (i / 2).is_multiple_of(2);
    let inst = if uniform {
        generate::uniform(CITIES, SIDE, inst_seed)
    } else {
        generate::clustered_dimacs(CITIES, inst_seed)
    };
    let payload = if i.is_multiple_of(2) {
        let pts: Vec<(f64, f64)> = inst.points().iter().map(|p| (p.x, p.y)).collect();
        JobPayload::Json(points_to_json(&pts))
    } else {
        JobPayload::Tsplib(tsp_core::tsplib::write_instance(&inst))
    };
    let inst = payload.parse().expect("generated payloads parse");
    let spec = JobSpec::new(payload).seed(i as u64).kicks(CALLS);
    Job {
        submit: spec.to_submit(0),
        inst,
        uniform,
    }
}

pub fn setup(seed: u64) -> Setup {
    let jobs = (0..JOBS).map(|i| make_job(seed, i)).collect();
    let service = Arc::new(SolverService::start(ServiceConfig {
        workers: WORKERS,
        engine: engine(),
        // Admission never refuses a benchmark client.
        default_limit: u64::MAX,
        ..ServiceConfig::default()
    }));
    let hub = LifecycleHub::start("127.0.0.1:0", 1, Topology::Ring).expect("bind the hub");
    ServiceJobHandler::attach(Arc::clone(&service), &hub);
    Setup {
        jobs,
        addr: hub.addr(),
        _hub: hub,
        _service: service,
    }
}

/// One job as the client saw it, times in seconds from the submit call.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    pub accept_s: Option<f64>,
    pub first_s: Option<f64>,
    pub target_s: Option<f64>,
    pub done_s: f64,
    pub frames: u64,
    /// Bytes on the job's connection after the submit (traced runs).
    pub stream_bytes: u64,
    /// Frame payload bytes whose decode was timed (traced runs).
    pub decoded_bytes: u64,
    /// `JobDone` reason code (0 = kick budget ran out).
    pub reason: Option<u8>,
    pub length: i64,
    pub order: Vec<u32>,
    /// Submit refused, stream broken or stream out of protocol.
    pub error: Option<String>,
}

/// Submit one job and drain its stream. With a live `obs` every phase
/// of the job is a span and each received frame is re-encoded and its
/// decode timed (`p2p::codec`), without touching the stream.
pub fn run_job(addr: SocketAddr, client: u64, job: &Job, obs: &Obs) -> JobRecord {
    let tcp = TcpConfig::default();
    let target = target_length(&job.inst, TARGET_NORM);
    let mut submit = job.submit.clone();
    if let Message::JobSubmit { client: c, .. } = &mut submit {
        *c = client;
    }
    let mut rec = JobRecord::default();
    let t0 = Instant::now();
    let root = obs.span("svc.job");
    let phase = root.child("p2p.hub.submit_job");
    let submitted = submit_job(addr, &submit, &tcp);
    phase.end();
    let (id, mut stream) = match submitted {
        Ok(s) => s,
        Err(e) => {
            rec.error = Some(format!("submit: {e}"));
            return rec;
        }
    };
    rec.stream_bytes = format!("OK {id}\n").len() as u64;
    let mut phase = root.child("distclk.service.queue");
    let mut last = i64::MAX;
    loop {
        let frame = match stream.next_frame() {
            Ok(f) => f,
            Err(e) => {
                rec.error = Some(format!("stream: {e}"));
                break;
            }
        };
        let t = t0.elapsed().as_secs_f64();
        rec.frames += 1;
        let mut done = false;
        match &frame {
            Message::JobAccept { .. } if rec.accept_s.is_none() => {
                rec.accept_s = Some(t);
                phase.end();
                phase = root.child("distclk.service.engine_first");
            }
            Message::JobImproved { length, .. } if rec.accept_s.is_some() => {
                if *length >= last {
                    rec.error = Some(format!(
                        "stream not strictly improving: {length} after {last}"
                    ));
                }
                last = *length;
                if rec.first_s.is_none() {
                    rec.first_s = Some(t);
                    phase.end();
                    phase = root.child("distclk.service.stream");
                }
                if job.uniform && rec.target_s.is_none() && *length <= target {
                    rec.target_s = Some(t);
                }
            }
            Message::JobDone {
                reason,
                length,
                order,
                ..
            } => {
                rec.done_s = t;
                rec.reason = Some(*reason);
                rec.length = *length;
                rec.order = order.clone();
                // The round that exhausts the budget is not streamed as
                // `JobImproved`; its tour arrives with `JobDone` only.
                if rec.first_s.is_none() || *length > last {
                    rec.error = Some(format!("JobDone carries {length} after streaming {last}"));
                }
                done = true;
            }
            other => rec.error = Some(format!("unexpected frame {other:?}")),
        }
        if obs.is_live() {
            let bytes = p2p::codec::encode(&frame);
            rec.stream_bytes += bytes.len() as u64;
            rec.decoded_bytes += bytes.len() as u64 - 4;
            let span = phase.child("p2p.codec.decode");
            let decoded = p2p::codec::decode(std::hint::black_box(&bytes[4..]));
            span.end();
            if !matches!(decoded, Ok(ref m) if *m == frame) {
                rec.error = Some("frame does not survive a codec round trip".into());
            }
        }
        if done || rec.error.is_some() {
            break;
        }
    }
    phase.end();
    root.end();
    rec
}

/// One round: every job once, the clients in parallel, each working
/// through its share of the jobs in a closed loop.
pub fn round(setup: &Setup, obs: &Obs) -> (Vec<JobRecord>, f64) {
    let t0 = Instant::now();
    let mut records: Vec<(usize, JobRecord)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    (c..setup.jobs.len())
                        .step_by(CLIENTS)
                        .map(|i| (i, run_job(setup.addr, c as u64 + 1, &setup.jobs[i], obs)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    records.sort_by_key(|(i, _)| *i);
    (records.into_iter().map(|(_, r)| r).collect(), wall)
}

/// Check every job of a round; a job that failed but returned nothing
/// wrong counts in `failed`, a wrong output clears `correct`.
fn check_round(setup: &Setup, recs: &[JobRecord], reference: &[JobRecord], out: &mut Outcome) {
    for (i, (rec, job)) in recs.iter().zip(&setup.jobs).enumerate() {
        out.attempted += 1;
        match (&rec.error, rec.reason) {
            (Some(e), _) if e.starts_with("submit") => {
                out.failed += 1;
                out.notes.push(format!("job {i}: {e}"));
                continue;
            }
            (Some(e), _) => {
                out.failed += 1;
                out.reject(format!("job {i}: {e}"));
                continue;
            }
            (None, Some(0)) => {}
            (None, reason) => {
                out.failed += 1;
                out.notes
                    .push(format!("job {i}: ended with reason {reason:?}"));
            }
        }
        if let Err(e) = check_tour(&job.inst, &rec.order, rec.length) {
            out.reject(format!("job {i}: {e}"));
        }
        if job.uniform && rec.target_s.is_none() {
            out.failed += 1;
        }
        if rec.order != reference[i].order {
            out.reject(format!(
                "job {i}: tour differs from round 0 under the same seed"
            ));
        }
    }
}

fn kicks_per_job() -> u64 {
    (CALLS - 1) * engine().clk_kicks_per_call
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new();
    let setup = timed_setup(&mut out, || setup(seed));
    if trace {
        traced_run(&setup, &mut out);
        return out;
    }
    let off = Obs::disabled();
    let (rounds, wall_s) = repeat_rounds(seconds, |_| round(&setup, &off));
    for (recs, _) in &rounds {
        check_round(&setup, recs, &rounds[0].0, &mut out);
    }
    let ops: Vec<Op> = rounds
        .iter()
        .flat_map(|(recs, _)| recs)
        .filter(|r| r.error.is_none())
        .map(|r| Op {
            accept_s: r.accept_s.unwrap_or(r.done_s),
            first_s: r.first_s.unwrap_or(r.done_s),
            done_s: r.done_s,
            target_s: r.target_s,
            kicks: kicks_per_job(),
        })
        .collect();
    let solves: Vec<f64> = rounds.iter().map(|r| r.1).collect();
    summarize(&mut out, &ops, &solves, wall_s, wall_s);
    let norms: Vec<f64> = rounds[0]
        .0
        .iter()
        .zip(&setup.jobs)
        .map(|(r, j)| len_norm(&j.inst, r.length))
        .collect();
    out.set("len_norm", mean(&norms));
    out
}

fn traced_run(setup: &Setup, out: &mut Outcome) {
    let (reference, untraced_s) = round(setup, &Obs::disabled());
    check_round(setup, &reference, &reference, out);
    let obs = probe::recorder();
    let (recs, traced_s) = round(setup, &obs);
    check_round(setup, &recs, &reference, out);

    // The per-job engine work inside the service, replayed on the job
    // instances outside the round: candidate build, construction and
    // the first full LK pass.
    let probe_span = obs.span("svc.engine_probe");
    for (i, job) in setup.jobs.iter().enumerate() {
        let mut cfg = engine().clk;
        cfg.seed = i as u64;
        let span = probe_span.child("tsp_core.neighbors.build");
        let neighbors = cfg.build_neighbors(&job.inst);
        span.end();
        let mut clk = lk::ClkEngine::auto(&job.inst, &neighbors, cfg);
        let span = probe_span.child("lk.construct");
        let mut tour = clk.construct_tour();
        span.end();
        let span = probe_span.child("lk.optimize");
        std::hint::black_box(clk.optimize_tour(&mut tour));
        span.end();
    }
    probe_span.end();

    let spans = probe::finish_trace(&obs, "svc-jobs", out);
    let get = |k: &str| spans.get(k).cloned().unwrap_or_default();
    let jobs = recs.len() as f64;
    let per_job_ms = |k: &str| get(k).total_ns as f64 / jobs / 1e6;
    let rtt = get("p2p.hub.submit_job");
    let decode = get("p2p.codec.decode");
    let total = |f: fn(&JobRecord) -> u64| recs.iter().map(f).sum::<u64>() as f64;
    out.set(
        "tsp_core.neighbors.build_ms",
        per_job_ms("tsp_core.neighbors.build"),
    );
    out.set("lk.construct_ms", per_job_ms("lk.construct"));
    out.set("lk.optimize_ms", per_job_ms("lk.optimize"));
    out.set(
        "distclk.service.queue_ms",
        per_job_ms("distclk.service.queue"),
    );
    out.set(
        "distclk.service.engine_first_ms",
        per_job_ms("distclk.service.engine_first"),
    );
    out.set("distclk.service.frames_per_job", total(|r| r.frames) / jobs);
    out.set("p2p.hub.job_rtt_ms.p50", rtt.quantile_ns(0.5) / 1e6);
    out.set("p2p.hub.job_rtt_ms.p90", rtt.quantile_ns(0.9) / 1e6);
    out.set(
        "p2p.codec.decode_ns_per_byte",
        decode.total_ns as f64 / total(|r| r.decoded_bytes),
    );
    out.set("p2p.stream_bytes_per_job", total(|r| r.stream_bytes) / jobs);
    out.set(
        "obs.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );

    let job_ns = get("svc.job").total_ns;
    for (layer, ns, predicts) in [
        ("p2p.hub.job_rtt_ms", rtt.self_ns, "accept_ms.*@svc-jobs"),
        (
            "distclk.service.queue_ms",
            get("distclk.service.queue").self_ns,
            "accept_ms.*@svc-jobs",
        ),
        (
            "distclk.service.engine_first_ms",
            get("distclk.service.engine_first").self_ns,
            "first_tour_ms.*@svc-jobs",
        ),
        ("p2p.codec.decode", decode.total_ns, "job_ms.*@svc-jobs"),
        (
            "tsp_core.neighbors.build_ms (replayed)",
            get("tsp_core.neighbors.build").total_ns,
            "first_tour_ms.*@svc-jobs",
        ),
        (
            "lk.construct_ms (replayed)",
            get("lk.construct").total_ns,
            "first_tour_ms.*@svc-jobs",
        ),
        (
            "lk.optimize_ms (replayed)",
            get("lk.optimize").total_ns,
            "first_tour_ms.*@svc-jobs",
        ),
    ] {
        out.notes
            .push(probe::share_line(layer, ns, job_ns, predicts));
    }
    let job_ms: Vec<f64> = recs.iter().map(|r| 1e3 * r.done_s).collect();
    out.notes.push(format!(
        "traced round {traced_s:.2} s, untraced {untraced_s:.2} s; job_ms p50 {:.1}, p90 {:.1}, median first tour {:.1} ms",
        median(&job_ms),
        quantile(&job_ms, 0.9),
        median(&recs.iter().filter_map(|r| r.first_s).map(|s| 1e3 * s).collect::<Vec<_>>())
    ));
}
