//! Solver-as-a-service: a long-lived, multi-tenant job layer over the
//! cluster (the ROADMAP's top open item).
//!
//! The paper's system solves one instance per cluster bring-up; this
//! module makes the cluster outlive any single job. A persistent
//! [`SolverService`] runs one supervisor thread. Clients submit a
//! [`JobSpec`] — TSPLIB or JSON payload plus a deadline and/or quality
//! budget — and receive a [`JobHandle`] streaming strictly improving
//! tours back as they are found (anytime semantics), terminated by a
//! single [`JobUpdate::Done`].
//!
//! Design points:
//!
//! - **Per-job engine state.** The [`crate::NodeDriver`] stays borrowed
//!   to one instance for its lifetime; the decoupling happens one layer
//!   up. [`SolverService::submit`] parses the payload once, on the
//!   caller's thread, and the supervisor starts the job's own solve
//!   thread with that [`Instance`], its candidate lists and a fresh
//!   single-node driver. The thread reports every improvement and its
//!   end on the supervisor's one inbox; the supervisor relays them to
//!   the client. A worker is a placement label and a failure domain,
//!   not a thread: it carries any number of concurrent jobs.
//! - **Wire protocol.** Clients reach the service over TCP through the
//!   lifecycle hub's `JOB` command ([`ServiceJobHandler`]) as the five
//!   `Job*` frames (codec tags 12–16), with ids minted by
//!   [`p2p::job_id`]`(client, seq)` after the broadcast-id template.
//! - **Churn survival.** The supervisor remembers each job's last
//!   streamed best; when a worker dies ([`SolverService::kill_worker`])
//!   its jobs move to survivors, each resuming from that tour
//!   ([`crate::NodeDriver::restore`] revalidates it). The kick budget
//!   restarts on the new worker but the absolute deadline is
//!   preserved.
//! - **Fairness.** Admission charges a per-client [`FlowBudget`] in a
//!   [`FlowLedger`] before any effect, the semilattice flow-budget
//!   idiom: `spent` merges by max (join), `limit` by min (meet), so
//!   ledger replicas merge like the CRDT membership log and a failover
//!   can never *refund* a tenant.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use lk::Budget;
use obs_api::{kinds, Obs, Value};
use p2p::codec::write_frame;
use p2p::hub::JobHandler;
use p2p::memory::MemoryEndpoint;
use p2p::{job_id, InMemoryNetwork, Message, NetError, NodeId};
use tsp_core::{Instance, Point};

use crate::node::{DistConfig, NodeDriver};

// ---------------------------------------------------------------------------
// Terminal reasons
// ---------------------------------------------------------------------------

/// Why a job reached its terminal [`JobUpdate::Done`]. The `u8` codes
/// are the wire values carried by `JobDone`/`JobCancel` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoneReason {
    /// The kick budget ran out (code 0).
    Budget,
    /// The quality target was reached (code 1).
    Target,
    /// The deadline expired (code 2).
    Deadline,
    /// The client cancelled the job (code 3).
    Cancelled,
}

impl DoneReason {
    /// Wire code (must stay within `p2p::codec`'s `MAX_JOB_REASON`).
    pub fn code(self) -> u8 {
        match self {
            DoneReason::Budget => 0,
            DoneReason::Target => 1,
            DoneReason::Deadline => 2,
            DoneReason::Cancelled => 3,
        }
    }

    /// Human-readable name (reports, logs).
    pub fn label(self) -> &'static str {
        match self {
            DoneReason::Budget => "budget",
            DoneReason::Target => "target",
            DoneReason::Deadline => "deadline",
            DoneReason::Cancelled => "cancelled",
        }
    }

    /// Decode a wire code (total over the codec-validated range).
    pub fn from_code(code: u8) -> DoneReason {
        match code {
            1 => DoneReason::Target,
            2 => DoneReason::Deadline,
            3 => DoneReason::Cancelled,
            _ => DoneReason::Budget,
        }
    }
}

// ---------------------------------------------------------------------------
// Payloads and specs
// ---------------------------------------------------------------------------

/// A job's instance payload, in one of the two accepted formats.
#[derive(Debug, Clone, PartialEq)]
pub enum JobPayload {
    /// TSPLIB text (wire `payload_kind` 1), parsed by
    /// [`tsp_core::tsplib::parse_instance`].
    Tsplib(String),
    /// A bare JSON array of `[x, y]` coordinate pairs (wire
    /// `payload_kind` 2), e.g. `[[0,0],[3.5,1],[2,4]]`. EUC_2D metric.
    Json(String),
}

impl JobPayload {
    /// Wire `payload_kind` code.
    pub fn kind(&self) -> u8 {
        match self {
            JobPayload::Tsplib(_) => 1,
            JobPayload::Json(_) => 2,
        }
    }

    /// Raw payload bytes for the wire frame.
    pub fn bytes(&self) -> &[u8] {
        match self {
            JobPayload::Tsplib(s) | JobPayload::Json(s) => s.as_bytes(),
        }
    }

    /// Rebuild from wire fields.
    pub fn from_wire(kind: u8, payload: &[u8]) -> Result<JobPayload, String> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| "payload is not UTF-8".to_string())?
            .to_string();
        match kind {
            1 => Ok(JobPayload::Tsplib(text)),
            2 => Ok(JobPayload::Json(text)),
            k => Err(format!("unknown payload kind {k}")),
        }
    }

    /// Parse into an [`Instance`]. Total: malformed payloads (including
    /// fewer than 3 cities, which `Instance::new` would panic on, and
    /// coordinates so large that a tour length could overflow `i64`)
    /// come back as `Err`, never a panic — this is the admission filter
    /// for adversarial submissions.
    pub fn parse(&self) -> Result<Instance, String> {
        match self {
            JobPayload::Tsplib(text) => {
                tsp_core::tsplib::parse_instance(text).map_err(|e| format!("tsplib: {e}"))
            }
            JobPayload::Json(text) => {
                let pts = parse_json_points(text)?;
                if pts.len() < 3 {
                    return Err(format!("need at least 3 cities, got {}", pts.len()));
                }
                let inst = Instance::new(
                    "json-job",
                    pts.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
                    tsp_core::Metric::Euc2d,
                );
                inst.check_tour_length_bound().map_err(|e| e.to_string())?;
                Ok(inst)
            }
        }
    }
}

/// Minimal hand parser for the JSON points payload: a single array of
/// two-element number arrays. No vendored JSON dependency exists, and
/// the grammar is small enough that total, panic-free rejection of
/// garbage is easy to audit.
fn parse_json_points(text: &str) -> Result<Vec<(f64, f64)>, String> {
    let mut chars = text.chars().peekable();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    };
    let number = |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<f64, String> {
        let mut buf = String::new();
        while chars
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        {
            buf.push(chars.next().unwrap());
        }
        buf.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("bad number {buf:?}"))
    };
    skip_ws(&mut chars);
    if chars.next() != Some('[') {
        return Err("expected '[' opening the point list".into());
    }
    let mut pts = Vec::new();
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some(']') => {
                chars.next();
                break;
            }
            Some('[') => {
                chars.next();
                skip_ws(&mut chars);
                let x = number(&mut chars)?;
                skip_ws(&mut chars);
                if chars.next() != Some(',') {
                    return Err("expected ',' between coordinates".into());
                }
                skip_ws(&mut chars);
                let y = number(&mut chars)?;
                skip_ws(&mut chars);
                if chars.next() != Some(']') {
                    return Err("expected ']' closing a point".into());
                }
                pts.push((x, y));
                skip_ws(&mut chars);
                match chars.peek() {
                    Some(',') => {
                        chars.next();
                        skip_ws(&mut chars);
                        if chars.peek() != Some(&'[') {
                            return Err("trailing comma in point list".into());
                        }
                    }
                    Some(']') => {}
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
            other => return Err(format!("expected '[' or ']', got {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing garbage after point list".into());
    }
    Ok(pts)
}

/// Serialize points to the JSON payload format (the inverse of
/// [`JobPayload::Json`] parsing; used by tests and the bench client).
pub fn points_to_json(pts: &[(f64, f64)]) -> String {
    let body: Vec<String> = pts.iter().map(|(x, y)| format!("[{x},{y}]")).collect();
    format!("[{}]", body.join(","))
}

/// Everything a client states about a solve job. At least one bound
/// (kicks, deadline, or target) should be set; unbounded submissions
/// are capped at [`ServiceConfig::default_kicks`] on admission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Engine master seed (bit-reproducible runs; see the conformance
    /// test).
    pub seed: u64,
    /// CLK-call budget (`None` = unbounded on the wire).
    pub kicks: Option<u64>,
    /// Wall-clock deadline, measured from admission.
    pub deadline: Option<Duration>,
    /// Stop as soon as a tour of this length (or shorter) is found.
    pub target: Option<i64>,
    /// The instance.
    pub payload: JobPayload,
}

impl JobSpec {
    /// Spec with no bounds set (admission applies the default cap).
    pub fn new(payload: JobPayload) -> Self {
        JobSpec {
            seed: 0,
            kicks: None,
            deadline: None,
            target: None,
            payload,
        }
    }

    /// Set the engine seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bound the job by CLK calls.
    pub fn kicks(mut self, kicks: u64) -> Self {
        self.kicks = Some(kicks);
        self
    }

    /// Bound the job by wall clock.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Stop at this quality target.
    pub fn target(mut self, length: i64) -> Self {
        self.target = Some(length);
        self
    }

    /// Encode as a `JobSubmit` frame (`from`/`job` zero: the service
    /// assigns the id).
    pub fn to_submit(&self, client: u64) -> Message {
        Message::JobSubmit {
            from: 0,
            job: 0,
            client,
            seed: self.seed,
            kicks: self.kicks.unwrap_or(0),
            deadline_ms: self
                .deadline
                .map(|d| (d.as_millis() as u64).max(1))
                .unwrap_or(0),
            target: self.target.unwrap_or(i64::MIN),
            payload_kind: self.payload.kind(),
            payload: self.payload.bytes().to_vec(),
        }
    }

    /// Decode a `JobSubmit` frame into `(client, spec)`.
    pub fn from_submit(msg: &Message) -> Result<(u64, JobSpec), String> {
        let Message::JobSubmit {
            client,
            seed,
            kicks,
            deadline_ms,
            target,
            payload_kind,
            payload,
            ..
        } = msg
        else {
            return Err("not a JobSubmit frame".into());
        };
        Ok((
            *client,
            JobSpec {
                seed: *seed,
                kicks: (*kicks > 0).then_some(*kicks),
                deadline: (*deadline_ms > 0).then(|| Duration::from_millis(*deadline_ms)),
                target: (*target != i64::MIN).then_some(*target),
                payload: JobPayload::from_wire(*payload_kind, payload)?,
            },
        ))
    }
}

// ---------------------------------------------------------------------------
// Fairness ledger (semilattice flow budget)
// ---------------------------------------------------------------------------

/// One tenant's flow budget: a join-semilattice pair. `spent` only
/// grows (merge = max), `limit` only shrinks (merge = min), so merging
/// replicas is idempotent, commutative, and associative — the same
/// monotonicity discipline as the CRDT membership log it travels with,
/// and a merge after failover can never hand a tenant budget back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowBudget {
    /// Cumulative admission cost charged to this tenant.
    pub spent: u64,
    /// Ceiling; admission fails once `spent + cost > limit`.
    pub limit: u64,
}

impl FlowBudget {
    /// Fresh budget with nothing spent.
    pub fn with_limit(limit: u64) -> Self {
        FlowBudget { spent: 0, limit }
    }

    /// Semilattice merge: join on `spent`, meet on `limit`.
    pub fn join(self, other: FlowBudget) -> FlowBudget {
        FlowBudget {
            spent: self.spent.max(other.spent),
            limit: self.limit.min(other.limit),
        }
    }

    /// Charge `cost` against the budget, *before* any effect of the
    /// admission. `false` leaves the budget untouched.
    pub fn charge(&mut self, cost: u64) -> bool {
        if self.spent.saturating_add(cost) > self.limit {
            return false;
        }
        self.spent += cost;
        true
    }

    /// Admission headroom left.
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.spent)
    }
}

/// The per-client fairness ledger: tenant id → [`FlowBudget`]. Absent
/// tenants are implicitly `{spent: 0, limit: default_limit}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowLedger {
    entries: BTreeMap<u64, FlowBudget>,
    default_limit: u64,
}

impl FlowLedger {
    /// Empty ledger; unseen tenants get `default_limit`.
    pub fn new(default_limit: u64) -> Self {
        FlowLedger {
            entries: BTreeMap::new(),
            default_limit,
        }
    }

    /// Charge a tenant (materializing its entry on first contact).
    /// Charging happens before the corresponding effect; a `false`
    /// return must abort the admission.
    pub fn charge(&mut self, client: u64, cost: u64) -> bool {
        let default_limit = self.default_limit;
        self.entries
            .entry(client)
            .or_insert_with(|| FlowBudget::with_limit(default_limit))
            .charge(cost)
    }

    /// Read a tenant's budget (the implicit default when unseen).
    pub fn get(&self, client: u64) -> FlowBudget {
        self.entries
            .get(&client)
            .copied()
            .unwrap_or(FlowBudget::with_limit(self.default_limit))
    }

    /// Pin a tenant's limit (meet: it can only shrink the effective
    /// ceiling when merged with replicas).
    pub fn set_limit(&mut self, client: u64, limit: u64) {
        let e = self
            .entries
            .entry(client)
            .or_insert_with(|| FlowBudget::with_limit(limit));
        e.limit = e.limit.min(limit);
    }

    /// Semilattice merge with another replica (entry-wise
    /// [`FlowBudget::join`]; the default limit meets too).
    pub fn merge(&mut self, other: &FlowLedger) {
        self.default_limit = self.default_limit.min(other.default_limit);
        for (&client, &budget) in &other.entries {
            let e = self
                .entries
                .entry(client)
                .or_insert_with(|| FlowBudget::with_limit(budget.limit));
            *e = e.join(budget);
        }
    }
}

// ---------------------------------------------------------------------------
// Service configuration and client-facing types
// ---------------------------------------------------------------------------

/// Configuration of a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker count. Workers (ids `1..=workers`) are placement labels
    /// and failure domains for [`SolverService::kill_worker`]; each job
    /// runs on its own thread, so they do not bound concurrency.
    pub workers: usize,
    /// Engine template: `clk`, `c_v`/`c_r`, perturbation settings.
    /// Per-job fields (`nodes`, `seed`, `budget`) are overridden from
    /// each [`JobSpec`]; everything else applies to all jobs.
    pub engine: DistConfig,
    /// Fairness: default per-client admission budget, in jobs.
    pub default_limit: u64,
    /// Kick cap applied to submissions that set no bound at all.
    pub default_kicks: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            engine: DistConfig::default(),
            default_limit: 64,
            default_kicks: 64,
        }
    }
}

/// One update on a job's result stream. Lengths are monotone
/// non-increasing across the `Improved` updates of one job, and `Done`
/// is terminal.
#[derive(Debug, Clone, PartialEq)]
pub enum JobUpdate {
    /// The supervisor placed the job on a worker.
    Accepted {
        /// Worker node id.
        worker: NodeId,
    },
    /// A strictly better tour was found.
    Improved {
        /// Tour length.
        length: i64,
        /// City order.
        order: Vec<u32>,
    },
    /// Terminal state; no further updates follow.
    Done {
        /// Why the job ended.
        reason: DoneReason,
        /// Best length found (`i64::MAX` if no tour was ever produced).
        length: i64,
        /// Best tour found (empty if none).
        order: Vec<u32>,
    },
}

/// Client half of an accepted job: the assigned id plus the live
/// update stream.
pub struct JobHandle {
    id: u64,
    updates: Receiver<JobUpdate>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish()
    }
}

impl JobHandle {
    /// The scheduler-assigned job id ([`p2p::job_id`] of client and
    /// per-client sequence number).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block for the next update; `None` once the stream is closed
    /// (after `Done`, or if the service shut down).
    pub fn recv(&self) -> Option<JobUpdate> {
        self.updates.recv().ok()
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Option<JobUpdate> {
        self.updates.try_recv().ok()
    }

    /// Drain the stream to its terminal update, returning
    /// `(reason, best length, best order)` — plus every improvement
    /// seen on the way, for stream-shape assertions.
    #[allow(clippy::type_complexity)]
    pub fn wait(self) -> Option<(DoneReason, i64, Vec<u32>, Vec<i64>)> {
        let mut improvements = Vec::new();
        while let Some(update) = self.recv() {
            match update {
                JobUpdate::Accepted { .. } => {}
                JobUpdate::Improved { length, .. } => improvements.push(length),
                JobUpdate::Done {
                    reason,
                    length,
                    order,
                } => return Some((reason, length, order, improvements)),
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Supervisor internals
// ---------------------------------------------------------------------------

/// Admission cost of one job: the flow budget counts jobs.
const JOB_COST: u64 = 1;

/// How long past a job's deadline the supervisor waits for the solve
/// thread's own expiry before force-finishing the job itself (the
/// backstop that guarantees clean expiry even if a solve thread is
/// wedged).
const DEADLINE_GRACE: Duration = Duration::from_secs(2);

/// Everything the supervisor reacts to, on one channel: client
/// commands from [`SolverService`] and the reports of solve threads.
enum Command {
    Submit {
        client: u64,
        spec: JobSpec,
        /// The payload, parsed on the submitting thread.
        inst: Result<Arc<Instance>, String>,
        reply: Sender<Result<(u64, Receiver<JobUpdate>), String>>,
    },
    Cancel {
        job: u64,
    },
    WorkerDead {
        worker: NodeId,
    },
    MergeLedger {
        other: FlowLedger,
    },
    Ledger {
        reply: Sender<FlowLedger>,
    },
    Shutdown,
    /// A solve thread on `worker` found a strictly better tour.
    Improved {
        worker: NodeId,
        job: u64,
        length: i64,
        order: Vec<u32>,
    },
    /// A solve thread on `worker` stopped, with its best tour.
    Finished {
        worker: NodeId,
        job: u64,
        reason: DoneReason,
        length: i64,
        order: Vec<u32>,
    },
}

struct JobState {
    inst: Arc<Instance>,
    /// The service's engine template with this job's seed and bounds.
    engine: DistConfig,
    worker: NodeId,
    deadline: Option<Instant>,
    /// Stops the job's current solve thread.
    cancel: Arc<CancelSlot>,
    best: Option<(i64, Vec<u32>)>,
    subscriber: Sender<JobUpdate>,
}

struct Supervisor {
    inbox: Receiver<Command>,
    /// Handed to every solve thread for its reports.
    reports: Sender<Command>,
    cfg: ServiceConfig,
    obs: Obs,
    ledger: FlowLedger,
    jobs: HashMap<u64, JobState>,
    /// Per-client sequence numbers for id minting.
    seqs: HashMap<u64, u32>,
    /// Live workers (dead ones are removed, never revived — the
    /// service keeps running degraded, like the paper's topology
    /// "degenerating" near the end of a run).
    alive: Vec<NodeId>,
    load: HashMap<NodeId, usize>,
}

impl Supervisor {
    fn run(mut self) {
        loop {
            let next = match self.check_deadlines() {
                Some(wait) => self.inbox.recv_timeout(wait),
                None => self
                    .inbox
                    .recv()
                    .map_err(|_| RecvTimeoutError::Disconnected),
            };
            match next {
                Ok(Command::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Ok(cmd) => self.on_command(cmd),
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
        // Terminal updates for anything still in flight, so client
        // streams end cleanly instead of hanging on a dropped channel.
        let jobs: Vec<u64> = self.jobs.keys().copied().collect();
        for job in jobs {
            self.finish_job(job, DoneReason::Cancelled, None);
        }
    }

    fn on_command(&mut self, cmd: Command) {
        match cmd {
            Command::Submit {
                client,
                spec,
                inst,
                reply,
            } => {
                let _ = reply.send(self.admit(client, spec, inst));
            }
            Command::Cancel { job } => {
                if let Some(state) = self.jobs.get(&job) {
                    state.cancel.set(DoneReason::Cancelled);
                }
            }
            Command::WorkerDead { worker } => self.on_worker_dead(worker),
            Command::MergeLedger { other } => self.ledger.merge(&other),
            Command::Ledger { reply } => {
                let _ = reply.send(self.ledger.clone());
            }
            Command::Shutdown => {}
            // A report from a thread that no longer owns its job (its
            // worker was killed and the job moved) is dropped, so a
            // killed worker's late tours never reach the client.
            Command::Improved {
                worker,
                job,
                length,
                order,
            } => {
                let Some(state) = self.jobs.get_mut(&job).filter(|s| s.worker == worker) else {
                    return;
                };
                // Relay only strict improvements over the tracked best:
                // a reassigned job restarts from its last streamed tour
                // and may re-announce it. This filter is what makes the
                // client stream strictly decreasing unconditionally.
                if state.best.as_ref().is_none_or(|(l, _)| length < *l) {
                    state.best = Some((length, order.clone()));
                    let _ = state.subscriber.send(JobUpdate::Improved { length, order });
                    self.obs.counter(kinds::C_SVC_IMPROVEMENTS).incr();
                }
            }
            Command::Finished {
                worker,
                job,
                reason,
                length,
                order,
            } => {
                if self.jobs.get(&job).is_some_and(|s| s.worker == worker) {
                    self.finish_job(job, reason, Some((length, order)));
                }
            }
        }
    }

    fn reject(&self, client: u64, why: u64) {
        self.obs.counter(kinds::C_SVC_REJECTED).incr();
        self.obs.event(
            kinds::SVC_REJECT,
            &[("client", Value::U(client)), ("why", Value::U(why))],
        );
    }

    fn admit(
        &mut self,
        client: u64,
        mut spec: JobSpec,
        inst: Result<Arc<Instance>, String>,
    ) -> Result<(u64, Receiver<JobUpdate>), String> {
        self.obs.counter(kinds::C_SVC_SUBMITTED).incr();
        // Validate before charging: a malformed payload is not the
        // tenant's budget's problem.
        let inst = inst.map_err(|e| {
            self.reject(client, 0);
            format!("bad payload: {e}")
        })?;
        // Charge before any effect (the flow-budget discipline).
        if !self.ledger.charge(client, JOB_COST) {
            self.reject(client, 1);
            return Err(format!(
                "flow budget exhausted for client {client} (limit {})",
                self.ledger.get(client).limit
            ));
        }
        // `0` kicks means "no bound" on the wire; read it the same way
        // here, so an in-process submission cannot slip past the cap.
        if spec.kicks == Some(0) {
            spec.kicks = None;
        }
        if spec.kicks.is_none() && spec.deadline.is_none() && spec.target.is_none() {
            spec.kicks = Some(self.cfg.default_kicks);
        }
        let mut engine = self.cfg.engine.clone();
        engine.nodes = 1;
        engine.seed = spec.seed;
        engine.budget = Budget {
            time_limit: spec.deadline,
            max_kicks: spec.kicks,
            target_length: spec.target,
        };
        // Telemetry shipping would address frames to a hub peer that
        // does not exist on the job's private network.
        engine.telemetry_every = 0;
        let seq = self.seqs.entry(client).or_insert(0);
        let job = job_id(client, *seq);
        *seq += 1;
        let (tx, rx) = unbounded();
        let state = JobState {
            inst,
            engine,
            worker: 0,
            // A deadline past what `Instant` can hold never expires.
            deadline: spec.deadline.and_then(|d| Instant::now().checked_add(d)),
            cancel: Arc::default(),
            best: None,
            subscriber: tx,
        };
        self.jobs.insert(job, state);
        if !self.dispatch(job) {
            self.jobs.remove(&job);
            self.reject(client, 2);
            return Err("no live workers".into());
        }
        let state = &self.jobs[&job];
        let worker = state.worker;
        let _ = state.subscriber.send(JobUpdate::Accepted { worker });
        self.obs.counter(kinds::C_SVC_ACCEPTED).incr();
        self.obs.event(
            kinds::SVC_ACCEPT,
            &[
                ("job", Value::U(job)),
                ("client", Value::U(client)),
                ("worker", Value::U(worker as u64)),
            ],
        );
        Ok((job, rx))
    }

    /// Place a job (fresh or reassigned) on the least-loaded live
    /// worker (ties to the lowest id) and start its solve thread. A
    /// reassigned job resumes from its last streamed best and keeps
    /// its absolute deadline.
    fn dispatch(&mut self, job: u64) -> bool {
        let Some(&worker) = self
            .alive
            .iter()
            .min_by_key(|&&w| (self.load.get(&w).copied().unwrap_or(0), w))
        else {
            return false;
        };
        let state = self.jobs.get_mut(&job).expect("dispatching unknown job");
        let mut engine = state.engine.clone();
        if let Some(deadline) = state.deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            engine.budget.time_limit = Some(left.max(Duration::from_millis(1)));
        }
        let cancel = Arc::new(CancelSlot::default());
        let (inst, resume, reports) = (
            Arc::clone(&state.inst),
            state.best.clone(),
            self.reports.clone(),
        );
        let slot = Arc::clone(&cancel);
        let spawned = std::thread::Builder::new()
            .name(format!("svc-job-{job:x}"))
            .spawn(move || {
                // Solving is CPU-bound from the first instruction. Yield
                // once so the submitter's thread, woken to answer the
                // client, runs first: on a 2-core host with a second
                // job solving, skipping this delayed the client's
                // `JobAccept` by about 2 ms (svc-jobs accept_ms p50).
                std::thread::yield_now();
                solve_job(worker, job, &inst, engine, resume, &slot, &reports)
            });
        if spawned.is_err() {
            return false;
        }
        state.worker = worker;
        state.cancel = cancel;
        *self.load.entry(worker).or_insert(0) += 1;
        true
    }

    /// Terminal transition: stop the solve thread, emit `Done` carrying
    /// the best tour seen from any assignee, drop the job, release the
    /// worker-load slot.
    fn finish_job(&mut self, job: u64, reason: DoneReason, last: Option<(i64, Vec<u32>)>) {
        let Some(mut state) = self.jobs.remove(&job) else {
            return;
        };
        state.cancel.set(reason);
        if let Some((length, order)) = last {
            if state.best.as_ref().is_none_or(|(l, _)| length < *l) {
                state.best = Some((length, order));
            }
        }
        if let Some(load) = self.load.get_mut(&state.worker) {
            *load = load.saturating_sub(1);
        }
        let (length, order) = state.best.clone().unwrap_or((i64::MAX, Vec::new()));
        // Book-keep *before* waking the subscriber: a client that sees
        // the terminal update (possibly across a TCP hop) must also see
        // the completion counters it implies.
        self.obs.counter(kinds::C_SVC_COMPLETED).incr();
        match reason {
            DoneReason::Deadline => self.obs.counter(kinds::C_SVC_EXPIRED).incr(),
            DoneReason::Cancelled => self.obs.counter(kinds::C_SVC_CANCELLED).incr(),
            _ => {}
        }
        self.obs.event(
            kinds::SVC_DONE,
            &[
                ("job", Value::U(job)),
                ("reason", Value::U(reason.code() as u64)),
                ("len", Value::I(length)),
            ],
        );
        let _ = state.subscriber.send(JobUpdate::Done {
            reason,
            length,
            order,
        });
    }

    /// A worker died: stop its solve threads and reassign every job it
    /// carried to survivors, each resuming from the last tour the
    /// supervisor streamed (zero accepted-job loss).
    fn on_worker_dead(&mut self, worker: NodeId) {
        self.alive.retain(|&w| w != worker);
        self.load.remove(&worker);
        let orphans: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, s)| s.worker == worker)
            .map(|(&j, _)| j)
            .collect();
        for job in orphans {
            let state = &self.jobs[&job];
            state.cancel.set(DoneReason::Cancelled);
            if state.deadline.is_some_and(|d| Instant::now() >= d) {
                // Past deadline already: expire cleanly rather than
                // burn a survivor on it.
                self.finish_job(job, DoneReason::Deadline, None);
                continue;
            }
            if self.dispatch(job) {
                let to = self.jobs[&job].worker;
                self.obs.counter(kinds::C_SVC_REASSIGNED).incr();
                self.obs.event(
                    kinds::SVC_REASSIGN,
                    &[
                        ("job", Value::U(job)),
                        ("from_worker", Value::U(worker as u64)),
                        ("to_worker", Value::U(to as u64)),
                    ],
                );
            } else {
                self.finish_job(job, DoneReason::Cancelled, None);
            }
        }
    }

    /// Deadline enforcement: at expiry, nudge the solve thread through
    /// its cancel slot (its own time budget normally fires first);
    /// [`DEADLINE_GRACE`] later, force-finish from the supervisor — the
    /// guarantee that every job terminates even if its thread is
    /// wedged. Returns how long until the next check is due (`None`:
    /// no job has a deadline).
    fn check_deadlines(&mut self) -> Option<Duration> {
        let now = Instant::now();
        let mut expired = Vec::new();
        let mut next: Option<Duration> = None;
        for (&job, state) in &self.jobs {
            let Some(deadline) = state.deadline else {
                continue;
            };
            let due = match now.checked_duration_since(deadline) {
                None => deadline - now,
                Some(late) if late >= DEADLINE_GRACE => {
                    expired.push(job);
                    continue;
                }
                Some(late) => {
                    if state.cancel.get().is_none() {
                        state.cancel.set(DoneReason::Deadline);
                    }
                    DEADLINE_GRACE - late
                }
            };
            next = Some(next.map_or(due, |n| n.min(due)));
        }
        for job in expired {
            self.finish_job(job, DoneReason::Deadline, None);
        }
        next
    }
}

// ---------------------------------------------------------------------------
// Solve threads
// ---------------------------------------------------------------------------

/// Cross-thread cancel slot: 0 = not cancelled, else `reason + 1`.
#[derive(Default)]
struct CancelSlot(AtomicU8);

impl CancelSlot {
    fn set(&self, reason: DoneReason) {
        self.0.store(reason.code() + 1, Ordering::Relaxed);
    }

    fn get(&self) -> Option<DoneReason> {
        match self.0.load(Ordering::Relaxed) {
            0 => None,
            c => Some(DoneReason::from_code(c - 1)),
        }
    }
}

/// One job's solve thread: a private single-node engine over its own
/// one-node in-memory network. With no cancellation this is
/// step-for-step the [`crate::run_over_transports`] loop
/// (`while step(); finish()`), which is what the conformance suite
/// pins: same seed and config ⇒ bit-identical tour.
fn solve_job(
    worker: NodeId,
    job: u64,
    inst: &Instance,
    engine: DistConfig,
    resume: Option<(i64, Vec<u32>)>,
    cancel: &CancelSlot,
    reports: &Sender<Command>,
) {
    let neighbors = crate::build_neighbors(inst, &engine);
    let (mut eps, _) = InMemoryNetwork::build(1, engine.topology);
    let mut node = NodeDriver::new(inst, &neighbors, &engine, eps.remove(0));
    if let Some((length, order)) = resume {
        node.restore(length, order);
    }
    // Stream the construction-time tour immediately: anytime semantics
    // start at acceptance, not at the first kick.
    let mut last = i64::MAX;
    let ship = |node: &NodeDriver<MemoryEndpoint>, last: &mut i64| {
        if node.best_length() < *last {
            *last = node.best_length();
            let _ = reports.send(Command::Improved {
                worker,
                job,
                length: *last,
                order: node.best_tour().order().to_vec(),
            });
        }
    };
    ship(&node, &mut last);
    let cancelled = loop {
        if let Some(reason) = cancel.get() {
            break Some(reason);
        }
        // Ship the step's result even when it is the last one: the
        // round that spends the budget or hits the target must reach
        // the client as an improvement, not only in `Done`.
        let live = node.step();
        ship(&node, &mut last);
        if !live {
            break None;
        }
    };
    let result = node.finish();
    // Attribute a natural stop to whichever bound actually tripped:
    // target beats kicks beats deadline when several are set (the
    // engine's own clock includes construction time, so the deadline
    // verdict falls out by elimination rather than re-measuring).
    let budget = &engine.budget;
    let reason = cancelled.unwrap_or_else(|| {
        if budget
            .target_length
            .is_some_and(|t| result.best_length <= t)
        {
            DoneReason::Target
        } else if budget.max_kicks.is_some_and(|k| result.clk_calls >= k) {
            DoneReason::Budget
        } else if budget.time_limit.is_some() {
            DoneReason::Deadline
        } else {
            DoneReason::Budget
        }
    });
    let _ = reports.send(Command::Finished {
        worker,
        job,
        reason,
        length: result.best_length,
        order: result.best_tour.order().to_vec(),
    });
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A persistent, multi-tenant solve service: one supervisor thread that
/// starts a solve thread per job on one of [`ServiceConfig::workers`]
/// workers, accepting jobs until [`SolverService::shutdown`] (or drop).
pub struct SolverService {
    commands: Sender<Command>,
    supervisor: Option<JoinHandle<()>>,
    obs: Obs,
}

impl SolverService {
    /// Start the supervisor and begin accepting jobs.
    pub fn start(cfg: ServiceConfig) -> Self {
        assert!(cfg.workers >= 1, "a service needs at least one worker");
        let obs = Obs::for_node(0);
        let (cmd_tx, cmd_rx) = unbounded();
        let supervisor = Supervisor {
            inbox: cmd_rx,
            reports: cmd_tx.clone(),
            alive: (1..=cfg.workers as NodeId).collect(),
            load: HashMap::new(),
            ledger: FlowLedger::new(cfg.default_limit),
            jobs: HashMap::new(),
            seqs: HashMap::new(),
            obs: obs.clone(),
            cfg,
        };
        let supervisor = std::thread::Builder::new()
            .name("svc-supervisor".into())
            .spawn(move || supervisor.run())
            .expect("spawn supervisor");
        SolverService {
            commands: cmd_tx,
            supervisor: Some(supervisor),
            obs,
        }
    }

    /// Submit a job for `client`. The payload is parsed here, once, on
    /// the caller's thread; the call then blocks only for admission
    /// (fairness charge, placement). Solving streams back on the
    /// returned handle.
    pub fn submit(&self, client: u64, spec: JobSpec) -> Result<JobHandle, String> {
        let inst = spec.payload.parse().map(Arc::new);
        let (reply_tx, reply_rx) = bounded(1);
        self.commands
            .send(Command::Submit {
                client,
                spec,
                inst,
                reply: reply_tx,
            })
            .map_err(|_| "service shut down".to_string())?;
        let (id, updates) = reply_rx
            .recv()
            .map_err(|_| "service shut down".to_string())??;
        Ok(JobHandle { id, updates })
    }

    /// Cancel a job (client-initiated, reason code 3).
    pub fn cancel(&self, job: u64) {
        let _ = self.commands.send(Command::Cancel { job });
    }

    /// Crash worker `worker` (1-based id): its solve threads stop,
    /// anything they still report is dropped, and the supervisor
    /// reassigns every job it carried from the last streamed tours.
    pub fn kill_worker(&self, worker: NodeId) {
        assert!(worker >= 1, "worker ids start at 1");
        let _ = self.commands.send(Command::WorkerDead { worker });
    }

    /// Snapshot the fairness ledger (for replication / inspection).
    pub fn ledger(&self) -> FlowLedger {
        let (tx, rx) = bounded(1);
        if self.commands.send(Command::Ledger { reply: tx }).is_err() {
            return FlowLedger::new(0);
        }
        rx.recv().unwrap_or_else(|_| FlowLedger::new(0))
    }

    /// Merge a replica's ledger into the live one (failover path: the
    /// new holder joins the old holder's last ledger so tenants keep
    /// their `spent`).
    pub fn merge_ledger(&self, other: FlowLedger) {
        let _ = self.commands.send(Command::MergeLedger { other });
    }

    /// The service's observability handle (`svc.*` counters/events).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Stop accepting jobs, finish terminal updates for anything in
    /// flight, and join the supervisor.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let _ = self.commands.send(Command::Shutdown);
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------------
// TCP front-end: the hub's JOB command
// ---------------------------------------------------------------------------

/// Adapter registering a [`SolverService`] as the lifecycle hub's
/// [`JobHandler`]: `p2p::hub::submit_job` connections stream
/// `JobAccept`/`JobImproved*`/`JobDone` frames mirroring the handle's
/// updates. Attach with [`ServiceJobHandler::attach`].
pub struct ServiceJobHandler {
    service: Arc<SolverService>,
}

impl ServiceJobHandler {
    /// Wrap a service for hub registration.
    pub fn new(service: Arc<SolverService>) -> Self {
        ServiceJobHandler { service }
    }

    /// Register on a running hub (`hub.set_job_handler`).
    pub fn attach(service: Arc<SolverService>, hub: &p2p::hub::LifecycleHub) {
        hub.set_job_handler(Arc::new(ServiceJobHandler::new(service)));
    }
}

impl JobHandler for ServiceJobHandler {
    fn handle(&self, first: Message, mut stream: TcpStream) -> Result<(), NetError> {
        match first {
            submit @ Message::JobSubmit { .. } => {
                let (client, spec) = match JobSpec::from_submit(&submit) {
                    Ok(parts) => parts,
                    Err(e) => {
                        writeln!(stream, "ERR {e}")?;
                        return Ok(());
                    }
                };
                let handle = match self.service.submit(client, spec) {
                    Ok(h) => h,
                    Err(e) => {
                        writeln!(stream, "ERR {e}")?;
                        return Ok(());
                    }
                };
                let job = handle.id();
                writeln!(stream, "OK {job}")?;
                stream.flush()?;
                while let Some(update) = handle.recv() {
                    let frame = match update {
                        JobUpdate::Accepted { worker } => Message::JobAccept {
                            from: 0,
                            job,
                            worker: worker as u64,
                        },
                        JobUpdate::Improved { length, order } => Message::JobImproved {
                            from: 0,
                            job,
                            length,
                            order,
                        },
                        JobUpdate::Done {
                            reason,
                            length,
                            order,
                        } => Message::JobDone {
                            from: 0,
                            job,
                            reason: reason.code(),
                            length,
                            order,
                        },
                    };
                    let terminal = matches!(frame, Message::JobDone { .. });
                    if write_frame(&mut stream, &frame).is_err() {
                        // Client hung up mid-stream: release its slot.
                        self.service.cancel(job);
                        return Ok(());
                    }
                    if terminal {
                        break;
                    }
                }
                Ok(())
            }
            Message::JobCancel { job, .. } => {
                self.service.cancel(job);
                writeln!(stream, "OK")?;
                Ok(())
            }
            _ => {
                writeln!(stream, "ERR expected JobSubmit or JobCancel")?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_payload(n: usize) -> JobPayload {
        let side = (n as f64).sqrt().ceil() as usize;
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % side) as f64 * 10.0, (i / side) as f64 * 10.0))
            .collect();
        JobPayload::Json(points_to_json(&pts))
    }

    /// 40 cities with coordinates up to 1.2e19: every tour length
    /// overflows `i64`.
    fn huge_payload() -> JobPayload {
        let pts: Vec<(f64, f64)> = (0..40)
            .map(|i| ((i % 7) as f64 * 2e18, (i / 7) as f64 * 2e18))
            .collect();
        JobPayload::Json(points_to_json(&pts))
    }

    /// Receive the next update, failing after `limit` instead of
    /// hanging on a job that never ends.
    fn recv_within(handle: &JobHandle, limit: Duration) -> JobUpdate {
        let start = Instant::now();
        loop {
            if let Some(update) = handle.try_recv() {
                return update;
            }
            assert!(start.elapsed() < limit, "no update within {limit:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn json_points_roundtrip_and_rejection() {
        let pts = vec![(0.0, 0.0), (3.5, -1.25), (100.0, 7.0)];
        let text = points_to_json(&pts);
        assert_eq!(parse_json_points(&text).unwrap(), pts);
        assert_eq!(
            parse_json_points(" [ [1 , 2.5] , [3,4] , [5,6] ] ").unwrap(),
            vec![(1.0, 2.5), (3.0, 4.0), (5.0, 6.0)]
        );
        for bad in [
            "",
            "[",
            "[[1,2]",
            "[[1,2],]",
            "[[1]]",
            "[[1,2,3]]",
            "[[1,2]] trailing",
            "[[1,nan]]",
            "[[1,inf]]",
            "{\"pts\": []}",
        ] {
            assert!(parse_json_points(bad).is_err(), "accepted {bad:?}");
        }
        // Too few cities is an admission error, not a panic.
        assert!(JobPayload::Json("[[0,0],[1,1]]".into()).parse().is_err());
        // So are coordinates whose tour lengths overflow i64.
        let err = huge_payload().parse().unwrap_err();
        assert!(err.contains("overflow i64"), "{err}");
    }

    #[test]
    fn tsplib_payload_parses() {
        let inst = grid_payload(9).parse().unwrap();
        let text = tsp_core::tsplib::write_instance(&inst);
        let reparsed = JobPayload::Tsplib(text).parse().unwrap();
        assert_eq!(reparsed.len(), 9);
    }

    #[test]
    fn spec_submit_roundtrip() {
        let spec = JobSpec::new(grid_payload(16))
            .seed(7)
            .kicks(12)
            .deadline(Duration::from_millis(1500))
            .target(123);
        let msg = spec.to_submit(42);
        let (client, back) = JobSpec::from_submit(&msg).unwrap();
        assert_eq!(client, 42);
        assert_eq!(back.seed, 7);
        assert_eq!(back.kicks, Some(12));
        assert_eq!(back.deadline, Some(Duration::from_millis(1500)));
        assert_eq!(back.target, Some(123));
        assert_eq!(back.payload, spec.payload);

        // Unset bounds map through the wire sentinels.
        let bare = JobSpec::new(grid_payload(16));
        let (_, back) = JobSpec::from_submit(&bare.to_submit(1)).unwrap();
        assert_eq!(back.kicks, None);
        assert_eq!(back.deadline, None);
        assert_eq!(back.target, None);
    }

    #[test]
    fn flow_budget_semilattice_laws() {
        let a = FlowBudget { spent: 3, limit: 10 };
        let b = FlowBudget { spent: 7, limit: 8 };
        let c = FlowBudget { spent: 5, limit: 12 };
        // Idempotent, commutative, associative.
        assert_eq!(a.join(a), a);
        assert_eq!(a.join(b), b.join(a));
        assert_eq!(a.join(b).join(c), a.join(b.join(c)));
        // Join takes max spent, min limit: merging replicas can only
        // tighten what a tenant has left.
        assert_eq!(a.join(b), FlowBudget { spent: 7, limit: 8 });
        assert!(a.join(b).remaining() <= a.remaining());
        assert!(a.join(b).remaining() <= b.remaining());
    }

    #[test]
    fn flow_ledger_charges_and_merges() {
        let mut ledger = FlowLedger::new(2);
        assert!(ledger.charge(1, 1));
        assert!(ledger.charge(1, 1));
        assert!(!ledger.charge(1, 1), "third job must bounce off limit 2");
        assert!(ledger.charge(2, 1), "other tenants unaffected");
        assert_eq!(ledger.get(1), FlowBudget { spent: 2, limit: 2 });

        // Failover merge: spent survives by max, limit tightens by min.
        let mut replica = FlowLedger::new(2);
        replica.charge(1, 1);
        replica.set_limit(3, 1);
        replica.merge(&ledger);
        assert_eq!(replica.get(1), FlowBudget { spent: 2, limit: 2 });
        assert_eq!(replica.get(3).limit, 1);
        assert!(!replica.charge(1, 1));
        // Merge is idempotent.
        let snapshot = replica.clone();
        replica.merge(&ledger);
        assert_eq!(replica, snapshot);
    }

    #[test]
    fn done_reason_codes_roundtrip() {
        for reason in [
            DoneReason::Budget,
            DoneReason::Target,
            DoneReason::Deadline,
            DoneReason::Cancelled,
        ] {
            assert_eq!(DoneReason::from_code(reason.code()), reason);
        }
    }

    #[test]
    fn service_runs_one_job_end_to_end() {
        let svc = SolverService::start(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        let handle = svc
            .submit(1, JobSpec::new(grid_payload(25)).seed(3).kicks(5))
            .unwrap();
        assert_eq!(handle.id(), job_id(1, 0));
        let (reason, length, order, improvements) = handle.wait().unwrap();
        assert_eq!(reason, DoneReason::Budget);
        assert!(length < i64::MAX);
        assert_eq!(order.len(), 25);
        assert!(!improvements.is_empty(), "anytime stream was empty");
        assert!(
            improvements.windows(2).all(|w| w[1] < w[0]),
            "stream not strictly improving: {improvements:?}"
        );
        assert_eq!(*improvements.last().unwrap(), length);
        svc.shutdown();
    }

    #[test]
    fn natural_stop_streams_the_last_round() {
        // The round that spends the budget often improves the tour; it
        // must reach the client as an `Improved` before `Done`.
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        for seed in 0..20 {
            let inst = tsp_core::generate::uniform(200, 100_000.0, seed);
            let pts: Vec<(f64, f64)> = inst.points().iter().map(|p| (p.x, p.y)).collect();
            for kicks in [2, 3, 5] {
                let spec = JobSpec::new(JobPayload::Json(points_to_json(&pts)))
                    .seed(seed)
                    .kicks(kicks);
                let (reason, length, _, improvements) =
                    svc.submit(seed, spec).unwrap().wait().unwrap();
                assert_eq!(reason, DoneReason::Budget);
                assert_eq!(
                    improvements.last(),
                    Some(&length),
                    "seed {seed} kicks {kicks}: Done {length} never streamed"
                );
            }
        }
        svc.shutdown();
    }

    #[test]
    fn fairness_rejects_over_limit_and_bad_payloads() {
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            default_limit: 1,
            ..Default::default()
        });
        let err = svc
            .submit(5, JobSpec::new(JobPayload::Json("nonsense".into())))
            .unwrap_err();
        assert!(err.contains("bad payload"), "{err}");
        let ok = svc
            .submit(5, JobSpec::new(grid_payload(16)).kicks(2))
            .unwrap();
        let err = svc
            .submit(5, JobSpec::new(grid_payload(16)).kicks(2))
            .unwrap_err();
        assert!(err.contains("flow budget exhausted"), "{err}");
        // A different tenant still gets in.
        assert!(svc.submit(6, JobSpec::new(grid_payload(16)).kicks(2)).is_ok());
        assert!(ok.wait().is_some());
        let snapshot = svc.obs().snapshot();
        assert_eq!(snapshot.counter(kinds::C_SVC_REJECTED), 2);
        svc.shutdown();
    }

    /// A 2-city TSPLIB payload is an admission error, not a supervisor
    /// panic: the next tenant's job is still accepted and solved.
    #[test]
    fn bad_tsplib_payload_leaves_service_up() {
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let two = "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n";
        let err = svc
            .submit(1, JobSpec::new(JobPayload::Tsplib(two.into())))
            .unwrap_err();
        assert!(err.contains("bad payload"), "{err}");
        let err = svc
            .submit(1, JobSpec::new(huge_payload()).kicks(3))
            .unwrap_err();
        assert!(err.contains("overflow i64"), "{err}");
        let ok = svc
            .submit(2, JobSpec::new(grid_payload(16)).kicks(2))
            .unwrap();
        assert!(ok.wait().is_some());
        svc.shutdown();
    }

    /// `kicks(0)` means "no bound", in-process as on the wire, so a job
    /// with no other bound gets the `default_kicks` cap and ends on its
    /// budget instead of running forever.
    #[test]
    fn zero_kicks_job_is_capped() {
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let handle = svc
            .submit(1, JobSpec::new(grid_payload(30)).seed(1).kicks(0))
            .unwrap();
        loop {
            if let JobUpdate::Done { reason, .. } = recv_within(&handle, Duration::from_secs(10)) {
                assert_eq!(reason, DoneReason::Budget);
                break;
            }
        }
        svc.shutdown();
    }

    /// A deadline too far out for `Instant` is no supervisor deadline,
    /// not a supervisor panic: the job runs to its kick budget.
    #[test]
    fn unrepresentable_deadline_leaves_service_up() {
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let spec = JobSpec::new(grid_payload(16))
            .kicks(2)
            .deadline(Duration::MAX);
        let (reason, ..) = svc.submit(1, spec).unwrap().wait().unwrap();
        assert_eq!(reason, DoneReason::Budget);
        let next = svc.submit(2, JobSpec::new(grid_payload(16)).kicks(2));
        assert!(next.is_ok());
        svc.shutdown();
    }
}
