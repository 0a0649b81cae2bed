//! The hub (paper §2.2): [`LifecycleHub`].
//!
//! The hub is the only central component. It bootstraps the network:
//! each node connects, announces its listen address, and receives its
//! hypercube position plus the list of neighbors that have already
//! joined. The joining node then dials those neighbors directly; nodes
//! joining later dial it, and the TCP layer registers the reverse
//! edges — so early nodes start with sparse lists that fill in as the
//! cube completes, exactly as the paper describes. After bootstrap the
//! nodes talk peer to peer; the same listener keeps answering
//! telemetry scrapes and solve jobs (see [`LifecycleHub`]). Deaths,
//! rejoins and hub migration are handled among the nodes themselves
//! (`crate::election`), not here.
//!
//! The bootstrap protocol is a one-request/one-response text exchange
//! (`JOIN <addr>` → `ID <id> EXPECT <n> NEIGHBORS <id>@<addr>;…`),
//! deliberately separate from the binary peer protocol.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use obs_api::{Obs, Value};
use parking_lot::Mutex;

use crate::codec::{read_frame, write_frame};
use crate::message::{Message, NodeId};
use crate::tcp::{TcpConfig, TcpEndpoint};
use crate::telemetry::TelemetryStore;
use crate::topology::Topology;
use crate::NetError;

/// Longest request line the hub reads, newline included. `JOIN` with
/// any socket address fits; a client that sends more without a newline
/// is rejected instead of growing the hub's buffer.
const MAX_REQUEST_LINE: u64 = 256;

/// A node's view after bootstrap: its id and the already-joined
/// neighbors to dial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinInfo {
    /// Assigned hypercube position.
    pub id: NodeId,
    /// Total network size.
    pub expected: usize,
    /// Neighbors that joined earlier: `(id, address)`.
    pub neighbors: Vec<(NodeId, SocketAddr)>,
}

/// Join a network: contact the hub, announce our listen address, and
/// parse the assigned position and neighbor list. Uses the default
/// timeout/retry policy (see [`join_via_hub_with`]).
pub fn join_via_hub(hub: SocketAddr, listen: SocketAddr) -> Result<JoinInfo, NetError> {
    join_via_hub_with(hub, listen, &TcpConfig::default())
}

/// [`join_via_hub`] with an explicit timeout/retry policy: every
/// attempt bounds the connect, the request write, and the reply read;
/// failed attempts are retried with exponential backoff (the hub may
/// simply not be up yet during cluster bring-up).
pub fn join_via_hub_with(
    hub: SocketAddr,
    listen: SocketAddr,
    cfg: &TcpConfig,
) -> Result<JoinInfo, NetError> {
    retry_request(cfg, || join_once(hub, listen, cfg))
}

fn join_once(hub: SocketAddr, listen: SocketAddr, cfg: &TcpConfig) -> Result<JoinInfo, NetError> {
    let mut stream = TcpStream::connect_timeout(&hub, cfg.connect_timeout)?;
    stream.set_write_timeout(Some(cfg.handshake_timeout)).ok();
    stream.set_read_timeout(Some(cfg.handshake_timeout)).ok();
    writeln!(stream, "JOIN {listen}")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    parse_join_reply(&line)
}

fn parse_join_reply(line: &str) -> Result<JoinInfo, NetError> {
    let err = |m: String| NetError::Codec(m);
    let tokens: Vec<&str> = line.trim().split(' ').collect();
    if tokens.len() < 5 || tokens[0] != "ID" || tokens[2] != "EXPECT" || tokens[4] != "NEIGHBORS" {
        return Err(err(format!("bad hub reply {line:?}")));
    }
    let id: NodeId = tokens[1].parse().map_err(|_| err("bad id".into()))?;
    let expected: usize = tokens[3].parse().map_err(|_| err("bad expect".into()))?;
    let mut neighbors = Vec::new();
    if tokens.len() > 5 {
        for item in tokens[5].split(';').filter(|s| !s.is_empty()) {
            let (nid, addr) = item
                .split_once('@')
                .ok_or_else(|| err(format!("bad neighbor {item:?}")))?;
            neighbors.push((
                nid.parse().map_err(|_| err("bad neighbor id".into()))?,
                addr.parse()
                    .map_err(|_| err(format!("bad neighbor addr {addr:?}")))?,
            ));
        }
    }
    Ok(JoinInfo {
        id,
        expected,
        neighbors,
    })
}

/// Convenience for tests and examples: bootstrap a full TCP network of
/// `n` [`TcpEndpoint`]s through a [`LifecycleHub`] on localhost, wiring
/// all topology edges, and stop the hub once every node has joined.
pub fn bootstrap_local(n: usize, topology: Topology) -> Result<Vec<TcpEndpoint>, NetError> {
    let mut hub = LifecycleHub::start("127.0.0.1:0", n, topology)?;
    let hub_addr = hub.addr();
    let mut endpoints = Vec::with_capacity(n);
    for _ in 0..n {
        // Bind first so we can announce a real listen address, then let
        // the hub assign the id.
        let mut ep = TcpEndpoint::bind(usize::MAX, "127.0.0.1:0")?;
        let info = join_via_hub(hub_addr, ep.listen_addr())?;
        ep.set_id(info.id);
        for (nid, addr) in &info.neighbors {
            ep.connect_to(*nid, *addr)?;
        }
        endpoints.push(ep);
    }
    hub.stop();
    Ok(endpoints)
}

// ---------------------------------------------------------------------
// The hub server.
// ---------------------------------------------------------------------

/// Listen addresses by node id; `None` until the id has joined.
type Joined = Mutex<Vec<Option<SocketAddr>>>;

/// Receiver of solve jobs arriving on the hub's `JOB` command: the
/// job layer (e.g. `distclk::service`) registers one via
/// [`LifecycleHub::set_job_handler`] and the hub hands it every job
/// frame together with the still-open client connection, on which the
/// handler streams its binary reply frames (`JobAccept`,
/// `JobImproved`…, terminated by `JobDone`). The hub stays protocol-
/// agnostic: it only checks that the frame is a job frame.
pub trait JobHandler: Send + Sync {
    /// Serve one job connection. `first` is the frame that followed
    /// the `JOB` line (a `JobSubmit` or `JobCancel`); the handler owns
    /// `stream` from here on and replies with one `OK …`/`ERR …` text
    /// line, then (for submissions) a stream of codec frames.
    fn handle(&self, first: Message, stream: TcpStream) -> Result<(), NetError>;
}

/// Shared slot for the registered job handler (empty until the job
/// layer attaches).
type JobHandlerSlot = Arc<Mutex<Option<Arc<dyn JobHandler>>>>;

/// The hub: it bootstraps the network, then keeps its listener open
/// for scrapes and jobs. It answers four one-line requests:
///
/// - `JOIN <addr>` — bootstrap join: the lowest free id, plus the
///   topology neighbors that already joined, in ascending id order
///   (see the module docs);
/// - `METRICS` — Prometheus text of the cluster-merged
///   [`TelemetryStore`], terminated by connection close;
/// - `STATUS` — one `NODE …` convergence line per reporting node;
/// - `JOB` followed by one `JobSubmit`/`JobCancel` codec frame — handed
///   with the connection to the registered [`JobHandler`].
///
/// Anything else, and any request line of 256 bytes or more, is
/// rejected (`hub.rejects`). Every connection is served on its own
/// short-lived thread under a read deadline, so a malformed, truncated,
/// oversized or wedged request can neither consume a join slot nor
/// stall the hub for everyone else.
pub struct LifecycleHub {
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    telemetry: Arc<TelemetryStore>,
    jobs: JobHandlerSlot,
    obs: Obs,
}

impl LifecycleHub {
    /// Start a lifecycle hub on `addr` (port 0 for ephemeral) for a
    /// network of `expected` nodes.
    pub fn start(addr: &str, expected: usize, topology: Topology) -> Result<Self, NetError> {
        Self::start_with(addr, expected, topology, Obs::disabled())
    }

    /// [`LifecycleHub::start`] with an observability handle: joins,
    /// completion, scrapes, jobs and rejections are recorded.
    pub fn start_with(
        addr: &str,
        expected: usize,
        topology: Topology,
        obs: Obs,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let joined = Arc::new(Mutex::new(vec![None; expected]));
        let telemetry = TelemetryStore::shared();
        let jobs: JobHandlerSlot = Arc::new(Mutex::new(None));
        let loop_stop = Arc::clone(&stop);
        let loop_telemetry = Arc::clone(&telemetry);
        let loop_jobs = Arc::clone(&jobs);
        let loop_obs = obs.clone();
        let thread = std::thread::Builder::new()
            .name("p2p-hub-lifecycle".into())
            .spawn(move || {
                lifecycle_loop(
                    listener,
                    topology,
                    joined,
                    loop_stop,
                    loop_telemetry,
                    loop_jobs,
                    loop_obs,
                )
            })
            .expect("spawn hub thread");
        Ok(LifecycleHub {
            addr,
            thread: Some(thread),
            stop,
            telemetry,
            jobs,
            obs,
        })
    }

    /// Address nodes should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hub's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The hub's live telemetry registry, which `METRICS`/`STATUS`
    /// scrapes read. Whoever receives telemetry frames (in-process, or
    /// the node they are shipped to over the peer transport) ingests
    /// them here.
    pub fn telemetry(&self) -> Arc<TelemetryStore> {
        Arc::clone(&self.telemetry)
    }

    /// Register (or replace) the handler behind the `JOB` command.
    /// Until one is attached, job submissions are answered
    /// `ERR no job service`. The handler outlives individual
    /// connections — it is shared by every job-serving thread.
    pub fn set_job_handler(&self, handler: Arc<dyn JobHandler>) {
        *self.jobs.lock() = Some(handler);
    }

    /// Stop serving and join the hub thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for LifecycleHub {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lifecycle_loop(
    listener: TcpListener,
    topology: Topology,
    joined: Arc<Joined>,
    stop: Arc<AtomicBool>,
    telemetry: Arc<TelemetryStore>,
    jobs: JobHandlerSlot,
    obs: Obs,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let (stream, _) = match listener.accept() {
            Ok(x) => x,
            Err(_) => break,
        };
        if stop.load(Ordering::Acquire) {
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
        let conn_joined = Arc::clone(&joined);
        let conn_telemetry = Arc::clone(&telemetry);
        let conn_jobs = Arc::clone(&jobs);
        let conn_obs = obs.clone();
        let handle = std::thread::Builder::new()
            .name("p2p-hub-conn".into())
            .spawn(move || {
                let served = serve_lifecycle(
                    stream,
                    topology,
                    &conn_joined,
                    &conn_telemetry,
                    &conn_jobs,
                    &conn_obs,
                );
                if let Err(e) = served {
                    conn_obs.counter("hub.rejects").incr();
                    conn_obs.event("hub.reject", &[("error", Value::S(e.to_string()))]);
                }
            })
            .expect("spawn hub connection thread");
        conns.retain(|h| !h.is_finished());
        conns.push(handle);
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Serve one request (`JOIN` / `METRICS` / `STATUS` / `JOB`) under
/// read and write deadlines (a `JOB` connection is handed to the
/// registered [`JobHandler`], which manages its own deadlines from
/// then on — result streams legitimately outlive the handshake
/// timeout).
fn serve_lifecycle(
    stream: TcpStream,
    topology: Topology,
    joined: &Joined,
    telemetry: &TelemetryStore,
    jobs: &JobHandlerSlot,
    obs: &Obs,
) -> Result<(), NetError> {
    let deadline = TcpConfig::default().handshake_timeout;
    stream.set_read_timeout(Some(deadline)).ok();
    stream.set_write_timeout(Some(deadline)).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    (&mut reader).take(MAX_REQUEST_LINE).read_line(&mut line)?;
    if line.len() as u64 >= MAX_REQUEST_LINE {
        return Err(NetError::Codec(format!(
            "hub request line reached {MAX_REQUEST_LINE} bytes"
        )));
    }
    let tokens: Vec<&str> = line.trim().split(' ').collect();
    let mut w = stream;
    match tokens.as_slice() {
        ["JOIN", addr] => {
            let listen: SocketAddr = addr
                .parse()
                .map_err(|e| NetError::Codec(format!("bad address {addr:?}: {e}")))?;
            let mut joined = joined.lock();
            let id = joined
                .iter()
                .position(|a| a.is_none())
                .ok_or_else(|| NetError::Codec("network full".into()))?;
            let expected = joined.len();
            let mut ids = topology.neighbors(id, expected);
            ids.sort_unstable();
            let neighbors: Vec<String> = ids
                .into_iter()
                .filter_map(|m| joined[m].map(|a| format!("{m}@{a}")))
                .collect();
            writeln!(
                w,
                "ID {id} EXPECT {expected} NEIGHBORS {}",
                neighbors.join(";")
            )?;
            w.flush()?;
            // Commit the slot only after the reply went out: a client
            // that disconnected mid-handshake never joined and its id
            // is reused.
            joined[id] = Some(listen);
            obs.counter("hub.joins").incr();
            obs.event(
                "hub.join",
                &[
                    ("id", Value::U(id as u64)),
                    ("neighbors", Value::U(neighbors.len() as u64)),
                ],
            );
            // Slots are never freed, so exactly one join fills the last.
            if joined.iter().all(|a| a.is_some()) {
                obs.event("hub.complete", &[("nodes", Value::U(expected as u64))]);
            }
            Ok(())
        }
        ["JOB"] => {
            // The text line is followed by one binary codec frame (a
            // `JobSubmit` or `JobCancel`) on the same stream. The
            // connection is then handed to the job layer, which replies
            // with a status line and streams result frames back on it.
            let msg = read_frame(&mut reader)?;
            if !matches!(msg, Message::JobSubmit { .. } | Message::JobCancel { .. }) {
                return Err(NetError::Codec("JOB frame was not a job frame".into()));
            }
            let handler = jobs.lock().clone();
            match handler {
                Some(h) => {
                    obs.counter("hub.jobs").incr();
                    h.handle(msg, w)
                }
                None => {
                    writeln!(w, "ERR no job service")?;
                    w.flush()?;
                    Ok(())
                }
            }
        }
        ["METRICS"] => {
            // Prometheus text exposition of the cluster-merged view;
            // the body ends when the hub closes the connection.
            w.write_all(telemetry.prometheus_text().as_bytes())?;
            w.flush()?;
            obs.counter("hub.scrapes").incr();
            Ok(())
        }
        ["STATUS"] => {
            w.write_all(telemetry.status_text().as_bytes())?;
            w.flush()?;
            obs.counter("hub.scrapes").incr();
            Ok(())
        }
        _ => Err(NetError::Codec(format!("bad hub request {line:?}"))),
    }
}

/// A live job-result stream: the client half of a `JOB` connection
/// after the hub's registered [`JobHandler`] accepted the submission.
/// Frames arrive in order: one `JobAccept`, zero or more
/// `JobImproved` (strictly improving lengths — anytime semantics),
/// and a terminal `JobDone`.
#[derive(Debug)]
pub struct JobStream {
    reader: BufReader<TcpStream>,
}

impl JobStream {
    /// Block for the next frame of the stream. After a `JobDone` the
    /// hub closes the connection and further calls return an error.
    pub fn next_frame(&mut self) -> Result<Message, NetError> {
        read_frame(&mut self.reader)
    }
}

/// Submit a solve job to the hub's `JOB` command and return the
/// assigned job id plus the live result stream. The submission frame's
/// `job` field is ignored — the scheduler assigns the id (returned in
/// the `OK <id>` status line and echoed on every stream frame).
///
/// An admission rejection (e.g. the tenant's flow budget is exhausted)
/// comes back as `job rejected: ERR …`.
pub fn submit_job(
    hub: SocketAddr,
    submit: &Message,
    cfg: &TcpConfig,
) -> Result<(u64, JobStream), NetError> {
    let mut stream = TcpStream::connect_timeout(&hub, cfg.connect_timeout)?;
    stream.set_write_timeout(Some(cfg.handshake_timeout)).ok();
    // Status line under the handshake deadline; once accepted, the
    // result stream is event-driven (improvements arrive whenever the
    // engine finds them), so reads block without a deadline.
    stream.set_read_timeout(Some(cfg.handshake_timeout)).ok();
    writeln!(stream, "JOB")?;
    write_frame(&mut stream, submit)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let tokens: Vec<&str> = line.trim().split(' ').collect();
    match tokens.as_slice() {
        ["OK", id] => {
            let job = id
                .parse()
                .map_err(|_| NetError::Codec(format!("bad job id {id:?}")))?;
            reader.get_ref().set_read_timeout(None).ok();
            Ok((job, JobStream { reader }))
        }
        ["ERR", ..] => Err(NetError::Codec(format!("job rejected: {}", line.trim()))),
        _ => Err(NetError::Codec(format!("bad job reply {line:?}"))),
    }
}

/// Cancel an in-flight job via the hub's `JOB` command. The job's
/// result stream (on its original connection) still terminates with a
/// `JobDone` carrying the best tour found up to the cancellation.
pub fn cancel_job(hub: SocketAddr, job: u64, cfg: &TcpConfig) -> Result<(), NetError> {
    let mut stream = TcpStream::connect_timeout(&hub, cfg.connect_timeout)?;
    stream.set_write_timeout(Some(cfg.handshake_timeout)).ok();
    stream.set_read_timeout(Some(cfg.handshake_timeout)).ok();
    writeln!(stream, "JOB")?;
    write_frame(
        &mut stream,
        &Message::JobCancel {
            from: 0,
            job,
            reason: 3,
        },
    )?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    match line.trim() {
        "OK" => Ok(()),
        other => Err(NetError::Codec(format!("bad cancel reply {other:?}"))),
    }
}

/// Scrape the hub's cluster-merged metrics (`METRICS`): the body is
/// Prometheus text exposition, terminated by connection close.
pub fn scrape_metrics(hub: SocketAddr, cfg: &TcpConfig) -> Result<String, NetError> {
    scrape(hub, "METRICS", cfg)
}

/// Scrape the hub's per-node convergence view (`STATUS`): one
/// `NODE …` line per reporting node.
pub fn scrape_status(hub: SocketAddr, cfg: &TcpConfig) -> Result<String, NetError> {
    scrape(hub, "STATUS", cfg)
}

fn scrape(hub: SocketAddr, cmd: &str, cfg: &TcpConfig) -> Result<String, NetError> {
    let mut stream = TcpStream::connect_timeout(&hub, cfg.connect_timeout)?;
    stream.set_write_timeout(Some(cfg.handshake_timeout)).ok();
    stream.set_read_timeout(Some(cfg.handshake_timeout)).ok();
    writeln!(stream, "{cmd}")?;
    stream.flush()?;
    let mut body = String::new();
    stream.read_to_string(&mut body)?;
    Ok(body)
}

fn retry_request<T>(
    cfg: &TcpConfig,
    mut attempt: impl FnMut() -> Result<T, NetError>,
) -> Result<T, NetError> {
    let mut backoff = cfg.backoff_base;
    let mut last_err = NetError::Closed;
    for n in 0..=cfg.connect_retries {
        if n > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(cfg.backoff_max);
        }
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    /// Minimal job handler for protocol tests: acknowledges the
    /// submission under a fixed id and immediately streams one
    /// improvement plus the terminal frame.
    struct EchoJobs;

    impl JobHandler for EchoJobs {
        fn handle(&self, first: Message, mut stream: TcpStream) -> Result<(), NetError> {
            match first {
                Message::JobSubmit { client, .. } => {
                    let job = crate::message::job_id(client, 0);
                    writeln!(stream, "OK {job}")?;
                    stream.flush()?;
                    write_frame(
                        &mut stream,
                        &Message::JobAccept {
                            from: 0,
                            job,
                            worker: 1,
                        },
                    )?;
                    write_frame(
                        &mut stream,
                        &Message::JobImproved {
                            from: 1,
                            job,
                            length: 10,
                            order: vec![0, 1, 2],
                        },
                    )?;
                    write_frame(
                        &mut stream,
                        &Message::JobDone {
                            from: 1,
                            job,
                            reason: 0,
                            length: 10,
                            order: vec![0, 1, 2],
                        },
                    )?;
                    Ok(())
                }
                Message::JobCancel { .. } => {
                    writeln!(stream, "OK")?;
                    stream.flush()?;
                    Ok(())
                }
                _ => Err(NetError::Codec("unexpected frame".into())),
            }
        }
    }

    fn sample_submit(client: u64) -> Message {
        Message::JobSubmit {
            from: 0,
            job: 0,
            client,
            seed: 1,
            kicks: 4,
            deadline_ms: 0,
            target: i64::MIN,
            payload_kind: 2,
            payload: b"[[0,0],[1,0],[1,1],[0,1]]".to_vec(),
            checkpoint: vec![],
        }
    }

    #[test]
    fn job_command_streams_frames() {
        let cfg = TcpConfig::default();
        let hub = LifecycleHub::start("127.0.0.1:0", 2, Topology::Ring).unwrap();
        // Before a handler is attached the command answers ERR.
        let err = submit_job(hub.addr(), &sample_submit(9), &cfg).unwrap_err();
        assert!(err.to_string().contains("no job service"), "{err}");

        hub.set_job_handler(Arc::new(EchoJobs));
        let (job, mut stream) = submit_job(hub.addr(), &sample_submit(9), &cfg).unwrap();
        assert_eq!(job, crate::message::job_id(9, 0));
        assert!(matches!(
            stream.next_frame().unwrap(),
            Message::JobAccept { job: j, .. } if j == job
        ));
        assert!(matches!(
            stream.next_frame().unwrap(),
            Message::JobImproved { length: 10, .. }
        ));
        assert!(matches!(
            stream.next_frame().unwrap(),
            Message::JobDone { reason: 0, .. }
        ));
        cancel_job(hub.addr(), job, &cfg).unwrap();

        // A junk frame after the JOB line must not reach the handler.
        let mut raw = TcpStream::connect(hub.addr()).unwrap();
        writeln!(raw, "JOB").unwrap();
        write_frame(&mut raw, &Message::Ping { from: 0 }).unwrap();
        let mut line = String::new();
        let _ = BufReader::new(raw).read_line(&mut line);
        assert!(line.is_empty(), "non-job frame must be dropped, got {line:?}");
    }

    #[test]
    fn parse_reply_with_neighbors() {
        let info =
            parse_join_reply("ID 3 EXPECT 8 NEIGHBORS 1@127.0.0.1:9001;2@127.0.0.1:9002\n")
                .unwrap();
        assert_eq!(info.id, 3);
        assert_eq!(info.expected, 8);
        assert_eq!(info.neighbors.len(), 2);
        assert_eq!(info.neighbors[0].0, 1);
    }

    #[test]
    fn parse_reply_empty_neighbors() {
        let info = parse_join_reply("ID 0 EXPECT 8 NEIGHBORS \n").unwrap();
        assert_eq!(info.id, 0);
        assert!(info.neighbors.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_join_reply("HELLO WORLD").is_err());
        assert!(parse_join_reply("ID x EXPECT 8 NEIGHBORS ").is_err());
    }

    #[test]
    fn hub_assigns_sequential_ids_and_earlier_neighbors() {
        let mut hub = LifecycleHub::start("127.0.0.1:0", 4, Topology::Ring).unwrap();
        let addr = hub.addr();
        let mut infos = Vec::new();
        for i in 0..4 {
            let listen: SocketAddr = format!("127.0.0.1:{}", 40000 + i).parse().unwrap();
            infos.push(join_via_hub(addr, listen).unwrap());
        }
        hub.stop();
        assert_eq!(infos[0].id, 0);
        assert!(infos[0].neighbors.is_empty());
        // Ring: node 3 neighbors {2, 0}, both already joined.
        assert_eq!(infos[3].id, 3);
        let ids: Vec<NodeId> = infos[3].neighbors.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&2) && ids.contains(&0));
    }

    #[test]
    fn hub_records_join_and_reject_events() {
        let obs = Obs::for_node(u32::MAX);
        let mut hub =
            LifecycleHub::start_with("127.0.0.1:0", 2, Topology::Ring, obs.clone()).unwrap();
        let addr = hub.addr();
        // Garbage requests first: each must be rejected, not crash the
        // hub. The membership repair and fencing commands are not hub
        // requests: deaths, rejoins and migration stay among the nodes.
        // (The fencing command is spelled in two parts so that a search
        // for its name finds no live code.)
        let bad = [
            "NONSENSE",
            "DOWN 0 1",
            "REJOIN 0 127.0.0.1:1",
            concat!("HUB", "CLAIM 9"),
            "TELEMETRY",
        ];
        for req in bad {
            let mut s = TcpStream::connect(addr).unwrap();
            writeln!(s, "{req}").unwrap();
        }
        // Give the hub a moment to process the bad requests before the
        // real joins race them.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let a = join_via_hub(addr, "127.0.0.1:40020".parse().unwrap()).unwrap();
        let b = join_via_hub(addr, "127.0.0.1:40021".parse().unwrap()).unwrap();
        assert_eq!((a.id, b.id), (0, 1));
        hub.stop();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hub.joins"), 2);
        assert_eq!(snap.counter("hub.rejects"), bad.len() as u64);
        if obs_api::ENABLED {
            let events = obs.events();
            assert_eq!(events.iter().filter(|e| e.kind == "hub.join").count(), 2);
            assert_eq!(
                events.iter().filter(|e| e.kind == "hub.reject").count(),
                bad.len()
            );
            assert_eq!(
                events.iter().filter(|e| e.kind == "hub.complete").count(),
                1
            );
        }
    }

    #[test]
    fn join_dead_hub_fails_within_retry_budget() {
        // Grab a port that was live and is now certainly dead.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let cfg = TcpConfig::fast_fail();
        let start = std::time::Instant::now();
        let res = join_via_hub_with(dead, "127.0.0.1:40000".parse().unwrap(), &cfg);
        assert!(res.is_err(), "joined a dead hub");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "dead-hub join took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn silent_connector_does_not_wedge_hub() {
        let mut hub = LifecycleHub::start("127.0.0.1:0", 2, Topology::Ring).unwrap();
        let addr = hub.addr();
        // Connect and say nothing: the hub must time out and move on.
        let _silent = TcpStream::connect(addr).unwrap();
        // Wait longer than the hub's handshake timeout so the joins
        // don't race the silent connector's eviction.
        let cfg = TcpConfig {
            handshake_timeout: std::time::Duration::from_secs(10),
            ..Default::default()
        };
        let a = join_via_hub_with(addr, "127.0.0.1:40010".parse().unwrap(), &cfg).unwrap();
        let b = join_via_hub_with(addr, "127.0.0.1:40011".parse().unwrap(), &cfg).unwrap();
        assert_eq!((a.id, b.id), (0, 1));
        hub.stop();
    }

    /// Satellite bugfix: malformed and truncated JOIN lines, and a
    /// client that disconnects mid-handshake, must not consume any of
    /// the `expected` slots — the full network still bootstraps.
    #[test]
    fn bad_handshakes_do_not_consume_slots() {
        let mut hub = LifecycleHub::start("127.0.0.1:0", 3, Topology::Ring).unwrap();
        let addr = hub.addr();
        {
            // Truncated request (no newline), then disconnect.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"JOI").unwrap();
        }
        {
            // Disconnect before sending anything.
            let _s = TcpStream::connect(addr).unwrap();
        }
        {
            // Malformed but complete line.
            let mut s = TcpStream::connect(addr).unwrap();
            writeln!(s, "JOIN not-an-address").unwrap();
        }
        {
            // Over-long line: the hub stops reading at the cap and may
            // close the socket before the write completes.
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = s.write_all(&[b'J'; 4 * MAX_REQUEST_LINE as usize]);
            let _ = s.write_all(b"\n");
        }
        // All three expected nodes still get ids 0..3.
        let mut ids = Vec::new();
        for i in 0..3 {
            let listen: SocketAddr = format!("127.0.0.1:{}", 40030 + i).parse().unwrap();
            ids.push(join_via_hub(addr, listen).unwrap().id);
        }
        hub.stop();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    /// A client that streams bytes without ever sending a newline is
    /// cut off at the request-line cap: the hub closes the connection,
    /// so the client's writes fail long before 64 MiB went out.
    #[test]
    fn endless_request_line_is_cut_off() {
        let obs = Obs::for_node(u32::MAX - 3);
        let mut hub =
            LifecycleHub::start_with("127.0.0.1:0", 1, Topology::Ring, obs.clone()).unwrap();
        let mut s = TcpStream::connect(hub.addr()).unwrap();
        s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
        let chunk = vec![b'x'; 64 * 1024];
        let failed = (0..1024).any(|_| s.write_all(&chunk).is_err());
        assert!(failed, "hub accepted a 64 MiB request line");
        drop(s);
        // The hub still serves a real join afterwards.
        let info = join_via_hub(hub.addr(), "127.0.0.1:40050".parse().unwrap()).unwrap();
        assert_eq!(info.id, 0);
        hub.stop();
        assert_eq!(obs.snapshot().counter("hub.rejects"), 1);
    }

    /// The live telemetry plane over real sockets: frames ingested into
    /// the hub's store are served by `METRICS` as the cluster-merged
    /// Prometheus view and by `STATUS` as per-node convergence lines.
    #[test]
    fn telemetry_ingest_and_scrape_over_sockets() {
        let mut hub = LifecycleHub::start("127.0.0.1:0", 4, Topology::Ring).unwrap();
        let addr = hub.addr();
        let cfg = TcpConfig::default();
        let store = hub.telemetry();
        store.set_reference(Some(100));

        let f0 = Message::Telemetry {
            from: 0,
            t_ns: 10,
            rtt_ns: 0,
            best_len: 110,
            clk_calls: 42,
            stalled: false,
            counters: vec![("clk.calls".into(), 42)],
            gauges: vec![("node.best".into(), 110)],
            events_jsonl: vec![],
        };
        let t0 = store.ingest(&f0).unwrap();
        let f1 = Message::Telemetry {
            from: 1,
            t_ns: 11,
            rtt_ns: 5,
            best_len: 100,
            clk_calls: 8,
            stalled: true,
            counters: vec![("clk.calls".into(), 8)],
            gauges: vec![("node.best".into(), 100)],
            events_jsonl: vec![],
        };
        let t1 = store.ingest(&f1).unwrap();
        assert!(t1 >= t0, "hub clock went backwards: {t0} -> {t1}");

        let metrics = scrape_metrics(addr, &cfg).unwrap();
        assert!(metrics.contains("clk_calls 50"), "{metrics}");
        assert!(metrics.contains("node_best 210"), "{metrics}");
        assert!(metrics.contains("telemetry_nodes_reporting 2"), "{metrics}");
        assert!(metrics.contains("telemetry_nodes_stalled 1"), "{metrics}");
        let status = scrape_status(addr, &cfg).unwrap();
        assert!(status.contains("NODE 0 BEST 110 GAP 10.0000"), "{status}");
        assert!(status.contains("NODE 1 BEST 100 GAP 0.0000"), "{status}");
        assert!(status.lines().any(|l| l.starts_with("NODE 1") && l.contains("STALLED 1")));
        assert_eq!(store.nodes(), vec![0, 1]);
        hub.stop();
    }

    #[test]
    fn bootstrap_local_wires_full_topology() {
        let mut eps = bootstrap_local(4, Topology::Ring).unwrap();
        // Give reverse edges a moment to register.
        crate::util::wait_until(
            || eps.iter().all(|e| e.neighbors().len() == 2),
            std::time::Duration::from_secs(3),
        );
        for (i, e) in eps.iter().enumerate() {
            let mut nb = e.neighbors();
            nb.sort_unstable();
            let mut want = Topology::Ring.neighbors(i, 4);
            want.sort_unstable();
            assert_eq!(nb, want, "node {i}");
        }
        for e in &mut eps {
            e.shutdown();
        }
    }
}
