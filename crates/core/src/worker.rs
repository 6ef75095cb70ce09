//! The `pimsyn worker-serve` evaluation server.
//!
//! [`serve_workers`] accepts TCP connections from the
//! [`RemoteBackend`](pimsyn_dse::RemoteBackend), guards each with the
//! protocol's transport handshake (version check plus an optional shared
//! auth token), and then serves one worker *session* per connection using
//! the protocol of [`pimsyn_dse::backend::protocol`]: an `init` line fixing
//! a run's model, hardware, power, macro mode and objective, acknowledged
//! by a `ready` line, then a stream of binary `score_batch` frames, each
//! answered with one `score_reply` frame. Scoring runs the same
//! [`EvalCore`] pipeline as in-process evaluation, so worker scores are
//! bit-identical to inline ones (floats cross the wire as IEEE-754 bit
//! patterns).
//!
//! A connection outlives any single run: a later `init` line *re-opens
//! the session* — the model/hardware/power are re-ingested, a fresh
//! `ready` line acknowledges them, and scoring continues under the new
//! run's parameters. This is what lets a long-lived
//! [`RemotePool`](pimsyn_dse::RemotePool) recycle connections across
//! synthesis jobs instead of dialing a fresh complement per run.
//!
//! A session ends when the peer closes the connection, and on the first
//! malformed message (after sending a diagnostic `error` line or frame the
//! peer surfaces); the dialing backend recomputes any in-flight work
//! inline, so a failing session never changes results.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use crate::service::registry;

use pimsyn_arch::{hardware_config, CrossbarConfig, DacConfig, Watts};
use pimsyn_dse::backend::protocol::{
    bye_line, decode_score_batch, encode_score_reply, error_line, parse_bye, parse_handshake,
    read_frame, ready_line, stop_line, welcome_line, write_frame, BatchItem, TcpHandshake,
    WorkerInit, FRAME_ERROR, FRAME_SCORE_BATCH, FRAME_SCORE_REPLY, NO_FREE_SLOTS,
};
use pimsyn_dse::{CandidateScore, DesignPoint, EvalCacheConfig, EvalCore, MacAllocGene};
use pimsyn_ir::Dataflow;
use pimsyn_model::onnx;

/// Dataflow-identity of a batch item: `(xb_size, cell_bits, dac_bits,
/// wt_dup)` — everything `Dataflow::compile` consumes besides the model.
type DataflowKey = (u32, u32, u32, Vec<u32>);

/// One inbound protocol unit, distinguished by peeking the first byte: a
/// JSON line starts with `{`, a binary frame with a frame-kind byte (which
/// never collides with `{`).
enum Incoming {
    /// The transport closed cleanly.
    Eof,
    /// One JSON protocol line (a session init).
    Line(String),
    /// One binary frame.
    Frame(u8, Vec<u8>),
}

/// Reads the next protocol unit. Frames are only recognized once a
/// session is open (`allow_frames`); before that every byte stream is
/// read as JSON lines.
fn read_incoming(input: &mut impl BufRead, allow_frames: bool) -> Result<Incoming, String> {
    loop {
        let first = {
            let buf = input
                .fill_buf()
                .map_err(|e| format!("session read failed: {e}"))?;
            if buf.is_empty() {
                return Ok(Incoming::Eof);
            }
            buf[0]
        };
        if allow_frames && matches!(first, FRAME_SCORE_BATCH | FRAME_SCORE_REPLY | FRAME_ERROR) {
            let (kind, payload) =
                read_frame(input).map_err(|e| format!("frame read failed: {e}"))?;
            return Ok(Incoming::Frame(kind, payload));
        }
        // Bytes, not `read_line`: a non-UTF-8 line is a malformed message
        // the peer is told about, not a transport failure.
        let mut bytes = Vec::new();
        let n = input
            .read_until(b'\n', &mut bytes)
            .map_err(|e| format!("session read failed: {e}"))?;
        if n == 0 {
            return Ok(Incoming::Eof);
        }
        let line = String::from_utf8_lossy(&bytes).into_owned();
        if line.trim().is_empty() {
            continue;
        }
        return Ok(Incoming::Line(line));
    }
}

/// Scores one batch item through the same pipeline as in-process
/// evaluation, reusing `compiled` when consecutive items share a dataflow;
/// anything uncompilable is INFEASIBLE, never an error.
fn score_item(
    model: &pimsyn_model::Model,
    core: &EvalCore<'_>,
    compiled: &mut Option<(DataflowKey, Dataflow)>,
    item: BatchItem,
) -> CandidateScore {
    (|| -> Option<CandidateScore> {
        let crossbar = CrossbarConfig::new(item.xb_size as usize, item.cell_bits).ok()?;
        let dac = DacConfig::new(item.dac_bits).ok()?;
        let key = (item.xb_size, item.cell_bits, item.dac_bits, item.wt_dup);
        if compiled.as_ref().map(|(k, _)| k) != Some(&key) {
            let wt_dup: Vec<usize> = key.3.iter().map(|&d| d as usize).collect();
            let df = Dataflow::compile(model, crossbar, dac, &wt_dup).ok()?;
            *compiled = Some((key, df));
        }
        let (_, df) = compiled.as_ref().expect("just compiled");
        let gene = MacAllocGene::from_raw(item.gene).ok()?;
        let point = DesignPoint {
            ratio_rram: f64::from_bits(item.ratio_bits),
            crossbar,
        };
        Some(core.score(df, point, &gene))
    })()
    .unwrap_or(CandidateScore::INFEASIBLE)
}

/// Serves one worker session over the given streams, with `faults` applied
/// to every score exchange (see [`FaultInjection`]; the default injects
/// nothing); returns the protocol error that ended it, if any. Repeated
/// `init` lines re-open the session with new run parameters (each
/// acknowledged by its own `ready` line). Errors are reported to the peer
/// as an `error` line or frame before they are returned.
fn run_worker(
    mut input: impl BufRead,
    mut output: impl Write,
    faults: &FaultInjection,
) -> Result<(), String> {
    // Score exchanges answered on this connection so far (1-based), the
    // clock the stall/drop faults tick on.
    let mut exchanges = 0usize;
    // Before a session opens the peer reads JSON lines, so errors travel
    // as an error line.
    let fail_line = |output: &mut dyn Write, detail: String| -> Result<(), String> {
        let _ = writeln!(output, "{}", error_line(&detail));
        let _ = output.flush();
        Err(detail)
    };
    // In an open session the peer reads frames, so errors must travel as
    // an error *frame* — a JSON error line would be misread as a frame
    // header.
    let fail_frame = |output: &mut dyn Write, detail: String| -> Result<(), String> {
        let _ = write_frame(output, FRAME_ERROR, detail.as_bytes());
        let _ = output.flush();
        Err(detail)
    };

    // The first message is a JSON init line.
    let mut pending = match read_incoming(&mut input, false)? {
        Incoming::Eof => return Ok(()), // empty session: nothing to do
        Incoming::Line(line) => match WorkerInit::parse(line.trim()) {
            Ok(init) => Some(init),
            Err(e) => return fail_line(&mut output, e),
        },
        Incoming::Frame(..) => unreachable!("frames are not recognized before init"),
    };

    // One iteration per session: ingest the init, acknowledge, then score
    // until the peer closes or another init re-opens the session.
    while let Some(init) = pending.take() {
        let WorkerInit {
            model_json,
            hw_json,
            power_bits,
            macro_mode,
            objective,
        } = init;
        let model = match onnx::parse_model(&model_json) {
            Ok(m) => m,
            Err(e) => return fail_line(&mut output, format!("cannot ingest model: {e}")),
        };
        let hw = match hardware_config::from_json_exact(&hw_json) {
            Ok(hw) => hw,
            Err(e) => return fail_line(&mut output, format!("cannot ingest hardware params: {e}")),
        };
        let core = EvalCore::new(
            &model,
            Watts(f64::from_bits(power_bits)),
            &hw,
            macro_mode,
            objective,
            EvalCacheConfig::default(),
        );
        writeln!(output, "{}", ready_line()).map_err(|e| format!("session write failed: {e}"))?;
        output
            .flush()
            .map_err(|e| format!("session flush failed: {e}"))?;

        // Items of one batch share a dataflow; cache the last compiled one
        // (per session — the model changed, so it cannot carry over).
        let mut compiled: Option<(DataflowKey, Dataflow)> = None;
        loop {
            match read_incoming(&mut input, true)? {
                Incoming::Eof => break,
                Incoming::Line(line) => match WorkerInit::parse(line.trim()) {
                    // Session re-open: a new run leased this connection.
                    Ok(next) => {
                        pending = Some(next);
                        break;
                    }
                    Err(e) => return fail_frame(&mut output, e),
                },
                Incoming::Frame(FRAME_SCORE_BATCH, payload) => {
                    let (id_base, items) = match decode_score_batch(&payload) {
                        Ok(batch) => batch,
                        Err(e) => return fail_frame(&mut output, e),
                    };
                    exchanges += 1;
                    if faults.should_drop(exchanges) {
                        return Ok(()); // injected fault: die mid-chunk
                    }
                    let jobs = items.len();
                    let scores: Vec<CandidateScore> = items
                        .into_iter()
                        .map(|item| score_item(&model, &core, &mut compiled, item))
                        .collect();
                    faults.delay_reply(exchanges, jobs);
                    write_frame(
                        &mut output,
                        FRAME_SCORE_REPLY,
                        &encode_score_reply(id_base, &scores),
                    )
                    .map_err(|e| format!("session write failed: {e}"))?;
                    output
                        .flush()
                        .map_err(|e| format!("session flush failed: {e}"))?;
                }
                Incoming::Frame(kind, _) => {
                    return fail_frame(&mut output, format!("unexpected frame kind 0x{kind:02x}"))
                }
            }
        }
    }
    Ok(())
}

/// Artificial worker misbehavior, injected into served sessions for chaos
/// tests, CI smokes, and the straggler-scheduling bench. All off by
/// default (and in every production path): faults only run when a test
/// sets them on [`WorkerServeConfig`] directly or the `worker-serve` CLI
/// picks them up from `PIMSYN_FAULT_*` environment variables.
///
/// The injected faults model the real failure shapes the adaptive chunker
/// must stay bit-identical under:
///
/// - **Per-batch / per-job delay** — a uniformly slow worker (loaded box,
///   cold cache). `PIMSYN_FAULT_BATCH_DELAY_MS` sleeps once per score
///   exchange; `PIMSYN_FAULT_JOB_DELAY_US` sleeps once per candidate, so
///   the slowdown scales with chunk size like real compute does.
/// - **Mid-run stall** — a worker that degrades after warmup.
///   `PIMSYN_FAULT_STALL_AFTER` lets that many score exchanges answer
///   normally, then every later reply is delayed `PIMSYN_FAULT_STALL_MS`
///   (default 5000).
/// - **Connection drop** — a worker that dies mid-chunk. With
///   `PIMSYN_FAULT_DROP_EVERY=n`, every nth score exchange on a
///   connection closes the socket instead of answering; the dialing
///   backend recomputes the chunk inline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Sleep before answering each score exchange.
    pub batch_delay: Option<Duration>,
    /// Sleep per candidate in each score exchange.
    pub job_delay: Option<Duration>,
    /// Score exchanges answered normally before stalling kicks in.
    pub stall_after: Option<usize>,
    /// The per-reply stall once [`stall_after`](Self::stall_after) is
    /// exceeded.
    pub stall_delay: Duration,
    /// Close the connection instead of answering every nth exchange.
    pub drop_every: Option<usize>,
}

impl FaultInjection {
    /// Reads the `PIMSYN_FAULT_*` variables (unset, empty, unparsable and
    /// zero all mean "off"). Used by the `worker-serve` CLI so test
    /// harnesses can misconfigure a stock binary without new flags.
    pub fn from_env() -> Self {
        let read = |name: &str| -> Option<u64> {
            std::env::var(name)
                .ok()?
                .trim()
                .parse()
                .ok()
                .filter(|&v| v > 0)
        };
        Self {
            batch_delay: read("PIMSYN_FAULT_BATCH_DELAY_MS").map(Duration::from_millis),
            job_delay: read("PIMSYN_FAULT_JOB_DELAY_US").map(Duration::from_micros),
            stall_after: read("PIMSYN_FAULT_STALL_AFTER").map(|v| v as usize),
            stall_delay: read("PIMSYN_FAULT_STALL_MS")
                .map(Duration::from_millis)
                .unwrap_or(Duration::from_secs(5)),
            drop_every: read("PIMSYN_FAULT_DROP_EVERY").map(|v| v as usize),
        }
    }

    /// Whether any fault is configured.
    pub fn is_active(&self) -> bool {
        self.batch_delay.is_some()
            || self.job_delay.is_some()
            || self.stall_after.is_some()
            || self.drop_every.is_some()
    }

    /// Whether the `exchange`th (1-based) score exchange on a connection
    /// should close the socket instead of answering.
    fn should_drop(&self, exchange: usize) -> bool {
        self.drop_every
            .is_some_and(|n| n > 0 && exchange.is_multiple_of(n))
    }

    /// Injects the configured delays before the reply to the `exchange`th
    /// (1-based) score exchange carrying `jobs` candidates.
    fn delay_reply(&self, exchange: usize, jobs: usize) {
        if let Some(delay) = self.batch_delay {
            std::thread::sleep(delay);
        }
        if let Some(delay) = self.job_delay {
            std::thread::sleep(delay.saturating_mul(jobs.min(u32::MAX as usize) as u32));
        }
        if self.stall_after.is_some_and(|n| exchange > n) {
            std::thread::sleep(self.stall_delay);
        }
    }
}

/// Configuration of a [`serve_workers`] daemon.
#[derive(Debug, Clone, Default)]
pub struct WorkerServeConfig {
    /// Concurrent worker sessions served (`0` = one per available core).
    /// Connections past the cap are answered with an `error` frame and
    /// closed; the dialing backend scores those chunks inline.
    pub slots: usize,
    /// Shared auth token. When set, a `hello` (or `stop`) frame must carry
    /// the same token or the connection is rejected.
    pub token: Option<String>,
    /// Suppress per-connection log lines on stderr. The one `listening on
    /// <addr>` startup line prints regardless — it is the script-facing
    /// way to learn the bound port when listening on port 0.
    pub quiet: bool,
    /// A worker registry (`HOST:PORT` of a `pimsyn gateway` started with
    /// `--worker-registry`) to announce this daemon to. While
    /// serving, a background thread keeps the registration alive with
    /// heartbeats and deregisters gracefully when the daemon stops.
    pub announce: Option<String>,
    /// Artificial misbehavior injected into every served session — the
    /// chaos-test harness. [`FaultInjection::default`] (all off) in any
    /// production configuration.
    pub faults: FaultInjection,
}

impl WorkerServeConfig {
    fn resolved_slots(&self) -> usize {
        if self.slots == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.slots
        }
    }
}

/// How long a dialing peer gets to send its handshake frame before the
/// connection is dropped (keeps port scanners and wedged peers from
/// pinning sessions open).
const TCP_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Bounded dial for [`stop_worker_server`], matching the remote backend's
/// own connect timeout.
const STOP_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-read idle bound on an open worker session. A healthy dialer sends
/// batches continuously while a run is live and closes the connection when
/// it ends, so a session silent this long is a half-open peer (power-
/// failed client, NAT silently dropping the flow) — without the bound it
/// would pin one of the daemon's slots until restart. A dialer that does
/// trip it just reconnects and re-opens its session on the next batch;
/// scoring is pure, so results are unaffected.
const SESSION_IDLE_TIMEOUT: Duration = Duration::from_secs(15 * 60);

struct WorkerServeState {
    slots: usize,
    token: Option<String>,
    quiet: bool,
    addr: SocketAddr,
    faults: FaultInjection,
    active: AtomicUsize,
    stop: AtomicBool,
}

impl WorkerServeState {
    fn note(&self, message: &str) {
        if !self.quiet {
            eprintln!("pimsyn worker-serve: {message}");
        }
    }
}

fn reply_frame(stream: &mut TcpStream, line: &str) {
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}

/// Self-connects to a listener to unblock its blocking accept loop after a
/// stop flag was set. A wildcard bind address (`0.0.0.0` / `::`) is not
/// connectable on every platform, so it is rewritten to the matching
/// loopback address first.
pub(crate) fn poke_listener(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    if TcpStream::connect(target).is_err() {
        eprintln!(
            "pimsyn: cannot poke the listener on {addr} to finish shutdown; \
             it will stop on its next accepted connection"
        );
    }
}

/// Serves evaluation-worker sessions over TCP until a `stop` frame
/// arrives, blocking the calling thread. Each accepted connection is
/// handshaked (protocol version, optional auth token, free-slot check) and
/// then served as one worker session on its own thread, ended by the peer
/// closing the socket.
///
/// On startup the actually-bound address — including the kernel-resolved
/// port when the listener was bound to port 0 — is printed to stderr as
/// `pimsyn worker-serve: listening on <addr>` regardless of `quiet`, so
/// scripts and tests can bind port 0 instead of racing for free ports.
///
/// A `stop` ends the accept loop only; sessions still in flight are cut
/// when the process exits, and their dialing backends recompute the
/// affected chunks inline (results are unaffected — scoring is pure).
///
/// # Errors
///
/// Propagates listener-level IO errors (failure to read the local address
/// or accept connections); per-connection errors only drop that
/// connection.
pub fn serve_workers(listener: TcpListener, config: WorkerServeConfig) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let state = Arc::new(WorkerServeState {
        slots: config.resolved_slots(),
        token: config.token.clone(),
        quiet: config.quiet,
        addr,
        faults: config.faults.clone(),
        active: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    });
    if state.faults.is_active() {
        // Loud by design: a daemon that deliberately misbehaves must never
        // pass for a healthy one in a log.
        eprintln!(
            "pimsyn worker-serve: FAULT INJECTION ACTIVE: {:?}",
            state.faults
        );
    }
    // Unconditional: the script-facing bound-address line (see above).
    eprintln!("pimsyn worker-serve: listening on {addr}");
    let announcer = config
        .announce
        .map(|registry| start_announcer(registry, config.token, addr, state.slots, config.quiet));
    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(&state);
        std::thread::spawn(move || handle_worker_connection(&state, stream));
    }
    if let Some(announcer) = announcer {
        announcer.stop(); // deregisters gracefully (a drain message)
    }
    state.note("stopped");
    Ok(())
}

/// Bounded dial for the registry announce path, matching the remote
/// backend's own connect timeout.
const ANNOUNCE_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the announcer waits for the registry's replies.
const ANNOUNCE_REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the announcer waits before redialing a registry it cannot
/// reach (or that hung up on it).
const ANNOUNCE_REDIAL_BACKOFF: Duration = Duration::from_secs(2);

/// Handle to the registry-announce thread of a worker daemon.
struct Announcer {
    tx: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Announcer {
    /// Signals the announce thread to deregister (a graceful `drain`
    /// message) and waits for it to finish.
    fn stop(self) {
        let _ = self.tx.send(());
        let _ = self.thread.join();
    }
}

/// Starts the background thread that keeps this daemon registered with a
/// worker registry: announce once, heartbeat at the registry-assigned
/// interval, redial with backoff on connection loss, deregister on stop.
fn start_announcer(
    registry: String,
    token: Option<String>,
    listen: SocketAddr,
    slots: usize,
    quiet: bool,
) -> Announcer {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        run_announcer(&registry, token.as_deref(), listen, slots, quiet, &rx);
    });
    Announcer { tx, thread }
}

/// Dials the registry and announces this daemon. Returns the open
/// connection (heartbeats reuse it), the address that was advertised, and
/// the registry-assigned heartbeat interval.
fn announce_once(
    registry: &str,
    token: Option<&str>,
    listen: SocketAddr,
    slots: usize,
) -> Result<(TcpStream, String, Duration), String> {
    let mut stream = pimsyn_dse::backend::dial_bounded(registry, ANNOUNCE_CONNECT_TIMEOUT)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ANNOUNCE_REPLY_TIMEOUT));
    // A daemon listening on a wildcard address advertises the concrete
    // interface this very connection reached the registry over — the one
    // address the registry's service is known to be able to dial back.
    let mut advertised = listen;
    if advertised.ip().is_unspecified() {
        let local = stream
            .local_addr()
            .map_err(|e| format!("cannot resolve the announce source address: {e}"))?;
        advertised.set_ip(local.ip());
    }
    let advertised = advertised.to_string();
    writeln!(
        stream,
        "{}",
        registry::announce_line(&advertised, slots, token)
    )
    .and_then(|()| stream.flush())
    .map_err(|e| format!("cannot announce to {registry}: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone the registry stream: {e}"))?,
    );
    let mut line = String::new();
    let interval = match reader.read_line(&mut line) {
        Ok(n) if n > 0 => match registry::parse_registry_reply(line.trim())? {
            registry::RegistryReply::Registered { interval } => interval,
            registry::RegistryReply::Bye => {
                return Err(format!("{registry} answered an announce with a bye"))
            }
        },
        Ok(_) => return Err(format!("{registry} closed the connection without replying")),
        Err(e) => {
            return Err(format!(
                "cannot read the announce reply from {registry}: {e}"
            ))
        }
    };
    Ok((stream, advertised, interval))
}

/// The announce thread body: keep one registration alive until `stop`
/// fires, then deregister gracefully.
fn run_announcer(
    registry: &str,
    token: Option<&str>,
    listen: SocketAddr,
    slots: usize,
    quiet: bool,
    stop: &mpsc::Receiver<()>,
) {
    let note = |message: &str| {
        if !quiet {
            eprintln!("pimsyn worker-serve: {message}");
        }
    };
    loop {
        match announce_once(registry, token, listen, slots) {
            Ok((mut stream, advertised, interval)) => {
                note(&format!(
                    "announced {advertised} to registry {registry} (heartbeat every {}s)",
                    interval.as_secs().max(1)
                ));
                loop {
                    match stop.recv_timeout(interval) {
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            let beat = registry::heartbeat_line(&advertised, slots, token);
                            if writeln!(stream, "{beat}")
                                .and_then(|()| stream.flush())
                                .is_err()
                            {
                                note("lost the registry connection; redialing");
                                break; // back to the outer redial loop
                            }
                        }
                        _ => {
                            // Graceful deregistration; the reply is read
                            // best-effort — the daemon is exiting anyway.
                            let _ =
                                writeln!(stream, "{}", registry::drain_line(&advertised, token))
                                    .and_then(|()| stream.flush());
                            let mut reader = BufReader::new(&stream);
                            let mut line = String::new();
                            let _ = reader.read_line(&mut line);
                            note("deregistered from the registry");
                            return;
                        }
                    }
                }
            }
            Err(e) => {
                note(&format!("registry announce failed: {e}; retrying"));
                if !matches!(
                    stop.recv_timeout(ANNOUNCE_REDIAL_BACKOFF),
                    Err(mpsc::RecvTimeoutError::Timeout)
                ) {
                    return;
                }
            }
        }
    }
}

/// Decrements the active-session counter even if the session panics.
struct SessionGuard<'a>(&'a WorkerServeState);

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_worker_connection(state: &Arc<WorkerServeState>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(TCP_HANDSHAKE_TIMEOUT));
    let Ok(peer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(peer);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => {}
        _ => return, // peer hung up (or stalled) before the handshake
    }
    let handshake = match parse_handshake(line.trim()) {
        Ok(handshake) => handshake,
        Err(detail) => {
            reply_frame(&mut stream, &error_line(&detail));
            return;
        }
    };
    let token = match &handshake {
        TcpHandshake::Hello { token } | TcpHandshake::Stop { token } => token,
    };
    if state.token.is_some() && state.token != *token {
        state.note("rejected a connection: bad or missing auth token");
        reply_frame(
            &mut stream,
            &error_line("authentication failed: bad or missing token"),
        );
        return;
    }
    match handshake {
        TcpHandshake::Stop { .. } => {
            state.note("stop requested");
            reply_frame(&mut stream, &bye_line());
            state.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop so `serve_workers` observes the flag.
            poke_listener(state.addr);
        }
        TcpHandshake::Hello { .. } => {
            let prior = state.active.fetch_add(1, Ordering::SeqCst);
            if prior >= state.slots {
                state.active.fetch_sub(1, Ordering::SeqCst);
                reply_frame(
                    &mut stream,
                    &error_line(&format!("{NO_FREE_SLOTS} ({} in use)", state.slots)),
                );
                return;
            }
            let _guard = SessionGuard(state);
            // Advertise the sessions still available to this peer at
            // handshake time (including this one), so a daemon shared by
            // several runs throttles each to what actually remains
            // instead of inviting rejections.
            reply_frame(&mut stream, &welcome_line(state.slots - prior));
            // Sessions get a generous idle bound instead of no timeout:
            // healthy backends send batches continuously, and a half-open
            // peer must not pin this slot forever.
            let _ = stream.set_read_timeout(Some(SESSION_IDLE_TIMEOUT));
            state.note("session opened");
            let _ = run_worker(reader, &mut stream, &state.faults);
            state.note("session closed");
        }
    }
}

/// Handle to a worker daemon running on a background thread (in-process
/// embeddings and tests; the CLI's `pimsyn worker-serve` blocks on
/// [`serve_workers`] directly).
#[derive(Debug)]
pub struct WorkerServeHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl WorkerServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to stop (a `stop` frame) and returns its exit
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if the daemon thread itself panicked (a bug).
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().expect("worker-serve thread panicked")
    }
}

/// [`serve_workers`] on a background thread, returning immediately with a
/// handle.
///
/// # Errors
///
/// Propagates the listener's local-address lookup failure.
pub fn serve_workers_in_background(
    listener: TcpListener,
    config: WorkerServeConfig,
) -> std::io::Result<WorkerServeHandle> {
    let addr = listener.local_addr()?;
    let thread = std::thread::spawn(move || serve_workers(listener, config));
    Ok(WorkerServeHandle { addr, thread })
}

/// Asks the worker daemon at `addr` to stop, authenticating with `token`
/// when given (required when the daemon was started with an auth token).
///
/// # Errors
///
/// Transport failures, or the daemon's refusal (bad token).
pub fn stop_worker_server(addr: &str, token: Option<&str>) -> Result<(), String> {
    // Bounded connect (trying every resolved address), so a script
    // sweeping a roster of daemons never hangs on a dead host for the OS
    // default TCP timeout.
    let mut stream = pimsyn_dse::backend::dial_bounded(addr, STOP_CONNECT_TIMEOUT)?;
    let _ = stream.set_read_timeout(Some(TCP_HANDSHAKE_TIMEOUT));
    writeln!(stream, "{}", stop_line(token))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("cannot send stop to {addr}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => parse_bye(line.trim()),
        Ok(_) => Err(format!("{addr} closed the connection without replying")),
        Err(e) => Err(format!("cannot read the stop reply from {addr}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsyn_arch::{HardwareParams, MacroMode};
    use pimsyn_dse::backend::protocol::{decode_error_frame, decode_score_reply, parse_ready};
    use pimsyn_dse::Objective;
    use pimsyn_model::zoo;

    fn init_line(model_power: f64) -> String {
        let model = zoo::alexnet_cifar(10);
        WorkerInit {
            model_json: onnx::to_json(&model),
            hw_json: hardware_config::to_json_exact(&HardwareParams::date24()),
            power_bits: model_power.to_bits(),
            macro_mode: MacroMode::Specialized,
            objective: Objective::PowerEfficiency,
        }
        .to_line()
    }

    /// One batch item scoring `gene` on alexnet-cifar at the test design
    /// point (128×128 2-bit crossbars, 1-bit DAC, no duplication).
    fn item(gene: &MacAllocGene) -> BatchItem {
        let l = zoo::alexnet_cifar(10).weight_layer_count();
        BatchItem {
            ratio_bits: 0.3f64.to_bits(),
            xb_size: 128,
            cell_bits: 2,
            dac_bits: 1,
            wt_dup: vec![1; l],
            gene: gene.as_slice().to_vec(),
        }
    }

    fn gene(macros: usize) -> MacAllocGene {
        let l = zoo::alexnet_cifar(10).weight_layer_count();
        MacAllocGene::encode(&vec![macros; l], &vec![None; l])
    }

    /// Appends an init line to a scripted session.
    fn push_init(session: &mut Vec<u8>, power: f64) {
        session.extend_from_slice(init_line(power).as_bytes());
        session.push(b'\n');
    }

    /// Appends a `score_batch` frame to a scripted session.
    fn push_batch(session: &mut Vec<u8>, id_base: u64, items: &[BatchItem]) {
        let payload = pimsyn_dse::backend::protocol::encode_score_batch(id_base, items);
        write_frame(session, FRAME_SCORE_BATCH, &payload).unwrap();
    }

    /// Reads the next `ready` line off a session's output.
    fn expect_ready(reader: &mut impl BufRead) {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        parse_ready(line.trim()).expect("valid ready");
    }

    /// Reads the next `score_reply` frame off a session's output.
    fn expect_reply(reader: &mut impl BufRead) -> (u64, Vec<CandidateScore>) {
        let (kind, payload) = read_frame(reader).expect("reply frame");
        assert_eq!(kind, FRAME_SCORE_REPLY);
        decode_score_reply(&payload).unwrap()
    }

    fn core_at<'a>(
        model: &'a pimsyn_model::Model,
        hw: &'a HardwareParams,
        power: f64,
    ) -> EvalCore<'a> {
        EvalCore::new(
            model,
            Watts(power),
            hw,
            MacroMode::Specialized,
            Objective::PowerEfficiency,
            EvalCacheConfig::default(),
        )
    }

    fn test_dataflow(model: &pimsyn_model::Model) -> (Dataflow, DesignPoint) {
        let xb = CrossbarConfig::new(128, 2).unwrap();
        let dup = vec![1usize; model.weight_layer_count()];
        let df = Dataflow::compile(model, xb, DacConfig::new(1).unwrap(), &dup).unwrap();
        let point = DesignPoint {
            ratio_rram: 0.3,
            crossbar: xb,
        };
        (df, point)
    }

    #[test]
    fn worker_session_scores_bit_identically_to_inline() {
        let model = zoo::alexnet_cifar(10);
        let hw = HardwareParams::date24();
        let (df, point) = test_dataflow(&model);
        let genes: Vec<MacAllocGene> = (1..=3).map(gene).collect();

        // Drive a full session through in-memory pipes.
        let mut session = Vec::new();
        push_init(&mut session, 9.0);
        push_batch(
            &mut session,
            40,
            &genes.iter().map(item).collect::<Vec<_>>(),
        );
        let mut output = Vec::new();
        run_worker(&session[..], &mut output, &FaultInjection::default()).expect("clean session");
        let mut reader = &output[..];
        expect_ready(&mut reader);
        let (id_base, scores) = expect_reply(&mut reader);
        assert_eq!(id_base, 40);
        assert_eq!(scores.len(), genes.len());

        // Compare against in-process scoring, bit for bit.
        let core = core_at(&model, &hw, 9.0);
        for (got, gene) in scores.iter().zip(&genes) {
            let expect = core.score(&df, point, gene);
            assert_eq!(got.fitness.to_bits(), expect.fitness.to_bits());
            assert_eq!(got.feasible, expect.feasible);
        }
        assert!(reader.is_empty());
    }

    #[test]
    fn second_init_reopens_the_session() {
        // Two back-to-back sessions at different power levels on one
        // connection: each init is acknowledged by its own ready line, and
        // the same candidate scores under each budget bit-identically to
        // in-process scoring at that power.
        let model = zoo::alexnet_cifar(10);
        let hw = HardwareParams::date24();
        let (df, point) = test_dataflow(&model);
        let g = gene(2);
        let mut session = Vec::new();
        for (power, id_base) in [(9.0, 0u64), (15.0, 7)] {
            push_init(&mut session, power);
            push_batch(&mut session, id_base, &[item(&g)]);
        }
        let mut output = Vec::new();
        run_worker(&session[..], &mut output, &FaultInjection::default())
            .expect("clean two-session run");
        let mut reader = &output[..];
        for (power, id_base) in [(9.0, 0u64), (15.0, 7)] {
            expect_ready(&mut reader);
            let (got_base, scores) = expect_reply(&mut reader);
            assert_eq!(got_base, id_base);
            let expect = core_at(&model, &hw, power).score(&df, point, &g);
            assert_eq!(scores[0].fitness.to_bits(), expect.fitness.to_bits());
            assert_eq!(scores[0].feasible, expect.feasible);
        }
        assert!(reader.is_empty());
    }

    #[test]
    fn worker_rejects_garbage_with_an_error_line() {
        let mut output = Vec::new();
        let err = run_worker(
            "not json\n".as_bytes(),
            &mut output,
            &FaultInjection::default(),
        )
        .unwrap_err();
        assert!(err.contains("malformed"), "{err}");
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("\"error\""), "{text}");

        // A score frame before init is rejected too.
        let mut session = Vec::new();
        push_batch(&mut session, 0, &[item(&gene(1))]);
        let mut output = Vec::new();
        let err = run_worker(&session[..], &mut output, &FaultInjection::default()).unwrap_err();
        assert!(err.contains("init"), "{err}");

        // Inside an open session the peer reads frames, so garbage is
        // answered with an error frame.
        let mut session = Vec::new();
        push_init(&mut session, 9.0);
        session.extend_from_slice(b"{\"type\":\"dance\"}\n");
        let mut output = Vec::new();
        let err = run_worker(&session[..], &mut output, &FaultInjection::default()).unwrap_err();
        let mut reader = &output[..];
        expect_ready(&mut reader);
        let (kind, payload) = read_frame(&mut reader).expect("error frame");
        assert_eq!(kind, FRAME_ERROR);
        assert_eq!(decode_error_frame(&payload), err);

        // So is a truncated batch frame.
        let mut session = Vec::new();
        push_init(&mut session, 9.0);
        write_frame(&mut session, FRAME_SCORE_BATCH, &[0u8; 5]).unwrap();
        let mut output = Vec::new();
        assert!(run_worker(&session[..], &mut output, &FaultInjection::default()).is_err());
        let mut reader = &output[..];
        expect_ready(&mut reader);
        assert_eq!(read_frame(&mut reader).unwrap().0, FRAME_ERROR);
    }

    #[test]
    fn worker_answers_infeasible_for_uncompilable_requests() {
        let mut session = Vec::new();
        push_init(&mut session, 9.0);
        // Wrong wt_dup arity: the dataflow cannot compile.
        let bad = BatchItem {
            ratio_bits: 0.3f64.to_bits(),
            xb_size: 128,
            cell_bits: 2,
            dac_bits: 1,
            wt_dup: vec![1],
            gene: vec![1],
        };
        push_batch(&mut session, 5, &[bad]);
        let mut output = Vec::new();
        run_worker(&session[..], &mut output, &FaultInjection::default())
            .expect("session survives");
        let mut reader = &output[..];
        expect_ready(&mut reader);
        let (id_base, scores) = expect_reply(&mut reader);
        assert_eq!(id_base, 5);
        assert_eq!(scores, vec![CandidateScore::INFEASIBLE]);
    }

    #[test]
    fn empty_session_is_clean() {
        let mut output = Vec::new();
        run_worker("".as_bytes(), &mut output, &FaultInjection::default()).expect("empty session");
        assert!(output.is_empty());
    }

    #[test]
    fn fault_injection_defaults_are_inert() {
        let faults = FaultInjection::default();
        assert!(!faults.is_active());
        for exchange in 1..100 {
            assert!(!faults.should_drop(exchange));
        }
    }

    #[test]
    fn fault_injection_drop_cadence_is_every_nth_exchange() {
        let faults = FaultInjection {
            drop_every: Some(3),
            ..Default::default()
        };
        assert!(faults.is_active());
        let drops: Vec<usize> = (1..=9).filter(|&e| faults.should_drop(e)).collect();
        assert_eq!(drops, vec![3, 6, 9]);
    }

    #[test]
    fn fault_injected_drop_closes_the_session_after_replying_earlier_exchanges() {
        // Two score frames with drop_every = 2: the first is answered, the
        // second silently closes the session — the connection-drop shape
        // the remote backend's inline recompute handles.
        let mut session = Vec::new();
        push_init(&mut session, 9.0);
        for id_base in [1u64, 2] {
            push_batch(&mut session, id_base, &[item(&gene(1))]);
        }
        let faults = FaultInjection {
            drop_every: Some(2),
            ..Default::default()
        };
        let mut output = Vec::new();
        run_worker(&session[..], &mut output, &faults).expect("drop ends the session cleanly");
        let mut reader = &output[..];
        expect_ready(&mut reader);
        assert_eq!(expect_reply(&mut reader).0, 1, "first exchange answered");
        assert!(reader.is_empty(), "second exchange must drop, not reply");
    }
}
