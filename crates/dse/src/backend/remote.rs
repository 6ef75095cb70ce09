//! The remote backend: scoring candidates on `pimsyn worker-serve` daemons
//! over TCP, speaking the worker [`protocol`](super::protocol).
//!
//! Connection ownership and per-run session state are separate layers:
//!
//! - A [`RemotePool`] owns the TCP *connections* and the endpoint roster.
//!   The roster starts from the statically configured endpoints
//!   (`host:port`, CLI spelling `--backend remote:host1:port,host2:port`)
//!   and, when a [`WorkerDirectory`] is attached (the serve/gateway worker
//!   registry), is re-unioned with the directory's live roster before
//!   every batch — endpoints join as workers announce themselves and
//!   retire as they drain or get evicted. Transport-handshaked
//!   connections are kept *open across runs*: a run returns them to the
//!   pool at flush, and the next run re-opens its own session on them
//!   instead of paying dial + handshake again.
//! - A [`RemoteBackend`] holds one run's *session*: the init line fixing
//!   the run's model/hardware/power/objective and the leased connections
//!   that have already acknowledged it.
//!
//! Each connection is one worker *slot* on a daemon:
//!
//! 1. **Transport handshake** (once per connection): a `hello` frame
//!    carrying the protocol version and, when configured, a shared auth
//!    token; the daemon answers `welcome` (advertising how many sessions
//!    remain available to this pool, which caps how many connections it
//!    opens to that endpoint) or an `error` frame and a close.
//! 2. **Session** (once per run, re-opened when a connection is recycled):
//!    the `init` → `ready` exchange fixing the run's model, hardware,
//!    power, macro mode and objective.
//! 3. **Scoring**: whole chunks in one binary frame each way; floats travel
//!    as IEEE-754 bit patterns — remote scores are bit-identical to inline
//!    ones.
//!
//! **Chunking is latency-aware and throughput-weighted.** A network round
//! trip is expensive next to scoring a candidate, so small batches would
//! drown in per-chunk latency. The remote backend targets at least
//! [`MIN_JOBS_PER_CHUNK`](super::MIN_JOBS_PER_CHUNK) jobs per connection
//! and hands the batch to the pure [`ChunkPlanner`](super::ChunkPlanner):
//! each connection's share is weighted by its endpoint's estimated
//! throughput — an EWMA of observed exchange rates, seeded from the
//! cumulative batch-latency accounting and decayed back to that seed when
//! a connection fails (a registry eviction resets the estimate entirely,
//! so a re-announced worker starts cold). Each planned chunk is queued as
//! [`PIECES_PER_CHUNK`] requeueable pieces; a connection that drains its
//! own queue *steals the queued tail* of the most backlogged one (the
//! straggler requeue), so one slow worker delays the batch by at most its
//! in-flight piece, not its whole chunk. Scheduling never affects
//! results: every piece keeps its batch offset and scores are reassembled
//! in input order, so any placement is bit-identical to inline.
//!
//! **Multi-session dialing.** An endpoint's connection cap starts at the
//! slot count its registry announcement advertised (1 for static
//! endpoints) and is refined by every `welcome`, so a single job fans out
//! across several sessions of a multi-slot daemon from the first batch.
//!
//! **Failures are isolated per connection.** A connection that dies,
//! answers garbage or fails the handshake (including a version mismatch
//! or rejected token) is dropped, its in-flight chunk is
//! recomputed inline, and the endpoint backs off from reconnection
//! attempts for [`RECONNECT_BACKOFF`]. With no reachable endpoint at all,
//! whole batches silently degrade to inline scoring — results are
//! bit-identical either way, so a daemon killed, drained or evicted
//! mid-run never changes a synthesis outcome. The first degradation
//! prints a single stderr warning per run (the only diagnostic; every
//! later failure is silent).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::eval::{CandidateScore, EvalCore};

use super::planner::{ChunkPlanner, ChunkPolicy, MIN_JOBS_PER_CHUNK};
use super::protocol::{hello_line, parse_welcome, NO_FREE_SLOTS};
use super::{session, BackendStats, EvalBackend, EvalJob, StopCheck, WorkerDirectory};

/// Resolving + dialing an endpoint that does not answer must not stall the
/// search; connects beyond this are treated as endpoint failures.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the daemon gets to answer the `hello` → `welcome` handshake
/// and the `init` → `ready` session opening.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Socket read timeout while waiting for score responses. Scoring a chunk
/// is CPU-bound work on the daemon, so this is generous; it exists so a
/// wedged daemon stalls its chunk for a bounded time (the chunk then
/// recomputes inline) instead of hanging the run forever.
const SCORE_TIMEOUT: Duration = Duration::from_secs(300);

/// How long an endpoint is skipped after a connect/handshake/session
/// failure before reconnection is attempted again.
pub(crate) const RECONNECT_BACKOFF: Duration = Duration::from_secs(30);

/// How many requeueable pieces an adaptive chunk is split into (each at
/// least [`MIN_JOBS_PER_CHUNK`] jobs, except a short tail). More pieces
/// requeue stragglers at finer grain but pay more round trips; four keeps
/// the extra latency marginal while bounding a straggler's hold on the
/// batch to a quarter of its chunk.
const PIECES_PER_CHUNK: usize = 4;

/// Smoothing factor of the per-endpoint throughput EWMA: each observed
/// exchange rate contributes this fraction. High enough that a worker
/// whose load changed re-converges within a few batches, low enough that
/// one noisy exchange cannot swing the plan.
const EWMA_ALPHA: f64 = 0.4;

/// Per-endpoint connection accounting.
struct EndpointHealth {
    /// Our connection cap for this endpoint: seeded from the slot count
    /// its registry announcement advertised (`1` for static endpoints),
    /// refined by the capacity the daemon advertised in its last
    /// `welcome`.
    slots: usize,
    /// Connections currently open (idle in the pool, sessioned to a run,
    /// or reserved for an in-flight dial).
    live: usize,
    /// Until when reconnection attempts are suspended after a failure.
    backoff_until: Option<Instant>,
    /// Cumulative wall-clock seconds spent in successful scoring round
    /// trips to this endpoint (send chunk -> receive scores).
    batch_seconds: f64,
    /// Successful scoring round trips, the divisor for `batch_seconds`.
    batches: usize,
    /// Candidates scored by this endpoint (across all round trips).
    jobs: usize,
    /// EWMA of observed scoring throughput (candidates per second per
    /// connection), the [`ChunkPlanner`] weight. `None` until the first
    /// exchange; cleared back to the cumulative-average seed on
    /// connection failure and zeroed entirely on registry eviction, so
    /// reconnecting or re-announced workers never inherit stale
    /// measurements.
    ewma_cand_per_sec: Option<f64>,
}

impl EndpointHealth {
    /// Records one successful scoring exchange and folds its rate into
    /// the throughput EWMA.
    fn observe_exchange(&mut self, jobs: usize, seconds: f64) {
        self.batch_seconds += seconds;
        self.batches += 1;
        self.jobs += jobs;
        let rate = jobs as f64 / seconds.max(1e-9);
        self.ewma_cand_per_sec = Some(match self.ewma_cand_per_sec {
            None => rate,
            Some(prev) => prev * (1.0 - EWMA_ALPHA) + rate * EWMA_ALPHA,
        });
    }

    /// The planner weight: the EWMA when one is live, else the cumulative
    /// average rate (the seed from the batch-latency accounting), else
    /// `None` (a cold endpoint — the planner fills in the fleet mean).
    fn throughput_estimate(&self) -> Option<f64> {
        self.ewma_cand_per_sec.or_else(|| {
            (self.batches > 0 && self.batch_seconds > 0.0)
                .then(|| self.jobs as f64 / self.batch_seconds)
        })
    }

    /// Forgets every throughput/latency measurement — the registry
    /// evicted (or re-registered) this endpoint, so whatever answers at
    /// the address next may be a different worker entirely and must start
    /// from a cold estimate.
    fn reset_estimates(&mut self) {
        self.batch_seconds = 0.0;
        self.batches = 0;
        self.jobs = 0;
        self.ewma_cand_per_sec = None;
    }
}

/// One endpoint of the fleet. Connections hold an `Arc` to their endpoint
/// (not an index), so accounting stays correct while the roster itself
/// grows and shrinks under registry churn.
struct Endpoint {
    addr: String,
    /// Discovered through the [`WorkerDirectory`] (vs statically
    /// configured). Only discovered endpoints are retired when they leave
    /// the directory's roster; static ones are permanent.
    discovered: bool,
    /// Set when the endpoint left the roster; surviving connections are
    /// closed as they return to the pool.
    retired: AtomicBool,
    /// Set once a session has opened on this endpoint; until then the
    /// directory's advertised slot count keeps seeding the connection cap.
    sessioned: AtomicBool,
    /// The directory registration epoch this endpoint was last seen at
    /// (`0` when the directory does not track epochs). A changed epoch
    /// means the worker deregistered and re-announced between roster
    /// refreshes — its measurements reset even though the address never
    /// left the roster.
    epoch: AtomicU64,
    health: Mutex<EndpointHealth>,
}

impl Endpoint {
    fn new(addr: String, discovered: bool) -> Arc<Self> {
        Self::with_hints(addr, discovered, 1, 0)
    }

    /// An endpoint seeded with the slot count and registration epoch its
    /// directory entry advertised, so multi-session dialing starts before
    /// the first `welcome` refines the cap.
    fn with_hints(addr: String, discovered: bool, slots: usize, epoch: u64) -> Arc<Self> {
        Arc::new(Self {
            addr,
            discovered,
            retired: AtomicBool::new(false),
            sessioned: AtomicBool::new(false),
            epoch: AtomicU64::new(epoch),
            health: Mutex::new(EndpointHealth {
                slots: slots.max(1),
                live: 0,
                backoff_until: None,
                batch_seconds: 0.0,
                batches: 0,
                jobs: 0,
                ewma_cand_per_sec: None,
            }),
        })
    }

    fn release_one(&self) {
        self.health.lock().expect("endpoint").live -= 1;
    }

    /// The current planner weight (see
    /// [`EndpointHealth::throughput_estimate`]).
    fn throughput_estimate(&self) -> Option<f64> {
        self.health.lock().expect("endpoint").throughput_estimate()
    }

    /// Records one successful scoring exchange.
    fn observe_exchange(&self, jobs: usize, seconds: f64) {
        self.health
            .lock()
            .expect("endpoint")
            .observe_exchange(jobs, seconds);
    }
}

/// One live TCP connection: transport handshake done, possibly sessioned.
struct RemoteConn {
    endpoint: Arc<Endpoint>,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One endpoint's status in a [`RemoteFleetSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteEndpointStatus {
    /// The endpoint's `host:port`.
    pub addr: String,
    /// Whether it was discovered through a worker directory (vs statically
    /// configured).
    pub discovered: bool,
    /// Connections currently open to it (idle + sessioned + reserved).
    pub live: usize,
    /// Cumulative wall-clock seconds this pool spent in successful scoring
    /// round trips to the endpoint. With [`batches`] this yields the
    /// mean per-batch scoring latency (a Prometheus summary pair).
    ///
    /// [`batches`]: RemoteEndpointStatus::batches
    pub batch_seconds: f64,
    /// Successful scoring round trips to the endpoint.
    pub batches: usize,
    /// Candidates the endpoint scored (across all round trips) — the
    /// direct read on how the adaptive planner is sharing batches.
    pub jobs: usize,
    /// Estimated scoring throughput (candidates per second per
    /// connection): the live planner weight, `None` while the endpoint is
    /// cold (no measurement yet, or reset by a registry eviction).
    pub throughput: Option<f64>,
}

/// A point-in-time view of a [`RemotePool`] for metrics and summaries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RemoteFleetSnapshot {
    /// Every endpoint currently in the roster, in roster order.
    pub endpoints: Vec<RemoteEndpointStatus>,
    /// Connections open across all endpoints (idle + sessioned).
    pub live_connections: usize,
    /// Of those, connections idle in the pool between runs.
    pub idle_connections: usize,
    /// TCP connects + handshakes performed over the pool's lifetime — the
    /// measure of how well persistent connections amortize dial cost.
    pub connects: usize,
    /// Straggler requeues over the pool's lifetime: queued chunk-tail
    /// pieces an idle connection took over from a backlogged one.
    pub requeued_pieces: usize,
}

/// A pool of transport-handshaked worker connections and the endpoint
/// roster they belong to, shareable across runs.
///
/// The pool knows nothing about any particular synthesis run: it dials,
/// handshakes, stores and retires raw connections. Run-specific state
/// (the init line, which connections acknowledged it) lives in the
/// [`RemoteBackend`] leasing from it. Dropping the
/// pool closes every idle connection.
pub struct RemotePool {
    token: Option<String>,
    /// The live roster: static seeds plus directory-discovered endpoints.
    endpoints: Mutex<Vec<Arc<Endpoint>>>,
    /// Transport-handshaked connections idle between runs. Their last
    /// session (if any) belongs to a finished run; leasing re-opens it.
    idle: Mutex<Vec<RemoteConn>>,
    /// The dynamic-roster hook (the serve/gateway worker registry).
    directory: Mutex<Option<Arc<dyn WorkerDirectory>>>,
    /// Round-robin cursor so consecutive leases spread across the roster.
    rotate: AtomicUsize,
    /// Cumulative connects over the pool's lifetime.
    connects: AtomicUsize,
    /// Cumulative straggler requeues (stolen chunk-tail pieces).
    requeues: AtomicUsize,
}

impl std::fmt::Debug for RemotePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let endpoints = self.endpoints.lock().expect("remote roster");
        f.debug_struct("RemotePool")
            .field(
                "endpoints",
                &endpoints.iter().map(|e| &e.addr).collect::<Vec<_>>(),
            )
            .field("idle", &self.idle.lock().expect("remote idle").len())
            .field("authenticated", &self.token.is_some())
            .field("connects", &self.connects.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Drop for RemotePool {
    fn drop(&mut self) {
        // Close idle connections deterministically (the daemon's slots free
        // on EOF) and release their accounting.
        for conn in self.idle.lock().expect("remote idle").drain(..) {
            conn.endpoint.release_one();
        }
    }
}

impl RemotePool {
    /// A pool over the given static endpoint roster (`host:port` each),
    /// authenticating every connection with `token` when one is given. The
    /// roster may be empty when a [`WorkerDirectory`] will supply it.
    pub fn new(endpoints: Vec<String>, token: Option<String>) -> Arc<Self> {
        Arc::new(Self {
            token,
            endpoints: Mutex::new(
                endpoints
                    .into_iter()
                    .map(|addr| Endpoint::new(addr, false))
                    .collect(),
            ),
            idle: Mutex::new(Vec::new()),
            directory: Mutex::new(None),
            rotate: AtomicUsize::new(0),
            connects: AtomicUsize::new(0),
            requeues: AtomicUsize::new(0),
        })
    }

    /// Attaches (or replaces) the dynamic-roster hook. From the next
    /// batch on, the roster is re-unioned with the directory before every
    /// lease.
    pub fn set_directory(&self, directory: Arc<dyn WorkerDirectory>) {
        *self.directory.lock().expect("remote directory") = Some(directory);
    }

    /// Merges more statically configured endpoints into the roster
    /// (duplicates ignored) — a later run configured with extra endpoints
    /// widens the shared pool instead of being silently capped to the
    /// first run's roster.
    pub fn add_static(&self, addrs: &[String]) {
        let mut endpoints = self.endpoints.lock().expect("remote roster");
        for addr in addrs {
            if !endpoints.iter().any(|e| &e.addr == addr) {
                endpoints.push(Endpoint::new(addr.clone(), false));
            }
        }
    }

    /// Re-unions the roster with the directory (when one is attached):
    /// newly announced workers join as discovered endpoints — seeded with
    /// the slot count their registration advertised, so multi-session
    /// dialing starts on the first batch — and discovered endpoints that
    /// left (drained or evicted) are retired: their throughput estimates
    /// are reset, their idle connections are closed, and sessioned ones
    /// close as they return. An endpoint whose registration *epoch*
    /// changed (it deregistered and re-announced between refreshes, so
    /// the address never visibly left the roster) also resets its
    /// estimates: whatever answers there now starts from a cold weight.
    /// Static endpoints are never retired.
    pub(crate) fn refresh_roster(&self) {
        let directory = self.directory.lock().expect("remote directory").clone();
        let Some(directory) = directory else { return };
        let mut entries = directory.entries();
        entries.sort_by(|a, b| a.addr.cmp(&b.addr));
        let mut endpoints = self.endpoints.lock().expect("remote roster");
        endpoints.retain(|endpoint| {
            let keep = !endpoint.discovered || entries.iter().any(|e| e.addr == endpoint.addr);
            if !keep {
                endpoint.retired.store(true, Ordering::SeqCst);
                // The eviction fix: a worker re-announced at this address
                // later must start from a cold estimate, and connections
                // still holding this endpoint must stop feeding a stale
                // weight.
                endpoint.health.lock().expect("endpoint").reset_estimates();
            }
            keep
        });
        for entry in entries {
            match endpoints.iter().find(|e| e.addr == entry.addr) {
                Some(endpoint) => {
                    let prev = endpoint.epoch.swap(entry.epoch, Ordering::SeqCst);
                    if entry.epoch != 0 && prev != 0 && prev != entry.epoch {
                        let mut health = endpoint.health.lock().expect("endpoint");
                        health.reset_estimates();
                        health.slots = entry.slots.max(1);
                    } else if !endpoint.sessioned.load(Ordering::Relaxed) {
                        // No session yet: keep the advertised slot count
                        // fresh until a `welcome` takes over.
                        let mut health = endpoint.health.lock().expect("endpoint");
                        health.slots = health.slots.max(entry.slots);
                    }
                }
                None => {
                    endpoints.push(Endpoint::with_hints(
                        entry.addr,
                        true,
                        entry.slots,
                        entry.epoch,
                    ));
                }
            }
        }
        drop(endpoints);
        // Idle connections on retired endpoints are useless; close them now.
        let mut idle = self.idle.lock().expect("remote idle");
        let (keep, retired): (Vec<_>, Vec<_>) = idle
            .drain(..)
            .partition(|conn| !conn.endpoint.retired.load(Ordering::SeqCst));
        *idle = keep;
        drop(idle);
        for conn in retired {
            conn.endpoint.release_one();
        }
    }

    /// Reserves a connection slot on the next endpoint that is neither
    /// retired, backing off, nor at its advertised capacity. The
    /// reservation counts as live until released or converted into a real
    /// connection.
    fn reserve_slot(&self) -> Option<Arc<Endpoint>> {
        let endpoints: Vec<Arc<Endpoint>> = self.endpoints.lock().expect("remote roster").clone();
        let n = endpoints.len();
        if n == 0 {
            return None;
        }
        let start = self.rotate.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        for k in 0..n {
            let endpoint = &endpoints[(start + k) % n];
            if endpoint.retired.load(Ordering::SeqCst) {
                continue;
            }
            let mut health = endpoint.health.lock().expect("endpoint");
            let backing_off = health.backoff_until.is_some_and(|until| now < until);
            if !backing_off && health.live < health.slots {
                health.live += 1;
                return Some(Arc::clone(endpoint));
            }
        }
        None
    }

    /// Takes one idle (transport-handshaked, session-stale) connection,
    /// skipping — and closing — any whose endpoint retired meanwhile.
    fn checkout_idle(&self) -> Option<RemoteConn> {
        loop {
            let conn = self.idle.lock().expect("remote idle").pop()?;
            if conn.endpoint.retired.load(Ordering::SeqCst) {
                conn.endpoint.release_one();
                continue;
            }
            return Some(conn);
        }
    }

    /// Returns still-healthy connections to the pool (their session state
    /// is stale; the next lease re-opens it). Connections on retired
    /// endpoints are closed instead.
    fn checkin(&self, conns: Vec<RemoteConn>) {
        let mut idle = self.idle.lock().expect("remote idle");
        for conn in conns {
            if conn.endpoint.retired.load(Ordering::SeqCst) {
                conn.endpoint.release_one();
            } else {
                idle.push(conn);
            }
        }
    }

    /// Dials one endpoint and runs the transport handshake against an
    /// earlier reservation. On success the connection's read timeout is
    /// left at [`SCORE_TIMEOUT`].
    fn connect(&self, endpoint: &Arc<Endpoint>) -> Result<RemoteConn, String> {
        let addr = &endpoint.addr;
        let writer = super::dial_bounded(addr, CONNECT_TIMEOUT)?;
        let _ = writer.set_nodelay(true);
        writer
            .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
            .map_err(|e| format!("cannot configure {addr}: {e}"))?;
        let reader = writer
            .try_clone()
            .map_err(|e| format!("cannot clone the {addr} stream: {e}"))?;
        let mut conn = RemoteConn {
            endpoint: Arc::clone(endpoint),
            writer,
            reader: BufReader::new(reader),
        };
        writeln!(conn.writer, "{}", hello_line(self.token.as_deref()))
            .and_then(|()| conn.writer.flush())
            .map_err(|e| format!("handshake write to {addr} failed: {e}"))?;
        let mut line = String::new();
        match conn.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            Ok(_) => return Err(format!("{addr} closed the connection during handshake")),
            Err(e) => return Err(format!("handshake read from {addr} failed: {e}")),
        }
        let advertised = parse_welcome(line.trim()).map_err(|e| format!("{addr}: {e}"))?;
        conn.writer
            .set_read_timeout(Some(SCORE_TIMEOUT))
            .map_err(|e| format!("cannot configure {addr}: {e}"))?;
        self.connects.fetch_add(1, Ordering::Relaxed);
        {
            // `welcome` advertises the sessions still available to *us* at
            // handshake time, including this one — so a daemon shared by
            // several runs throttles each to what actually remains. Our
            // per-endpoint cap is what we already hold (`live` includes
            // this connection's reservation) plus what remains beyond it.
            let mut health = endpoint.health.lock().expect("endpoint");
            health.slots = (health.live + advertised).saturating_sub(1).max(1);
        }
        Ok(conn)
    }

    /// A point-in-time view for metrics and summaries.
    pub fn fleet_snapshot(&self) -> RemoteFleetSnapshot {
        let endpoints = self.endpoints.lock().expect("remote roster");
        let statuses: Vec<RemoteEndpointStatus> = endpoints
            .iter()
            .map(|e| {
                let health = e.health.lock().expect("endpoint");
                RemoteEndpointStatus {
                    addr: e.addr.clone(),
                    discovered: e.discovered,
                    live: health.live,
                    batch_seconds: health.batch_seconds,
                    batches: health.batches,
                    jobs: health.jobs,
                    throughput: health.throughput_estimate(),
                }
            })
            .collect();
        drop(endpoints);
        RemoteFleetSnapshot {
            live_connections: statuses.iter().map(|s| s.live).sum(),
            idle_connections: self.idle.lock().expect("remote idle").len(),
            connects: self.connects.load(Ordering::Relaxed),
            requeued_pieces: self.requeues.load(Ordering::Relaxed),
            endpoints: statuses,
        }
    }
}

/// One run's session over the leased connections: the init line plus the
/// connections that have already acknowledged it, idle between batches.
struct RunSession {
    init_line: Option<String>,
    ready: Vec<RemoteConn>,
    next_id: u64,
}

/// Scores batches across `pimsyn worker-serve` daemons over TCP, leasing
/// connections from a [`RemotePool`].
pub struct RemoteBackend {
    pool: Arc<RemotePool>,
    policy: ChunkPolicy,
    session: Mutex<RunSession>,
    warned: AtomicBool,
    batches: AtomicUsize,
    jobs: AtomicUsize,
    remote: AtomicUsize,
    fallback: AtomicUsize,
    connects: AtomicUsize,
}

impl std::fmt::Debug for RemoteBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("pool", &self.pool)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl RemoteBackend {
    /// A backend with a *private* pool over the given worker-daemon roster
    /// (`host:port` each), authenticating every connection with `token`
    /// when one is given. The connections die with the backend — the
    /// classic per-run behavior.
    pub fn new(endpoints: Vec<String>, token: Option<String>) -> Self {
        Self::with_pool(RemotePool::new(endpoints, token))
    }

    /// A backend leasing connections from an existing (typically shared)
    /// pool. Sessions are still per run: every leased connection
    /// re-handshakes with this run's init line, so model and hardware
    /// always ship correctly; the connections themselves outlive the run
    /// and return to the pool on [`flush`](EvalBackend::flush).
    pub fn with_pool(pool: Arc<RemotePool>) -> Self {
        Self::with_pool_policy(pool, ChunkPolicy::Adaptive)
    }

    /// [`with_pool`](Self::with_pool) with an explicit [`ChunkPolicy`].
    /// [`ChunkPolicy::CountBalanced`] restores the pre-adaptive equal
    /// split with no straggler requeue — the benchmark baseline.
    pub fn with_pool_policy(pool: Arc<RemotePool>, policy: ChunkPolicy) -> Self {
        Self {
            pool,
            policy,
            session: Mutex::new(RunSession {
                init_line: None,
                ready: Vec::new(),
                next_id: 0,
            }),
            warned: AtomicBool::new(false),
            batches: AtomicUsize::new(0),
            jobs: AtomicUsize::new(0),
            remote: AtomicUsize::new(0),
            fallback: AtomicUsize::new(0),
            connects: AtomicUsize::new(0),
        }
    }

    /// Prints the one-and-only degradation warning: remote scoring is an
    /// optimization, so failures are quiet after the first diagnostic.
    fn warn_once(&self, detail: &str) {
        if !self.warned.swap(true, Ordering::SeqCst) {
            eprintln!("pimsyn: remote evaluation degraded: {detail}; affected chunks are scored inline (results are unaffected)");
        }
    }

    /// Opens this run's session on a connection (fresh or recycled):
    /// `init` → `ready` under the handshake's bounded patience.
    fn open_session(conn: &mut RemoteConn, init: &str) -> Result<(), String> {
        let _ = conn.writer.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
        session::open_session_io(&mut conn.writer, &mut conn.reader, init)?;
        let _ = conn.writer.set_read_timeout(Some(SCORE_TIMEOUT));
        conn.endpoint.sessioned.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Dials one reserved endpoint, runs the transport handshake and opens
    /// the run session.
    fn open_endpoint(&self, endpoint: &Arc<Endpoint>, init: &str) -> Result<RemoteConn, String> {
        let mut conn = self.pool.connect(endpoint)?;
        self.connects.fetch_add(1, Ordering::Relaxed);
        Self::open_session(&mut conn, init)?;
        Ok(conn)
    }

    /// Releases a reservation whose dial/handshake failed and backs its
    /// endpoint off. The throughput EWMA decays back to its cumulative-
    /// average seed: the worker that reconnects after the backoff may be
    /// restarted or differently loaded, so the recent-history estimate is
    /// not trusted across the failure.
    fn fail_reservation(&self, endpoint: &Arc<Endpoint>, detail: &str) {
        let mut health = endpoint.health.lock().expect("endpoint");
        health.live -= 1;
        health.backoff_until = Some(Instant::now() + RECONNECT_BACKOFF);
        health.ewma_cand_per_sec = None;
        drop(health);
        self.warn_once(detail);
    }

    /// Opens sessioned connections until `conns` holds `want` of them (or
    /// the fleet is exhausted). Pool-idle connections are recycled first —
    /// a session re-open is one round trip, a fresh dial is three — then
    /// the remaining shortfall is reserved and dialed *concurrently*, so a
    /// roster with several dead endpoints stalls for one connect timeout,
    /// not one per endpoint. Failures release their slot and back the
    /// endpoint off.
    fn lease_missing(
        &self,
        conns: &mut Vec<RemoteConn>,
        want: usize,
        init: &str,
        stop: StopCheck<'_>,
    ) {
        if stop() {
            return;
        }
        // Recycle idle pooled connections (re-opening this run's session).
        // A recycled connection that fails the re-open is just closed — the
        // daemon may have idle-timed it out long ago, which says nothing
        // about the endpoint's health, so no backoff and no warning; the
        // dial path below still gets its chance.
        while conns.len() < want {
            let Some(mut conn) = self.pool.checkout_idle() else {
                break;
            };
            match Self::open_session(&mut conn, init) {
                Ok(()) => conns.push(conn),
                Err(_) => {
                    conn.endpoint.release_one();
                }
            }
            if stop() {
                return;
            }
        }
        let mut reserved = Vec::new();
        while conns.len() + reserved.len() < want {
            match self.pool.reserve_slot() {
                Some(endpoint) => reserved.push(endpoint),
                None => break,
            }
        }
        match reserved.len() {
            0 => {}
            1 => match self.open_endpoint(&reserved[0], init) {
                Ok(conn) => conns.push(conn),
                Err(detail) => self.handshake_failed(&reserved[0], &detail),
            },
            _ => std::thread::scope(|s| {
                let handles: Vec<_> = reserved
                    .iter()
                    .map(|endpoint| s.spawn(move || self.open_endpoint(endpoint, init)))
                    .collect();
                for (endpoint, handle) in reserved.iter().zip(handles) {
                    match handle.join().expect("endpoint dialer panicked") {
                        Ok(conn) => conns.push(conn),
                        Err(detail) => self.handshake_failed(endpoint, &detail),
                    }
                }
            }),
        }
    }

    /// Routes a failed dial/handshake. A polite [`NO_FREE_SLOTS`] decline
    /// means the daemon is healthy but fully subscribed (by other runs,
    /// or by our own concurrent dials racing the advertised capacity):
    /// shrink our cap to what we actually hold and move on — no warning,
    /// no backoff. Everything else is a real failure.
    fn handshake_failed(&self, endpoint: &Arc<Endpoint>, detail: &str) {
        if detail.contains(NO_FREE_SLOTS) {
            let mut health = endpoint.health.lock().expect("endpoint");
            health.live -= 1;
            health.slots = health.slots.min(health.live.max(1));
        } else {
            self.fail_reservation(endpoint, detail);
        }
    }

    /// Scores one chunk on one connection, recomputing inline when the
    /// connection is missing or fails mid-chunk. Returns the scores, the
    /// still-healthy connection (if any), and the (remote, fallback)
    /// counts.
    fn run_chunk(
        &self,
        core: &EvalCore<'_>,
        jobs: &[EvalJob<'_>],
        conn: Option<RemoteConn>,
        id_base: u64,
        stop: StopCheck<'_>,
    ) -> (Vec<CandidateScore>, Option<RemoteConn>, usize, usize) {
        if stop() {
            return (vec![CandidateScore::INFEASIBLE; jobs.len()], conn, 0, 0);
        }
        if let Some(mut conn) = conn {
            let started = Instant::now();
            let exchanged =
                session::exchange_batch(&mut conn.writer, &mut conn.reader, jobs, id_base);
            match exchanged {
                Ok(scores) => {
                    let elapsed = started.elapsed().as_secs_f64();
                    conn.endpoint.observe_exchange(jobs.len(), elapsed);
                    return (scores, Some(conn), jobs.len(), 0);
                }
                Err(detail) => {
                    let endpoint = Arc::clone(&conn.endpoint);
                    drop(conn);
                    self.fail_reservation(&endpoint, &format!("{}: {detail}", endpoint.addr));
                }
            }
        }
        let scores = jobs
            .iter()
            .map(|job| {
                if stop() {
                    CandidateScore::INFEASIBLE
                } else {
                    core.score(job.df, job.point, job.gene)
                }
            })
            .collect();
        (scores, None, 0, jobs.len())
    }

    /// How many connections a batch of `jobs` jobs is worth, before the
    /// fleet caps it: at least [`MIN_JOBS_PER_CHUNK`] jobs per network
    /// round trip.
    fn target_connections(jobs: usize) -> usize {
        (jobs / MIN_JOBS_PER_CHUNK).max(1)
    }
}

/// The shared queue of batch pieces the scorer threads drain. Each
/// connection owns one FIFO of contiguous `(lo, hi)` job ranges — its
/// planned chunk, pre-split into pieces — and pops from its own queue
/// front first. A connection whose queue runs dry *steals* from the back
/// of the most-backlogged queue: that tail piece is exactly the
/// "remaining tail of an unfinished chunk", requeued onto an idle
/// connection instead of waited on. Pieces carry their batch offsets, so
/// wherever a piece runs its scores land at the same input positions.
struct PieceBoard {
    queues: Mutex<Vec<VecDeque<(usize, usize)>>>,
}

impl PieceBoard {
    fn new(queues: Vec<VecDeque<(usize, usize)>>) -> Self {
        Self {
            queues: Mutex::new(queues),
        }
    }

    /// Next piece for connection `own`: its own front, else the back of
    /// the longest-tailed other queue. The `bool` is true for a steal.
    fn pop(&self, own: usize) -> Option<(usize, usize, bool)> {
        let mut queues = self.queues.lock().expect("piece board");
        if let Some((lo, hi)) = queues[own].pop_front() {
            return Some((lo, hi, false));
        }
        let victim = (0..queues.len())
            .filter(|&k| k != own)
            .max_by_key(|&k| queues[k].iter().map(|&(lo, hi)| hi - lo).sum::<usize>())
            .filter(|&k| !queues[k].is_empty())?;
        let (lo, hi) = queues[victim].pop_back().expect("non-empty victim");
        Some((lo, hi, true))
    }
}

impl EvalBackend for RemoteBackend {
    fn name(&self) -> &'static str {
        "remote"
    }

    fn score_batch(
        &self,
        core: &EvalCore<'_>,
        jobs: &[EvalJob<'_>],
        stop: StopCheck<'_>,
    ) -> Vec<CandidateScore> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.jobs.fetch_add(jobs.len(), Ordering::Relaxed);
        if jobs.is_empty() {
            return Vec::new();
        }
        // Registry churn lands here: workers announced since the last
        // batch join the roster, drained/evicted ones retire.
        self.pool.refresh_roster();
        let want = Self::target_connections(jobs.len());

        // Take this run's sessioned connections and an id range under the
        // session lock; dial/handshake the missing connections outside it.
        let (init, mut conns, id_base) = {
            let mut session = self.session.lock().expect("remote session");
            if session.init_line.is_none() {
                session.init_line = Some(session::init_line_for(core));
            }
            let init = session.init_line.clone().expect("just set");
            let take = want.min(session.ready.len());
            let conns: Vec<RemoteConn> = session.ready.drain(..take).collect();
            let id_base = session.next_id;
            session.next_id += jobs.len() as u64;
            (init, conns, id_base)
        };
        // This run's own sessioned connections may sit on endpoints that
        // retired since the last batch; close those now (their chunks, if
        // any, would have been recomputed inline anyway).
        let mut retired = Vec::new();
        conns.retain(|conn| {
            let keep = !conn.endpoint.retired.load(Ordering::SeqCst);
            if !keep {
                retired.push(Arc::clone(&conn.endpoint));
            }
            keep
        });
        for endpoint in retired {
            endpoint.release_one();
        }
        self.lease_missing(&mut conns, want, &init, stop);

        // Throughput-weighted chunks, one per connection (equal-weighted
        // under [`ChunkPolicy::CountBalanced`]). With no connection at all
        // the batch runs inline whole.
        let width = conns.len().clamp(1, jobs.len());

        let mut out = Vec::with_capacity(jobs.len());
        let mut survivors: Vec<RemoteConn> = Vec::new();
        let mut remote = 0usize;
        let mut fallback = 0usize;
        // A tiny batch can earn fewer chunks than we hold connections;
        // park the surplus back in the session rather than scoring with
        // sub-minimum chunks.
        let mut conns = conns;
        while conns.len() > width {
            survivors.extend(conns.pop());
        }
        if width <= 1 {
            let conn = conns.into_iter().next();
            let (scores, conn, r, f) = self.run_chunk(core, jobs, conn, id_base, stop);
            out.extend(scores);
            survivors.extend(conn);
            remote += r;
            fallback += f;
        } else {
            let planner = match self.policy {
                ChunkPolicy::Adaptive => ChunkPlanner::new(
                    &conns
                        .iter()
                        .map(|c| c.endpoint.throughput_estimate())
                        .collect::<Vec<_>>(),
                ),
                ChunkPolicy::CountBalanced => ChunkPlanner::count_balanced(width),
            };
            let ranges = planner.plan(jobs.len());
            // Pre-split each planned chunk into pieces so a straggling
            // connection's unfinished tail can be stolen by an idle one.
            // CountBalanced keeps whole chunks: the baseline has no
            // requeue.
            let split = matches!(self.policy, ChunkPolicy::Adaptive);
            let board = PieceBoard::new(
                ranges
                    .iter()
                    .map(|&(lo, hi)| {
                        let mut pieces = VecDeque::new();
                        if hi > lo {
                            let step = if split {
                                (hi - lo).div_ceil(PIECES_PER_CHUNK).max(MIN_JOBS_PER_CHUNK)
                            } else {
                                hi - lo
                            };
                            let mut at = lo;
                            while at < hi {
                                let next = (at + step).min(hi);
                                pieces.push_back((at, next));
                                at = next;
                            }
                        }
                        pieces
                    })
                    .collect(),
            );
            let board = &board;
            let mut pieced: Vec<(usize, Vec<CandidateScore>)> = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> = conns
                    .into_iter()
                    .enumerate()
                    .map(|(k, conn)| {
                        s.spawn(move || {
                            let mut conn = Some(conn);
                            let mut results: Vec<(usize, Vec<CandidateScore>)> = Vec::new();
                            let (mut r, mut f, mut steals) = (0usize, 0usize, 0usize);
                            while let Some((lo, hi, stolen)) = board.pop(k) {
                                steals += usize::from(stolen);
                                let (scores, kept, pr, pf) = self.run_chunk(
                                    core,
                                    &jobs[lo..hi],
                                    conn.take(),
                                    id_base + lo as u64,
                                    stop,
                                );
                                conn = kept;
                                results.push((lo, scores));
                                r += pr;
                                f += pf;
                            }
                            (results, conn, r, f, steals)
                        })
                    })
                    .collect();
                for handle in handles {
                    let (results, conn, r, f, steals) =
                        handle.join().expect("chunk scorer panicked");
                    pieced.extend(results);
                    survivors.extend(conn);
                    remote += r;
                    fallback += f;
                    self.pool.requeues.fetch_add(steals, Ordering::Relaxed);
                }
            });
            // Deterministic input-order reduction: the pieces partition
            // the batch exactly, so reassembling them by offset rebuilds
            // the inline score vector bit for bit no matter where each
            // piece actually ran.
            pieced.sort_unstable_by_key(|&(lo, _)| lo);
            for (_, scores) in pieced {
                out.extend(scores);
            }
        }
        self.remote.fetch_add(remote, Ordering::Relaxed);
        self.fallback.fetch_add(fallback, Ordering::Relaxed);
        self.session
            .lock()
            .expect("remote session")
            .ready
            .extend(survivors);
        out
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            batches: self.batches.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
            remote_jobs: self.remote.load(Ordering::Relaxed),
            fallback_jobs: self.fallback.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
        }
    }

    /// Ends this run's session: its connections return to the pool alive
    /// (a later run re-opens its own session on them). With a private
    /// pool the connections die when the backend — and with it the pool —
    /// drops; with a shared pool they persist across jobs and amortize
    /// dial + handshake cost over the daemon's lifetime.
    fn flush(&self) {
        let conns = std::mem::take(&mut self.session.lock().expect("remote session").ready);
        self.pool.checkin(conns);
    }
}

impl Drop for RemoteBackend {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct FixedDirectory(Mutex<Vec<String>>);

    impl WorkerDirectory for FixedDirectory {
        fn roster(&self) -> Vec<String> {
            self.0.lock().unwrap().clone()
        }
    }

    #[test]
    fn chunk_target_is_latency_aware() {
        // Small batches stay on one connection; larger batches earn one
        // connection per MIN_JOBS_PER_CHUNK jobs.
        assert_eq!(RemoteBackend::target_connections(1), 1);
        assert_eq!(RemoteBackend::target_connections(MIN_JOBS_PER_CHUNK - 1), 1);
        assert_eq!(RemoteBackend::target_connections(MIN_JOBS_PER_CHUNK * 3), 3);
        assert_eq!(
            RemoteBackend::target_connections(MIN_JOBS_PER_CHUNK * 3 + 1),
            3
        );
    }

    #[test]
    fn unreachable_roster_reserves_and_releases_slots() {
        // Port 1 on loopback is almost surely closed; and even if a connect
        // somehow succeeded, no handshake answer arrives. Either way the
        // lease must fail cleanly, release its reservation and back off.
        let backend = RemoteBackend::new(vec!["127.0.0.1:1".to_string()], None);
        let mut conns = Vec::new();
        backend.lease_missing(&mut conns, 1, "ignored", &|| false);
        assert!(conns.is_empty());
        let endpoints = backend.pool.endpoints.lock().unwrap();
        let health = endpoints[0].health.lock().unwrap();
        assert_eq!(health.live, 0, "failed lease must release its slot");
        assert!(health.backoff_until.is_some(), "endpoint must back off");
    }

    #[test]
    fn backing_off_endpoint_is_skipped() {
        let pool = RemotePool::new(vec!["127.0.0.1:1".to_string()], None);
        {
            let endpoints = pool.endpoints.lock().unwrap();
            endpoints[0].health.lock().unwrap().backoff_until =
                Some(Instant::now() + RECONNECT_BACKOFF);
        }
        assert!(pool.reserve_slot().is_none());
        // An expired backoff admits reservations again.
        {
            let endpoints = pool.endpoints.lock().unwrap();
            endpoints[0].health.lock().unwrap().backoff_until =
                Some(Instant::now() - Duration::from_secs(1));
        }
        assert!(pool.reserve_slot().is_some());
    }

    #[test]
    fn empty_roster_without_directory_scores_nothing_remotely() {
        let pool = RemotePool::new(Vec::new(), None);
        pool.refresh_roster(); // no directory: a no-op, not a panic
        assert!(pool.reserve_slot().is_none());
        assert_eq!(pool.fleet_snapshot(), RemoteFleetSnapshot::default());
    }

    #[test]
    fn directory_churn_grows_and_retires_the_roster() {
        let pool = RemotePool::new(vec!["127.0.0.1:7001".to_string()], None);
        let directory = Arc::new(FixedDirectory(Mutex::new(vec![
            "127.0.0.1:7002".to_string(),
            "127.0.0.1:7003".to_string(),
        ])));
        pool.set_directory(Arc::clone(&directory) as Arc<dyn WorkerDirectory>);
        pool.refresh_roster();
        let snapshot = pool.fleet_snapshot();
        let addrs: Vec<&str> = snapshot.endpoints.iter().map(|e| e.addr.as_str()).collect();
        assert_eq!(
            addrs,
            vec!["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"]
        );
        assert!(!snapshot.endpoints[0].discovered, "static seed");
        assert!(snapshot.endpoints[1].discovered);

        // A worker leaving the directory retires its endpoint; the static
        // seed stays no matter what the directory says.
        *directory.0.lock().unwrap() = vec!["127.0.0.1:7003".to_string()];
        pool.refresh_roster();
        let snapshot = pool.fleet_snapshot();
        let addrs: Vec<&str> = snapshot.endpoints.iter().map(|e| e.addr.as_str()).collect();
        assert_eq!(addrs, vec!["127.0.0.1:7001", "127.0.0.1:7003"]);

        // A drained worker re-announcing re-enters as a fresh endpoint.
        *directory.0.lock().unwrap() =
            vec!["127.0.0.1:7002".to_string(), "127.0.0.1:7003".to_string()];
        pool.refresh_roster();
        assert_eq!(pool.fleet_snapshot().endpoints.len(), 3);
    }

    #[test]
    fn shared_pool_backends_share_the_roster() {
        let pool = RemotePool::new(vec!["127.0.0.1:7001".to_string()], None);
        pool.add_static(&["127.0.0.1:7002".to_string(), "127.0.0.1:7001".to_string()]);
        assert_eq!(pool.fleet_snapshot().endpoints.len(), 2, "no duplicates");
        let a = RemoteBackend::with_pool(Arc::clone(&pool));
        let b = RemoteBackend::with_pool(Arc::clone(&pool));
        assert!(Arc::ptr_eq(&a.pool, &b.pool));
    }

    use super::super::DirectoryEntry;

    #[derive(Debug)]
    struct EpochDirectory(Mutex<Vec<DirectoryEntry>>);

    impl WorkerDirectory for EpochDirectory {
        fn roster(&self) -> Vec<String> {
            self.0
                .lock()
                .unwrap()
                .iter()
                .map(|e| e.addr.clone())
                .collect()
        }

        fn entries(&self) -> Vec<DirectoryEntry> {
            self.0.lock().unwrap().clone()
        }
    }

    #[test]
    fn advertised_slots_seed_multi_session_dialing() {
        // A registration advertising 3 slots lets one job reserve 3
        // concurrent sessions on the endpoint *before* any welcome has
        // refined the cap.
        let pool = RemotePool::new(Vec::new(), None);
        let directory = Arc::new(EpochDirectory(Mutex::new(vec![DirectoryEntry {
            addr: "127.0.0.1:7101".to_string(),
            slots: 3,
            epoch: 1,
        }])));
        pool.set_directory(Arc::clone(&directory) as Arc<dyn WorkerDirectory>);
        pool.refresh_roster();
        assert!(pool.reserve_slot().is_some());
        assert!(pool.reserve_slot().is_some());
        assert!(pool.reserve_slot().is_some());
        assert!(pool.reserve_slot().is_none(), "capacity is still bounded");
    }

    #[test]
    fn epoch_change_resets_throughput_estimates() {
        let pool = RemotePool::new(Vec::new(), None);
        let directory = Arc::new(EpochDirectory(Mutex::new(vec![DirectoryEntry {
            addr: "127.0.0.1:7102".to_string(),
            slots: 1,
            epoch: 7,
        }])));
        pool.set_directory(Arc::clone(&directory) as Arc<dyn WorkerDirectory>);
        pool.refresh_roster();
        {
            let endpoints = pool.endpoints.lock().unwrap();
            endpoints[0].observe_exchange(100, 1.0);
        }
        // Same epoch across a refresh: the estimate survives.
        pool.refresh_roster();
        {
            let endpoints = pool.endpoints.lock().unwrap();
            assert_eq!(endpoints[0].throughput_estimate(), Some(100.0));
        }
        // The worker restarted between refreshes — the address never left
        // the roster, but the epoch moved. Cold estimate.
        directory.0.lock().unwrap()[0].epoch = 8;
        pool.refresh_roster();
        {
            let endpoints = pool.endpoints.lock().unwrap();
            assert_eq!(
                endpoints[0].throughput_estimate(),
                None,
                "a re-announced worker must not inherit stale measurements"
            );
        }
    }

    #[test]
    fn eviction_resets_estimates_for_reannounced_workers() {
        let pool = RemotePool::new(Vec::new(), None);
        let directory = Arc::new(FixedDirectory(Mutex::new(vec![
            "127.0.0.1:7103".to_string()
        ])));
        pool.set_directory(Arc::clone(&directory) as Arc<dyn WorkerDirectory>);
        pool.refresh_roster();
        let first = {
            let endpoints = pool.endpoints.lock().unwrap();
            endpoints[0].observe_exchange(50, 1.0);
            Arc::clone(&endpoints[0])
        };
        // Evicted from the registry: the endpoint retires and its
        // accumulators zero, so code still holding the Arc reads a cold
        // estimate too.
        *directory.0.lock().unwrap() = Vec::new();
        pool.refresh_roster();
        assert!(first.retired.load(Ordering::SeqCst));
        assert_eq!(first.throughput_estimate(), None);
        // Re-announced at the same address: a fresh endpoint, cold weight.
        *directory.0.lock().unwrap() = vec!["127.0.0.1:7103".to_string()];
        pool.refresh_roster();
        let endpoints = pool.endpoints.lock().unwrap();
        assert_eq!(endpoints[0].throughput_estimate(), None);
    }

    #[test]
    fn connection_failure_decays_ewma_to_cumulative_seed() {
        let backend = RemoteBackend::new(vec!["127.0.0.1:1".to_string()], None);
        let endpoint = Arc::clone(&backend.pool.endpoints.lock().unwrap()[0]);
        endpoint.observe_exchange(10, 1.0);
        endpoint.observe_exchange(40, 1.0);
        assert_ne!(endpoint.throughput_estimate(), Some(25.0), "EWMA leads");
        endpoint.health.lock().unwrap().live = 1;
        backend.fail_reservation(&endpoint, "test failure");
        // The EWMA is forgotten; the cumulative average (50 jobs over 2 s)
        // remains as the cautious seed for the next session.
        assert_eq!(endpoint.throughput_estimate(), Some(25.0));
    }

    #[test]
    fn piece_board_steals_from_the_most_backlogged_tail() {
        let board = PieceBoard::new(vec![
            VecDeque::from(vec![(0, 4)]),
            VecDeque::from(vec![(4, 10), (10, 16), (16, 20)]),
            VecDeque::new(),
        ]);
        assert_eq!(board.pop(0), Some((0, 4, false)), "own queue first");
        // Queue 0 is dry: steal the *tail* of the longest backlog so the
        // victim keeps its earlier (already-planned) pieces in order.
        assert_eq!(board.pop(0), Some((16, 20, true)));
        assert_eq!(board.pop(1), Some((4, 10, false)));
        assert_eq!(board.pop(2), Some((10, 16, true)));
        assert_eq!(board.pop(1), None);
        assert_eq!(board.pop(0), None);
    }
}
