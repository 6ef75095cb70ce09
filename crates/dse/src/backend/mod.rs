//! Pluggable candidate-scoring backends.
//!
//! The synthesis loop spends virtually all of its time scoring candidates:
//! every EA macro-partitioning gene and every outer design point runs
//! components allocation plus the analytic performance model. This module
//! isolates that work behind the [`EvalBackend`] trait so the
//! [`CandidateEvaluator`](crate::CandidateEvaluator) — which owns the memo
//! caches, budget charging and statistics — composes with *where* the
//! scoring runs:
//!
//! - [`InlineBackend`] — on the calling thread (the default);
//! - [`RemoteBackend`] — across `pimsyn worker-serve` daemons, speaking
//!   the worker [`protocol`] (JSON-lines session setup, binary score
//!   frames) over TCP with latency-aware chunking and per-connection
//!   failure isolation (a dead daemon's chunks recompute inline).
//!
//! Scoring a candidate costs microseconds, so moving it off the scoring
//! thread only pays when another machine has idle cores; in-process thread
//! and child-process pools were measured slower than inline and removed.
//! Scoring is a pure function of the candidate, so both backends produce
//! bit-identical scores; only wall-clock and process placement differ. A
//! [`PersistentEvalCache`] can be layered over any backend to warm-start
//! repeated runs from a cache file.

mod inline;
mod persist;
mod planner;
pub mod protocol;
mod remote;
mod session;
mod shared;

pub use inline::InlineBackend;
pub use persist::{CacheSnapshot, PersistentEvalCache, EVAL_CACHE_SCHEMA};
pub use planner::{ChunkPlanner, ChunkPolicy, MIN_JOBS_PER_CHUNK};
pub use remote::{RemoteBackend, RemoteEndpointStatus, RemoteFleetSnapshot, RemotePool};
pub use shared::SharedEvalResources;

use std::path::PathBuf;
use std::sync::Arc;

use pimsyn_ir::Dataflow;

use crate::ea::MacAllocGene;
use crate::eval::{CandidateScore, EvalCore};
use crate::space::DesignPoint;

/// One candidate to score: the compiled dataflow it runs on, the outer
/// design point, and the macro-partitioning gene.
#[derive(Debug, Clone, Copy)]
pub struct EvalJob<'a> {
    /// Compiled dataflow (fixes DAC resolution and weight duplication).
    pub df: &'a Dataflow,
    /// Outer design point (`RatioRram`, crossbar configuration).
    pub point: DesignPoint,
    /// The `MacAlloc` gene in the paper's encoding.
    pub gene: &'a MacAllocGene,
}

/// Cumulative counters of one backend instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// `score_batch` invocations.
    pub batches: usize,
    /// Jobs scored (across all batches).
    pub jobs: usize,
    /// Jobs scored by remote worker daemons.
    pub remote_jobs: usize,
    /// Jobs recomputed inline after a worker failure.
    pub fallback_jobs: usize,
    /// Worker connections opened (dial + handshake).
    pub connects: usize,
}

/// A cooperative cancellation probe handed to backends: `true` means the
/// caller no longer wants the results and remaining jobs may be skipped
/// (skipped jobs come back as [`CandidateScore::INFEASIBLE`] placeholders).
/// Budget and deadline stops are *not* routed through this — they are
/// accounted before dispatch, and every dispatched job must still compute
/// so that charged candidates always receive real scores.
pub type StopCheck<'a> = &'a (dyn Fn() -> bool + Sync);

/// A [`StopCheck`] that never stops (for callers outside a cancellable
/// context).
pub const NEVER_STOP: StopCheck<'static> = &|| false;

/// A dynamic source of remote worker endpoints (`host:port` each).
///
/// Implemented by the serve/gateway worker registry: `pimsyn worker-serve
/// --announce` daemons register themselves and heartbeat liveness, and the
/// registry's roster — queried by the [`RemotePool`] before every batch —
/// reflects joins, drains and evictions. The roster is advisory: an
/// endpoint listed here may still be unreachable (the usual remote failure
/// isolation applies), and endpoints configured statically are used whether
/// or not a directory lists them.
pub trait WorkerDirectory: Send + Sync + std::fmt::Debug {
    /// The endpoints currently believed alive, `host:port` each.
    fn roster(&self) -> Vec<String>;

    /// The roster with scheduling hints attached. The default adapts
    /// [`roster`](Self::roster) for directories that predate hints: one
    /// session per endpoint, and epoch `0` — "unknown", which the pool
    /// treats as "never reset on epoch comparison".
    fn entries(&self) -> Vec<DirectoryEntry> {
        self.roster()
            .into_iter()
            .map(|addr| DirectoryEntry {
                addr,
                slots: 1,
                epoch: 0,
            })
            .collect()
    }
}

/// One [`WorkerDirectory`] roster row: where to dial, how many concurrent
/// sessions the worker's registration advertised, and the registration
/// *epoch* — a counter the registry bumps every time the address is
/// freshly (re-)announced after leaving, so the pool can detect a worker
/// restart that happened entirely between two roster refreshes and drop
/// its stale throughput estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryEntry {
    /// Dialable `host:port`.
    pub addr: String,
    /// Advertised concurrent-session capacity (≥ 1 once sanitized).
    pub slots: usize,
    /// Registration generation; `0` means the directory doesn't track one.
    pub epoch: u64,
}

/// Where candidate scoring runs.
///
/// Implementations must be deterministic: scoring is a pure function of the
/// candidate, and [`score_batch`](Self::score_batch) must return scores in
/// input order regardless of internal scheduling, so that every backend is
/// bit-identical to [`InlineBackend`]. Implementations should poll `stop`
/// between jobs (or at least between chunks) so cancellation stays prompt
/// even inside a large batch.
pub trait EvalBackend: Send + Sync + std::fmt::Debug {
    /// Short identifier (`"inline"` or `"remote"`).
    fn name(&self) -> &'static str;

    /// Scores `jobs`, returning one score per job in input order; jobs
    /// skipped after `stop` turns `true` come back as
    /// [`CandidateScore::INFEASIBLE`].
    fn score_batch(
        &self,
        core: &EvalCore<'_>,
        jobs: &[EvalJob<'_>],
        stop: StopCheck<'_>,
    ) -> Vec<CandidateScore>;

    /// Scores a single job (default: a one-element batch, never skipped).
    fn score(&self, core: &EvalCore<'_>, job: &EvalJob<'_>) -> CandidateScore {
        self.score_batch(core, std::slice::from_ref(job), NEVER_STOP)
            .pop()
            .unwrap_or(CandidateScore::INFEASIBLE)
    }

    /// Snapshot of the backend's throughput counters.
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }

    /// Releases buffered state (leased connections). Called once
    /// when a synthesis run finishes; a no-op for stateless backends.
    fn flush(&self) {}
}

/// A `u64` (typically `f64::to_bits`) as the 16-digit hex string used by
/// both the worker protocol and the persistent cache file.
pub(crate) fn u64_hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Parses a [`u64_hex`] bit pattern back.
pub(crate) fn parse_u64_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// Which [`EvalBackend`] implementation to run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Score on the calling thread (the default).
    #[default]
    Inline,
    /// Score batches across `pimsyn worker-serve` daemons over TCP.
    Remote {
        /// The worker-daemon roster, `host:port` each (validated by
        /// [`parse_remote_roster`]).
        endpoints: Vec<String>,
    },
}

/// Resolves `addr` and dials every resolved address in turn, each with a
/// bounded connect timeout — like `TcpStream::connect` (a dual-stack host
/// often lists `::1` before `127.0.0.1`), but never blocking for the OS
/// default TCP timeout on a dead host. Shared by the remote backend and
/// the `worker-stop` client.
///
/// # Errors
///
/// A human-readable message for resolution failures, an empty resolution,
/// or the last connect failure.
pub fn dial_bounded(
    addr: &str,
    timeout: std::time::Duration,
) -> Result<std::net::TcpStream, String> {
    use std::net::ToSocketAddrs;
    let mut last_err: Option<std::io::Error> = None;
    for sockaddr in addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
    {
        match std::net::TcpStream::connect_timeout(&sockaddr, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
    }
    Err(match last_err {
        Some(e) => format!("cannot connect to {addr}: {e}"),
        None => format!("{addr} resolves to no address"),
    })
}

/// Reads a shared-auth-token file, trimming surrounding whitespace (the
/// trailing newline every editor appends would otherwise corrupt the
/// JSON-lines handshake frame). The single reader for every surface that
/// takes a token file — `RemoteBackend`, `worker-serve`, `worker-stop` —
/// so token normalization can never diverge between them.
///
/// # Errors
///
/// A human-readable message naming the unreadable path.
pub fn read_token_file(path: &std::path::Path) -> Result<String, String> {
    std::fs::read_to_string(path)
        .map(|text| text.trim().to_string())
        .map_err(|e| format!("cannot read token file {}: {e}", path.display()))
}

/// Validates a remote worker roster: a non-empty, duplicate-free,
/// comma-separated list of `host:port` endpoints.
///
/// # Errors
///
/// A human-readable message naming the offending endpoint.
pub fn parse_remote_roster(spec: &str) -> Result<Vec<String>, String> {
    let mut endpoints: Vec<String> = Vec::new();
    for raw in spec.split(',') {
        let endpoint = raw.trim();
        if endpoint.is_empty() {
            return Err("remote roster contains an empty endpoint".to_string());
        }
        let (host, port) = endpoint
            .rsplit_once(':')
            .ok_or_else(|| format!("remote endpoint `{endpoint}` must be host:port"))?;
        if host.is_empty() {
            return Err(format!("remote endpoint `{endpoint}` lacks a host"));
        }
        match port.parse::<u16>() {
            Ok(p) if p > 0 => {}
            _ => {
                return Err(format!(
                    "remote endpoint `{endpoint}` has an invalid port `{port}`"
                ))
            }
        }
        if endpoints.iter().any(|e| e == endpoint) {
            return Err(format!("duplicate remote endpoint `{endpoint}`"));
        }
        endpoints.push(endpoint.to_string());
    }
    Ok(endpoints)
}

impl BackendKind {
    /// Parses the CLI spelling: `inline` or
    /// `remote:host:port[,host:port...]`.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown names or an invalid remote
    /// roster.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        match name {
            "inline" => match arg {
                None => Ok(BackendKind::Inline),
                Some(_) => Err("`inline` takes no argument".to_string()),
            },
            "remote" => match arg {
                Some(spec) => Ok(BackendKind::Remote {
                    endpoints: parse_remote_roster(spec)?,
                }),
                None => Err(
                    "`remote` requires a worker roster: remote:host:port[,host:port...]"
                        .to_string(),
                ),
            },
            other => Err(format!(
                "unknown backend `{other}` (expected inline or remote:host:port[,...])"
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Inline => write!(f, "inline"),
            BackendKind::Remote { endpoints } => write!(f, "remote:{}", endpoints.join(",")),
        }
    }
}

/// Full evaluation-backend configuration: the backend kind plus the
/// cross-run persistence, sharing and remote-authentication settings.
#[derive(Debug, Clone, Default)]
pub struct EvalBackendConfig {
    /// Which backend scores candidates.
    pub kind: BackendKind,
    /// Persistent evaluation-cache file: loaded (when its fingerprint
    /// matches the run) before the search and rewritten after it, so
    /// repeated invocations and sweeps warm-start.
    pub cache_file: Option<PathBuf>,
    /// Flush-time cap on candidate-score entries written per run section of
    /// the cache file: the oldest (first-inserted) entries are trimmed
    /// first, so paper-scale sweeps stop growing the file without bound.
    /// `None` writes every memo entry. Only meaningful with
    /// [`cache_file`](Self::cache_file).
    pub cache_max_entries: Option<usize>,
    /// File holding the shared auth token [`BackendKind::Remote`] presents
    /// to `pimsyn worker-serve` daemons started with `--auth-token-file`
    /// (whitespace-trimmed; `None` connects unauthenticated). An
    /// unreadable file degrades to an unauthenticated connection with one
    /// stderr warning — like every other remote failure, scoring falls
    /// back inline and results are unaffected.
    pub remote_token_file: Option<PathBuf>,
    /// Resources shared across runs: one remote connection pool (leased and
    /// re-sessioned per run instead of dialed per run) and one in-memory
    /// evaluation-cache snapshot store. Sharing is transparent — outcomes
    /// are bit-identical with or without it. Set by `sweep_power` and the
    /// synthesis service; `None` keeps every resource private to the run.
    pub shared: Option<Arc<SharedEvalResources>>,
}

/// Configurations compare by value, except the shared-resource handle which
/// compares by identity (two configs sharing the *same* pool are equal;
/// equal-but-distinct pools are not interchangeable).
impl PartialEq for EvalBackendConfig {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.cache_file == other.cache_file
            && self.cache_max_entries == other.cache_max_entries
            && self.remote_token_file == other.remote_token_file
            && match (&self.shared, &other.shared) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl EvalBackendConfig {
    /// The default inline configuration.
    pub fn inline() -> Self {
        Self::default()
    }

    /// Configuration for the given backend kind.
    pub fn new(kind: BackendKind) -> Self {
        Self {
            kind,
            ..Self::default()
        }
    }

    /// Sets the persistent cache file.
    #[must_use]
    pub fn with_cache_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_file = Some(path.into());
        self
    }

    /// Caps candidate-score entries written per cache-file run section
    /// (oldest trimmed first at flush time).
    #[must_use]
    pub fn with_cache_max_entries(mut self, cap: usize) -> Self {
        self.cache_max_entries = Some(cap);
        self
    }

    /// Sets the file holding the shared token remote connections
    /// authenticate with.
    #[must_use]
    pub fn with_remote_token_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.remote_token_file = Some(path.into());
        self
    }

    /// Attaches cross-run shared resources (connection pool, snapshot
    /// store).
    #[must_use]
    pub fn with_shared_resources(mut self, shared: Arc<SharedEvalResources>) -> Self {
        self.shared = Some(shared);
        self
    }

    /// Instantiates the configured backend. With shared resources attached,
    /// a remote backend leases connections from the shared pool (created
    /// on first use) instead of owning a private one.
    pub fn build(&self) -> Box<dyn EvalBackend> {
        match &self.kind {
            BackendKind::Inline => Box::new(InlineBackend::default()),
            BackendKind::Remote { endpoints } => {
                let token = self
                    .remote_token_file
                    .as_ref()
                    .and_then(|path| match read_token_file(path) {
                        Ok(token) => Some(token),
                        Err(e) => {
                            eprintln!("pimsyn: {e}; connecting without a token");
                            None
                        }
                    });
                match &self.shared {
                    Some(shared) => Box::new(RemoteBackend::with_pool(
                        shared.remote_pool(endpoints, token),
                    )),
                    None => Box::new(RemoteBackend::new(endpoints.clone(), token)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses_cli_spellings() {
        assert_eq!(BackendKind::parse("inline").unwrap(), BackendKind::Inline);
        assert!(BackendKind::parse("inline:2").is_err());
        // The in-process pool spellings are gone; the error names the two
        // backends that remain.
        for spec in ["threads", "threads:2", "subprocess:2", "gpu"] {
            let err = BackendKind::parse(spec).unwrap_err();
            assert!(
                err.contains("inline") && err.contains("remote:host:port[,...]"),
                "`{spec}` -> `{err}`"
            );
        }
    }

    #[test]
    fn remote_rosters_parse() {
        assert_eq!(
            BackendKind::parse("remote:127.0.0.1:7801").unwrap(),
            BackendKind::Remote {
                endpoints: vec!["127.0.0.1:7801".to_string()]
            }
        );
        assert_eq!(
            BackendKind::parse("remote:alpha:1,beta:2").unwrap(),
            BackendKind::Remote {
                endpoints: vec!["alpha:1".to_string(), "beta:2".to_string()]
            }
        );
        // Whitespace around endpoints is tolerated.
        assert_eq!(
            parse_remote_roster("a:1, b:2").unwrap(),
            vec!["a:1".to_string(), "b:2".to_string()]
        );
    }

    #[test]
    fn bad_remote_rosters_are_rejected() {
        for (spec, needle) in [
            ("remote", "roster"),                  // no roster at all
            ("remote:", "empty endpoint"),         // empty roster
            ("remote:a:1,,b:2", "empty endpoint"), // empty entry
            ("remote:justahost", "host:port"),     // no port
            ("remote::7801", "lacks a host"),      // no host
            ("remote:h:0", "invalid port"),        // port 0 is not dialable
            ("remote:h:x", "invalid port"),        // non-numeric port
            ("remote:h:70000", "invalid port"),    // beyond u16
            ("remote:h:1,h:1", "duplicate"),       // duplicate endpoint
        ] {
            let err = BackendKind::parse(spec).unwrap_err();
            assert!(err.contains(needle), "`{spec}` -> `{err}`");
        }
    }

    #[test]
    fn remote_display_round_trips() {
        for spec in ["remote:127.0.0.1:7801", "remote:a:1,b:2,c:3"] {
            let kind = BackendKind::parse(spec).unwrap();
            assert_eq!(kind.to_string(), spec);
            assert_eq!(BackendKind::parse(&kind.to_string()).unwrap(), kind);
        }
    }

    #[test]
    fn backend_kind_displays_round_trip() {
        for kind in [
            BackendKind::Inline,
            BackendKind::Remote {
                endpoints: vec!["127.0.0.1:7801".to_string()],
            },
        ] {
            assert_eq!(BackendKind::parse(&kind.to_string()).unwrap(), kind);
        }
    }

    #[test]
    fn config_builds_the_configured_backend() {
        assert_eq!(EvalBackendConfig::inline().build().name(), "inline");
        assert_eq!(
            EvalBackendConfig::new(BackendKind::Remote {
                endpoints: vec!["127.0.0.1:7801".to_string()],
            })
            .build()
            .name(),
            "remote"
        );
    }
}
