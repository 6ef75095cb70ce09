//! The worker registry: dynamic discovery of `pimsyn worker-serve`
//! daemons by a running `pimsyn gateway` process.
//!
//! Remote rosters were static before this module: the set of worker
//! daemons a service scored on was fixed at startup. The registry makes
//! the fleet elastic — a daemon started with `--announce HOST:PORT`
//! registers itself with the service's registry listener, keeps the
//! registration alive with heartbeats, and deregisters gracefully when it
//! drains. The service's remote backend unions the registry roster with
//! any statically configured endpoints before every batch, so capacity
//! scales up and down under live traffic without restarts.
//!
//! The protocol is JSON lines over one TCP connection per worker, with
//! its own strict version field (`pimsyn_registry`):
//!
//! ```text
//! > {"type":"announce","pimsyn_registry":1,"addr":"10.0.0.5:7801",
//!    "slots":8}                                        (or +"token":"…")
//! < {"type":"registered","pimsyn_registry":1,"interval_s":2}
//! > {"type":"heartbeat","pimsyn_registry":1,"addr":"10.0.0.5:7801",
//!    "slots":8}                                        (no reply)
//! > {"type":"drain","pimsyn_registry":1,"addr":"10.0.0.5:7801"}
//! < {"type":"bye","pimsyn_registry":1}
//! ```
//!
//! Liveness is staleness-based: a worker whose last announce/heartbeat is
//! older than [`EVICT_AFTER_MISSED`] × the heartbeat interval is evicted
//! lazily the next time the roster (or a snapshot) is read. A worker that
//! dies without draining simply stops heartbeating and ages out; one whose
//! heartbeat was merely delayed re-enters on its next beat (heartbeats
//! upsert, so recovery needs no re-announce). Eviction and churn never
//! change results: the remote backend already recomputes any chunk whose
//! connection fails inline, and scoring is pure.
//!
//! When the daemon was started with `--auth-token-file`, every registry
//! message must carry the same shared token; a mismatch is answered with
//! an `error` line and the connection is closed.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pimsyn_dse::{DirectoryEntry, WorkerDirectory};
use pimsyn_model::json::JsonValue;

/// Registry wire-format version; bumped on any incompatible change.
pub const REGISTRY_PROTOCOL_VERSION: u32 = 1;

/// Default heartbeat interval assigned to announcing workers.
pub const DEFAULT_HEARTBEAT_INTERVAL: Duration = Duration::from_secs(2);

/// How many heartbeat intervals a worker may go silent before it is
/// evicted from the roster.
pub const EVICT_AFTER_MISSED: u32 = 3;

fn registry_line(kind: &str, fields: Vec<(String, JsonValue)>) -> String {
    let mut all = vec![
        ("type".to_string(), JsonValue::String(kind.to_string())),
        (
            "pimsyn_registry".into(),
            JsonValue::Number(REGISTRY_PROTOCOL_VERSION as f64),
        ),
    ];
    all.extend(fields);
    JsonValue::Object(all).to_string()
}

fn worker_fields(addr: &str, slots: usize, token: Option<&str>) -> Vec<(String, JsonValue)> {
    let mut fields = vec![
        ("addr".to_string(), JsonValue::String(addr.to_string())),
        ("slots".to_string(), JsonValue::Number(slots as f64)),
    ];
    if let Some(token) = token {
        fields.push(("token".into(), JsonValue::String(token.to_string())));
    }
    fields
}

/// The `announce` line a worker daemon registers itself with.
pub fn announce_line(addr: &str, slots: usize, token: Option<&str>) -> String {
    registry_line("announce", worker_fields(addr, slots, token))
}

/// A periodic `heartbeat` line (same payload as an announce; heartbeats
/// upsert, so a worker evicted during a stall re-enters on its next beat).
pub fn heartbeat_line(addr: &str, slots: usize, token: Option<&str>) -> String {
    registry_line("heartbeat", worker_fields(addr, slots, token))
}

/// The graceful-deregistration `drain` line.
pub fn drain_line(addr: &str, token: Option<&str>) -> String {
    let mut fields = vec![("addr".to_string(), JsonValue::String(addr.to_string()))];
    if let Some(token) = token {
        fields.push(("token".into(), JsonValue::String(token.to_string())));
    }
    registry_line("drain", fields)
}

/// The registry's acknowledgment of an accepted announce, assigning the
/// heartbeat interval.
pub fn registered_line(interval: Duration) -> String {
    registry_line(
        "registered",
        vec![(
            "interval_s".to_string(),
            JsonValue::Number(interval.as_secs().max(1) as f64),
        )],
    )
}

/// The registry's acknowledgment of a graceful drain.
pub fn registry_bye_line() -> String {
    registry_line("bye", Vec::new())
}

fn registry_error_line(detail: &str) -> String {
    JsonValue::Object(vec![
        ("type".into(), JsonValue::String("error".into())),
        ("detail".into(), JsonValue::String(detail.to_string())),
    ])
    .to_string()
}

/// One parsed worker→registry message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryRequest {
    /// First registration of a worker daemon.
    Announce {
        /// The dialable `host:port` the worker serves sessions on.
        addr: String,
        /// Session slots the worker advertises.
        slots: usize,
        /// Shared secret; must match the registry's token when it has one.
        token: Option<String>,
    },
    /// Liveness refresh (payload identical to an announce).
    Heartbeat {
        /// The worker's dialable address.
        addr: String,
        /// Session slots the worker advertises.
        slots: usize,
        /// Shared secret; same rule as for announce.
        token: Option<String>,
    },
    /// Graceful deregistration.
    Drain {
        /// The worker's dialable address.
        addr: String,
        /// Shared secret; same rule as for announce.
        token: Option<String>,
    },
}

/// Parses one worker→registry line, enforcing the registry protocol
/// version and that `addr` is a well-formed socket address.
///
/// # Errors
///
/// A human-readable message (suitable for an error-line reply) for
/// malformed JSON, unknown types, version mismatches or a bogus address.
pub fn parse_registry_request(line: &str) -> Result<RegistryRequest, String> {
    let doc = JsonValue::parse(line).map_err(|e| format!("malformed registry message: {e}"))?;
    let kind = match doc.get("type").and_then(JsonValue::as_str) {
        Some(kind @ ("announce" | "heartbeat" | "drain")) => kind,
        Some(other) => return Err(format!("unknown registry message type `{other}`")),
        None => return Err("missing registry message `type`".to_string()),
    };
    match doc.get("pimsyn_registry").and_then(JsonValue::as_usize) {
        Some(v) if v == REGISTRY_PROTOCOL_VERSION as usize => {}
        Some(v) => {
            return Err(format!(
                "registry protocol version mismatch: peer speaks {v}, this build speaks {REGISTRY_PROTOCOL_VERSION}"
            ))
        }
        None => return Err("registry message lacks a `pimsyn_registry` version".to_string()),
    }
    let addr = doc
        .get("addr")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing worker `addr`".to_string())?
        .to_string();
    if addr.parse::<SocketAddr>().is_err() {
        return Err(format!("worker addr `{addr}` is not a socket address"));
    }
    let token = doc
        .get("token")
        .and_then(JsonValue::as_str)
        .map(str::to_string);
    if kind == "drain" {
        return Ok(RegistryRequest::Drain { addr, token });
    }
    let slots = doc
        .get("slots")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| "missing worker `slots`".to_string())?
        .max(1);
    Ok(match kind {
        "announce" => RegistryRequest::Announce { addr, slots, token },
        _ => RegistryRequest::Heartbeat { addr, slots, token },
    })
}

/// One parsed registry→worker reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryReply {
    /// The announce was accepted; heartbeat at this interval.
    Registered {
        /// The assigned heartbeat interval.
        interval: Duration,
    },
    /// A drain was acknowledged.
    Bye,
}

/// Parses one registry→worker reply line (an `error` line's detail is
/// surfaced as the error message).
///
/// # Errors
///
/// A human-readable message for malformed or rejected replies.
pub fn parse_registry_reply(line: &str) -> Result<RegistryReply, String> {
    let doc = JsonValue::parse(line).map_err(|e| format!("malformed registry reply: {e}"))?;
    match doc.get("type").and_then(JsonValue::as_str) {
        Some("registered") => {
            let secs = doc
                .get("interval_s")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| "registered reply lacks `interval_s`".to_string())?;
            Ok(RegistryReply::Registered {
                interval: Duration::from_secs(secs.max(1) as u64),
            })
        }
        Some("bye") => Ok(RegistryReply::Bye),
        Some("error") => {
            let detail = doc
                .get("detail")
                .and_then(JsonValue::as_str)
                .unwrap_or("unspecified");
            Err(format!("registry rejected the request: {detail}"))
        }
        _ => Err(format!("expected a registry reply, got: {line}")),
    }
}

/// One registered worker daemon as seen by observability surfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryWorker {
    /// The worker's dialable `host:port`.
    pub addr: String,
    /// Session slots the worker advertised.
    pub slots: usize,
}

/// A point-in-time view of the registry for metrics and summaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    /// Currently registered (non-stale) workers, sorted by address.
    pub workers: Vec<RegistryWorker>,
    /// Announces accepted over the registry's lifetime.
    pub announces: usize,
    /// Heartbeats received over the registry's lifetime.
    pub heartbeats: usize,
    /// Workers evicted for missed heartbeats over the lifetime.
    pub evictions: usize,
    /// Graceful drains over the lifetime.
    pub drains: usize,
}

struct WorkerEntry {
    slots: usize,
    last_seen: Instant,
    /// Registration generation: assigned (from a registry-wide counter,
    /// starting at 1) whenever the address enters the roster *fresh* —
    /// first announce, or any announce/heartbeat after an eviction or
    /// drain. Refreshes keep the epoch, so the remote pool can tell "same
    /// worker, still alive" from "address re-announced by a restarted
    /// worker" and drop stale throughput estimates for the latter.
    epoch: u64,
}

/// The live roster of announced worker daemons, with staleness-based
/// eviction. Shared between the registry's TCP listener (which feeds it)
/// and the remote backend's [`WorkerDirectory`] hook (which reads it).
pub struct WorkerRegistry {
    interval: Duration,
    token: Option<String>,
    quiet: bool,
    entries: Mutex<HashMap<String, WorkerEntry>>,
    next_epoch: AtomicU64,
    announces: AtomicUsize,
    heartbeats: AtomicUsize,
    evictions: AtomicUsize,
    drains: AtomicUsize,
}

impl std::fmt::Debug for WorkerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerRegistry")
            .field("interval", &self.interval)
            .field("workers", &self.entries.lock().expect("registry").len())
            .field("announces", &self.announces.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .field("drains", &self.drains.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl WorkerRegistry {
    /// A registry assigning `interval` heartbeats (clamped to ≥ 1 s on the
    /// wire) and requiring `token` on every message when set. `quiet`
    /// suppresses the per-event stderr notes.
    pub fn new(interval: Duration, token: Option<String>, quiet: bool) -> Arc<Self> {
        Arc::new(Self {
            interval,
            token,
            quiet,
            entries: Mutex::new(HashMap::new()),
            next_epoch: AtomicU64::new(1),
            announces: AtomicUsize::new(0),
            heartbeats: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            drains: AtomicUsize::new(0),
        })
    }

    /// The heartbeat interval this registry assigns to workers.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    fn note(&self, message: &str) {
        if !self.quiet {
            eprintln!("pimsyn worker-registry: {message}");
        }
    }

    /// Checks a message's token against the registry's.
    fn authorized(&self, token: Option<&str>) -> bool {
        self.token.is_none() || self.token.as_deref() == token
    }

    /// How long a worker may go silent before eviction.
    fn staleness_bound(&self) -> Duration {
        self.interval * EVICT_AFTER_MISSED
    }

    /// Drops entries whose last announce/heartbeat is too old. Called
    /// lazily from every read path, so a worker that dies without draining
    /// ages out without any background reaper thread.
    fn evict_stale(&self, entries: &mut HashMap<String, WorkerEntry>) {
        let bound = self.staleness_bound();
        let stale: Vec<String> = entries
            .iter()
            .filter(|(_, e)| e.last_seen.elapsed() > bound)
            .map(|(addr, _)| addr.clone())
            .collect();
        for addr in stale {
            entries.remove(&addr);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.note(&format!("evicted {addr} (missed heartbeats)"));
        }
    }

    /// Upserts a worker entry. A *fresh* insert (first sighting, or any
    /// sighting after an eviction/drain removed the address) draws a new
    /// registration epoch; a refresh keeps the existing one. Stale entries
    /// are evicted first so a worker that died and re-announced before any
    /// roster read gets a fresh epoch, not its zombie predecessor's.
    /// Returns whether the entry was fresh.
    fn upsert(&self, addr: &str, slots: usize) -> bool {
        let mut entries = self.entries.lock().expect("registry");
        self.evict_stale(&mut entries);
        let now = Instant::now();
        match entries.get_mut(addr) {
            Some(entry) => {
                entry.slots = slots;
                entry.last_seen = now;
                false
            }
            None => {
                entries.insert(
                    addr.to_string(),
                    WorkerEntry {
                        slots,
                        last_seen: now,
                        epoch: self.next_epoch.fetch_add(1, Ordering::Relaxed),
                    },
                );
                true
            }
        }
    }

    /// Registers (or refreshes) a worker.
    pub fn announce(&self, addr: &str, slots: usize) {
        let fresh = self.upsert(addr, slots);
        self.announces.fetch_add(1, Ordering::Relaxed);
        if fresh {
            self.note(&format!("registered {addr} ({slots} slots)"));
        }
    }

    /// Refreshes a worker's liveness; upserts, so a worker evicted during
    /// a stall re-enters on its next beat.
    pub fn heartbeat(&self, addr: &str, slots: usize) {
        let returned = self.upsert(addr, slots);
        self.heartbeats.fetch_add(1, Ordering::Relaxed);
        if returned {
            self.note(&format!("{addr} returned on a heartbeat"));
        }
    }

    /// Gracefully removes a worker (it asked to drain).
    pub fn drain(&self, addr: &str) {
        let removed = self
            .entries
            .lock()
            .expect("registry")
            .remove(addr)
            .is_some();
        if removed {
            self.drains.fetch_add(1, Ordering::Relaxed);
            self.note(&format!("drained {addr}"));
        }
    }

    /// A point-in-time view for metrics and summaries (evicts stale
    /// entries first).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut entries = self.entries.lock().expect("registry");
        self.evict_stale(&mut entries);
        let mut workers: Vec<RegistryWorker> = entries
            .iter()
            .map(|(addr, e)| RegistryWorker {
                addr: addr.clone(),
                slots: e.slots,
            })
            .collect();
        workers.sort_by(|a, b| a.addr.cmp(&b.addr));
        RegistrySnapshot {
            workers,
            announces: self.announces.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
        }
    }
}

impl WorkerDirectory for WorkerRegistry {
    /// The current non-stale roster, sorted for a deterministic endpoint
    /// order.
    fn roster(&self) -> Vec<String> {
        let mut entries = self.entries.lock().expect("registry");
        self.evict_stale(&mut entries);
        let mut roster: Vec<String> = entries.keys().cloned().collect();
        roster.sort();
        roster
    }

    /// The roster with the scheduling hints the remote pool's adaptive
    /// chunker consumes: advertised slots (seeding multi-session dialing
    /// before the first welcome) and the registration epoch (so a worker
    /// that restarted between two roster refreshes starts from a cold
    /// throughput estimate).
    fn entries(&self) -> Vec<DirectoryEntry> {
        let mut entries = self.entries.lock().expect("registry");
        self.evict_stale(&mut entries);
        let mut rows: Vec<DirectoryEntry> = entries
            .iter()
            .map(|(addr, e)| DirectoryEntry {
                addr: addr.clone(),
                slots: e.slots.max(1),
                epoch: e.epoch,
            })
            .collect();
        rows.sort_by(|a, b| a.addr.cmp(&b.addr));
        rows
    }
}

/// Serves the registry's TCP listener, blocking the calling thread: one
/// connection per announcing worker, JSON lines, closed on drain, EOF,
/// error or heartbeat silence. Runs until the process exits — the
/// registry lives exactly as long as the gateway daemon that owns it.
///
/// On startup the actually-bound address is printed to stderr as
/// `pimsyn worker-registry: listening on <addr>` regardless of the
/// registry's quiet flag, so scripts can bind port 0.
///
/// # Errors
///
/// Propagates listener-level IO errors; per-connection errors only drop
/// that connection.
pub fn serve_registry(listener: TcpListener, registry: Arc<WorkerRegistry>) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    eprintln!("pimsyn worker-registry: listening on {addr}");
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || handle_registry_connection(&registry, stream));
    }
    Ok(())
}

/// [`serve_registry`] on a detached background thread, returning the
/// bound address.
///
/// # Errors
///
/// Propagates the listener's local-address lookup failure.
pub fn serve_registry_in_background(
    listener: TcpListener,
    registry: Arc<WorkerRegistry>,
) -> std::io::Result<SocketAddr> {
    let addr = listener.local_addr()?;
    std::thread::spawn(move || serve_registry(listener, registry));
    Ok(addr)
}

fn handle_registry_connection(registry: &WorkerRegistry, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // A connection silent for longer than the eviction bound is useless —
    // its worker is already aging out — so bound every read by it (plus
    // slack for scheduling jitter).
    let _ = stream.set_read_timeout(Some(registry.staleness_bound() + Duration::from_secs(1)));
    let Ok(peer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(peer);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => return, // EOF or silence: the entry ages out naturally
        }
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_registry_request(line.trim()) {
            Ok(request) => request,
            Err(detail) => {
                let _ = writeln!(stream, "{}", registry_error_line(&detail));
                let _ = stream.flush();
                return;
            }
        };
        let token = match &request {
            RegistryRequest::Announce { token, .. }
            | RegistryRequest::Heartbeat { token, .. }
            | RegistryRequest::Drain { token, .. } => token.as_deref(),
        };
        if !registry.authorized(token) {
            registry.note("rejected a registration: bad or missing auth token");
            let _ = writeln!(
                stream,
                "{}",
                registry_error_line("authentication failed: bad or missing token")
            );
            let _ = stream.flush();
            return;
        }
        match request {
            RegistryRequest::Announce { addr, slots, .. } => {
                registry.announce(&addr, slots);
                if writeln!(stream, "{}", registered_line(registry.interval()))
                    .and_then(|()| stream.flush())
                    .is_err()
                {
                    return;
                }
            }
            RegistryRequest::Heartbeat { addr, slots, .. } => registry.heartbeat(&addr, slots),
            RegistryRequest::Drain { addr, .. } => {
                registry.drain(&addr);
                let _ = writeln!(stream, "{}", registry_bye_line());
                let _ = stream.flush();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lines_round_trip() {
        let line = announce_line("127.0.0.1:7801", 8, Some("s3cret"));
        assert_eq!(
            parse_registry_request(&line).unwrap(),
            RegistryRequest::Announce {
                addr: "127.0.0.1:7801".to_string(),
                slots: 8,
                token: Some("s3cret".to_string()),
            }
        );
        let line = heartbeat_line("127.0.0.1:7801", 8, None);
        assert_eq!(
            parse_registry_request(&line).unwrap(),
            RegistryRequest::Heartbeat {
                addr: "127.0.0.1:7801".to_string(),
                slots: 8,
                token: None,
            }
        );
        let line = drain_line("127.0.0.1:7801", None);
        assert_eq!(
            parse_registry_request(&line).unwrap(),
            RegistryRequest::Drain {
                addr: "127.0.0.1:7801".to_string(),
                token: None,
            }
        );
        assert_eq!(
            parse_registry_reply(&registered_line(Duration::from_secs(2))).unwrap(),
            RegistryReply::Registered {
                interval: Duration::from_secs(2)
            }
        );
        assert_eq!(
            parse_registry_reply(&registry_bye_line()).unwrap(),
            RegistryReply::Bye
        );
    }

    #[test]
    fn registry_rejects_mismatches_and_garbage() {
        let err = parse_registry_request(r#"{"type":"announce","pimsyn_registry":9,"addr":"a:1"}"#)
            .unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
        assert!(parse_registry_request("not json").is_err());
        assert!(parse_registry_request(r#"{"type":"dance","pimsyn_registry":1}"#).is_err());
        // A bogus address is refused at the door.
        let err = parse_registry_request(
            r#"{"type":"announce","pimsyn_registry":1,"addr":"nonsense","slots":1}"#,
        )
        .unwrap_err();
        assert!(err.contains("socket address"), "{err}");
        // Error replies surface their detail.
        let err = parse_registry_reply(&registry_error_line("authentication failed")).unwrap_err();
        assert!(err.contains("authentication failed"), "{err}");
    }

    #[test]
    fn roster_tracks_announce_drain_and_eviction() {
        // A zero-ish interval makes staleness immediate for the test.
        let registry = WorkerRegistry::new(Duration::from_millis(1), None, true);
        registry.announce("127.0.0.1:7801", 4);
        registry.announce("127.0.0.1:7802", 2);
        assert_eq!(
            registry.roster(),
            vec!["127.0.0.1:7801".to_string(), "127.0.0.1:7802".to_string()]
        );
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.announces, 2);
        assert_eq!(snapshot.workers.len(), 2);
        assert_eq!(snapshot.workers[0].slots, 4);

        // Graceful drain removes immediately.
        registry.drain("127.0.0.1:7801");
        assert_eq!(registry.roster(), vec!["127.0.0.1:7802".to_string()]);
        assert_eq!(registry.snapshot().drains, 1);

        // Silence past the staleness bound evicts the other.
        std::thread::sleep(Duration::from_millis(10));
        assert!(registry.roster().is_empty());
        assert_eq!(registry.snapshot().evictions, 1);

        // A late heartbeat brings an evicted worker back (upsert).
        registry.heartbeat("127.0.0.1:7802", 2);
        assert_eq!(registry.roster(), vec!["127.0.0.1:7802".to_string()]);
    }

    #[test]
    fn epochs_survive_refreshes_and_change_on_reentry() {
        let registry = WorkerRegistry::new(Duration::from_secs(60), None, true);
        registry.announce("127.0.0.1:7801", 4);
        let first = registry.entries();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].slots, 4);
        assert!(first[0].epoch >= 1, "fresh epochs start at 1");

        // Refreshes (re-announce, heartbeat) keep the epoch: same worker,
        // still alive — even when the advertised slots change.
        registry.announce("127.0.0.1:7801", 8);
        registry.heartbeat("127.0.0.1:7801", 8);
        let refreshed = registry.entries();
        assert_eq!(refreshed[0].epoch, first[0].epoch);
        assert_eq!(refreshed[0].slots, 8);

        // Leaving (drain here; eviction behaves the same) and coming back
        // draws a new epoch: the remote pool must treat the address as a
        // restarted worker and drop its throughput estimate.
        registry.drain("127.0.0.1:7801");
        registry.announce("127.0.0.1:7801", 4);
        let reentered = registry.entries();
        assert!(
            reentered[0].epoch > first[0].epoch,
            "re-entry must draw a fresh epoch ({} vs {})",
            reentered[0].epoch,
            first[0].epoch
        );
    }

    #[test]
    fn stale_entries_are_evicted_before_an_upsert_refreshes_them() {
        // A worker that died (heartbeats lapsed) and re-announced before
        // any roster read must come back with a *new* epoch — the upsert
        // path evicts the zombie first instead of refreshing it.
        let registry = WorkerRegistry::new(Duration::from_millis(1), None, true);
        registry.announce("127.0.0.1:7801", 4);
        let first = registry.entries()[0].epoch;
        std::thread::sleep(Duration::from_millis(10));
        registry.announce("127.0.0.1:7801", 4);
        let second = registry.entries()[0].epoch;
        assert!(second > first, "{second} vs {first}");
        assert_eq!(registry.snapshot().evictions, 1);
    }

    #[test]
    fn registry_listener_serves_the_wire_protocol() {
        let registry =
            WorkerRegistry::new(Duration::from_secs(2), Some("s3cret".to_string()), true);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = serve_registry_in_background(listener, Arc::clone(&registry)).unwrap();

        // Announce with the right token registers and assigns the interval.
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(
            stream,
            "{}",
            announce_line("127.0.0.1:7801", 4, Some("s3cret"))
        )
        .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            parse_registry_reply(line.trim()).unwrap(),
            RegistryReply::Registered {
                interval: Duration::from_secs(2)
            }
        );
        assert_eq!(registry.roster(), vec!["127.0.0.1:7801".to_string()]);

        // Drain deregisters and is acknowledged with a bye.
        writeln!(stream, "{}", drain_line("127.0.0.1:7801", Some("s3cret"))).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            parse_registry_reply(line.trim()).unwrap(),
            RegistryReply::Bye
        );
        assert!(registry.roster().is_empty());

        // A bad token is rejected with an error line.
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(
            stream,
            "{}",
            announce_line("127.0.0.1:7809", 1, Some("wrong"))
        )
        .unwrap();
        let mut reader = BufReader::new(stream);
        line.clear();
        reader.read_line(&mut line).unwrap();
        let err = parse_registry_reply(line.trim()).unwrap_err();
        assert!(err.contains("authentication failed"), "{err}");
        assert!(registry.roster().is_empty());
    }
}
