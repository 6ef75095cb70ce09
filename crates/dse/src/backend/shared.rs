//! Process-wide evaluation resources shared across synthesis runs.
//!
//! A single synthesis run owns its evaluator, backend and persistent-cache
//! handle; sweeps, batches and long-lived services run *many* runs and waste
//! work re-creating what could be shared:
//!
//! - the remote [`RemotePool`]: dialing and handshaking `pimsyn
//!   worker-serve` daemons per run pays connection setup over and over,
//!   when the connections themselves are run-agnostic (a lease re-opens the
//!   session with the new run's model and hardware);
//! - the persistent evaluation cache: two jobs with the same fingerprint
//!   running back-to-back (or concurrently) each re-read — or worse, miss —
//!   the cache file, when the first job's snapshot is sitting in memory.
//!
//! [`SharedEvalResources`] bundles both behind one cloneable handle, wired
//! through [`EvalBackendConfig::shared`](super::EvalBackendConfig). Sharing
//! is *transparent*: scoring is a pure function of the candidate, so runs
//! with and without shared resources produce bit-identical outcomes; only
//! wall-clock (and connect counts) differ.
//!
//! One caveat, inherited from the cache file itself: a run curtailed by
//! `max_unique_evaluations` stops by *work actually done* (memo misses),
//! and a warm-started memo turns misses into hits — so such a run's
//! stopping point depends on the warm-start state. That was already true
//! of sequential runs over one cache file; the in-memory store adds the
//! concurrent flavor (whether a sibling job's flush lands before this job's
//! evaluator is built decides its preload). Completed runs, and runs
//! bounded by the scored-candidate or wall-clock budgets, are unaffected.

use std::sync::{Arc, Mutex};

use super::persist::CacheSnapshot;
use super::remote::{RemoteFleetSnapshot, RemotePool};
use super::WorkerDirectory;

/// In-memory snapshots retained per shared handle; mirrors the cache file's
/// own bound so the two stay roughly in step.
const MAX_SNAPSHOTS: usize = super::persist::PersistentEvalCache::MAX_RUNS;

/// Evaluation resources shared by every run holding a clone of the handle:
/// one lazily-created [`RemotePool`] and an in-memory fingerprint-keyed
/// store of evaluation-cache snapshots.
///
/// Create one per logical job group (a service, a sweep, a batch) and
/// attach it via
/// [`EvalBackendConfig::with_shared_resources`](super::EvalBackendConfig::with_shared_resources);
/// `sweep_power` and the `SynthesisService` do this automatically.
pub struct SharedEvalResources {
    /// Created on first remote-backend use, with the first caller's auth
    /// token; later callers *merge* their static endpoints into the shared
    /// roster, so the fleet only ever widens. Holds worker TCP connections
    /// open across jobs.
    remote: Mutex<Option<Arc<RemotePool>>>,
    /// The dynamic-roster hook (the serve/gateway worker registry),
    /// attached to the remote pool at creation (either order works).
    directory: Mutex<Option<Arc<dyn WorkerDirectory>>>,
    /// Most-recent evaluation-cache snapshot per run fingerprint,
    /// insertion-ordered so the oldest evicts first.
    snapshots: Mutex<Vec<(String, Arc<CacheSnapshot>)>>,
}

impl std::fmt::Debug for SharedEvalResources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let remote = self.remote.lock().expect("shared remote pool").is_some();
        let snapshots = self.snapshots.lock().expect("shared snapshots");
        f.debug_struct("SharedEvalResources")
            .field("remote", &remote)
            .field("snapshots", &snapshots.len())
            .finish()
    }
}

impl Default for SharedEvalResources {
    fn default() -> Self {
        Self {
            remote: Mutex::new(None),
            directory: Mutex::new(None),
            snapshots: Mutex::new(Vec::new()),
        }
    }
}

impl SharedEvalResources {
    /// A fresh shared handle with no pool and no snapshots.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The shared remote connection pool, created on first call (that
    /// caller's auth `token` sticks for the pool's lifetime). Every
    /// caller's static `endpoints` are merged into the roster, and any
    /// worker directory attached via
    /// [`set_worker_directory`](Self::set_worker_directory) — before or
    /// after this call — feeds it dynamically.
    pub(crate) fn remote_pool(
        &self,
        endpoints: &[String],
        token: Option<String>,
    ) -> Arc<RemotePool> {
        let mut slot = self.remote.lock().expect("shared remote pool");
        let pool = slot
            .get_or_insert_with(|| {
                let pool = RemotePool::new(Vec::new(), token);
                if let Some(directory) = self.directory.lock().expect("shared directory").clone() {
                    pool.set_directory(directory);
                }
                pool
            })
            .clone();
        pool.add_static(endpoints);
        pool
    }

    /// Attaches a dynamic endpoint source (the serve/gateway worker
    /// registry) feeding the shared remote pool. Safe to call before any
    /// remote-backend run (the hook is replayed onto the pool when it is
    /// created) or after (the live pool picks it up immediately); calling
    /// again replaces the hook.
    pub fn set_worker_directory(&self, directory: Arc<dyn WorkerDirectory>) {
        *self.directory.lock().expect("shared directory") = Some(Arc::clone(&directory));
        if let Some(pool) = self.remote.lock().expect("shared remote pool").as_ref() {
            pool.set_directory(directory);
        }
    }

    /// A point-in-time view of the shared remote fleet: `None` before any
    /// remote-backend run creates the pool.
    pub fn remote_fleet(&self) -> Option<RemoteFleetSnapshot> {
        self.remote
            .lock()
            .expect("shared remote pool")
            .as_ref()
            .map(|pool| pool.fleet_snapshot())
    }

    /// The most recent snapshot published for `fingerprint`, if any.
    pub(crate) fn snapshot(&self, fingerprint: &str) -> Option<Arc<CacheSnapshot>> {
        self.snapshots
            .lock()
            .expect("shared snapshots")
            .iter()
            .find(|(fp, _)| fp == fingerprint)
            .map(|(_, snap)| Arc::clone(snap))
    }

    /// Snapshots currently retained (for observability and tests).
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.lock().expect("shared snapshots").len()
    }

    /// Publishes a run's snapshot so later (or concurrent) runs with the
    /// same fingerprint warm-start from memory instead of the cache file.
    /// Replaces any previous snapshot for the fingerprint; the store keeps
    /// the most recent [`MAX_SNAPSHOTS`] fingerprints, oldest evicted.
    pub(crate) fn publish(&self, fingerprint: &str, snapshot: CacheSnapshot) {
        let mut store = self.snapshots.lock().expect("shared snapshots");
        store.retain(|(fp, _)| fp != fingerprint);
        store.push((fingerprint.to_string(), Arc::new(snapshot)));
        let excess = store.len().saturating_sub(MAX_SNAPSHOTS);
        store.drain(..excess);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_store_replaces_and_evicts_oldest_first() {
        let shared = SharedEvalResources::new();
        assert!(shared.snapshot("a").is_none());
        shared.publish("a", CacheSnapshot::default());
        shared.publish("b", CacheSnapshot::default());
        assert_eq!(shared.snapshot_count(), 2);
        assert!(shared.snapshot("a").is_some());
        // Re-publishing replaces in place (no duplicate entry).
        shared.publish("a", CacheSnapshot::default());
        assert_eq!(shared.snapshot_count(), 2);
        // Filling past the bound evicts the oldest fingerprints.
        for i in 0..MAX_SNAPSHOTS {
            shared.publish(&format!("fp{i}"), CacheSnapshot::default());
        }
        assert_eq!(shared.snapshot_count(), MAX_SNAPSHOTS);
        assert!(shared.snapshot("b").is_none(), "oldest must evict");
        assert!(shared
            .snapshot(&format!("fp{}", MAX_SNAPSHOTS - 1))
            .is_some());
    }

    #[test]
    fn remote_pool_is_shared_and_directory_attaches_in_either_order() {
        #[derive(Debug)]
        struct OneWorker;
        impl WorkerDirectory for OneWorker {
            fn roster(&self) -> Vec<String> {
                vec!["127.0.0.1:7002".to_string()]
            }
        }

        // Directory attached *before* the pool exists is replayed onto it.
        let shared = SharedEvalResources::new();
        assert!(shared.remote_fleet().is_none(), "no pool before first use");
        shared.set_worker_directory(Arc::new(OneWorker));
        let a = shared.remote_pool(&["127.0.0.1:7001".to_string()], None);
        let b = shared.remote_pool(&["127.0.0.1:7003".to_string()], Some("late".into()));
        assert!(Arc::ptr_eq(&a, &b), "first caller's pool sticks");
        a.refresh_roster();
        let fleet = shared.remote_fleet().expect("pool exists now");
        let addrs: Vec<&str> = fleet.endpoints.iter().map(|e| e.addr.as_str()).collect();
        assert!(addrs.contains(&"127.0.0.1:7001"), "first caller's seed");
        assert!(addrs.contains(&"127.0.0.1:7003"), "second caller merged");
        assert!(addrs.contains(&"127.0.0.1:7002"), "directory discovered");
        assert_eq!(fleet.live_connections, 0);

        // Directory attached *after* the pool exists reaches it too.
        let shared = SharedEvalResources::new();
        let pool = shared.remote_pool(&[], None);
        shared.set_worker_directory(Arc::new(OneWorker));
        pool.refresh_roster();
        assert_eq!(shared.remote_fleet().expect("pool").endpoints.len(), 1);
    }
}
