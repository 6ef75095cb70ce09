//! End-to-end exercise of the remote evaluation backend: `--backend
//! remote:HOST:PORT` against a live `pimsyn worker-serve` daemon must be
//! bit-identical to inline scoring, a daemon killed mid-run must degrade
//! gracefully to the same results, authentication failures must fall back
//! inline with a single clear stderr warning, and both daemons must print
//! their actually-bound address so port 0 is usable.
//!
//! These tests live in the `pimsyn-gateway` crate — the workspace's binary
//! crate — so `CARGO_BIN_EXE_pimsyn` points at the real CLI binary for the
//! subprocess-spawned arms; the in-process arms drive
//! `serve_workers_in_background` directly.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};

use pimsyn::{
    serve_workers_in_background, stop_worker_server, BackendKind, SynthesisOptions, Synthesizer,
    Watts, WorkerServeConfig,
};
use pimsyn_model::json::JsonValue;
use pimsyn_model::zoo;

const PIMSYN_BIN: &str = env!("CARGO_BIN_EXE_pimsyn");

fn base_options() -> SynthesisOptions {
    SynthesisOptions::fast(Watts(9.0)).with_seed(7)
}

fn remote_options(addr: &str) -> SynthesisOptions {
    base_options().with_backend(BackendKind::Remote {
        endpoints: vec![addr.to_string()],
    })
}

fn loopback_daemon(config: WorkerServeConfig) -> pimsyn::WorkerServeHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    serve_workers_in_background(listener, config).expect("start worker daemon")
}

fn assert_identical(a: &pimsyn::SynthesisResult, b: &pimsyn::SynthesisResult) {
    assert_eq!(a.wt_dup, b.wt_dup);
    assert_eq!(a.architecture, b.architecture);
    assert_eq!(a.analytic, b.analytic);
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(a.history, b.history);
    assert_eq!(a.stop_reason, b.stop_reason);
}

#[test]
fn remote_backend_is_bit_identical_to_inline() {
    let model = zoo::alexnet_cifar(10);
    let inline = Synthesizer::new(base_options()).synthesize(&model).unwrap();
    let daemon = loopback_daemon(WorkerServeConfig {
        slots: 2,
        token: None,
        quiet: true,
        ..Default::default()
    });
    let addr = daemon.addr().to_string();
    let remote = Synthesizer::new(remote_options(&addr))
        .synthesize(&model)
        .unwrap();
    assert_identical(&inline, &remote);
    stop_worker_server(&addr, None).expect("daemon stops cleanly");
    daemon.join().expect("daemon exits cleanly");
}

#[test]
fn daemon_killed_mid_run_degrades_to_identical_results() {
    let model = zoo::alexnet_cifar(10);
    let inline = Synthesizer::new(base_options()).synthesize(&model).unwrap();
    // A real child process, so killing it actually cuts live sessioned
    // connections (an in-process stop only ends the accept loop): in-flight
    // chunks hit the exchange-failure path mid-run and recompute inline,
    // later reconnects fail — the outcome must not change whatever the
    // interleaving.
    let (mut child, addr) = spawn_worker_serve_cli(&["--quiet"]);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(50));
        let _ = child.kill();
        let _ = child.wait();
    });
    let remote = Synthesizer::new(remote_options(&addr))
        .synthesize(&model)
        .unwrap();
    killer.join().unwrap();
    assert_identical(&inline, &remote);
}

#[test]
fn unreachable_roster_degrades_to_identical_results() {
    let model = zoo::alexnet_cifar(10);
    let inline = Synthesizer::new(base_options()).synthesize(&model).unwrap();
    // Bind a port, learn its address, then close it again: connecting to it
    // must fail, and the whole run must fall back to inline scoring.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let remote = Synthesizer::new(remote_options(&dead_addr))
        .synthesize(&model)
        .unwrap();
    assert_identical(&inline, &remote);
}

#[test]
fn stale_protocol_peer_is_rejected_and_matches_inline() {
    use std::io::Write;
    let model = zoo::alexnet_cifar(10);
    let inline = Synthesizer::new(base_options()).synthesize(&model).unwrap();
    // A peer that welcomes every hello as protocol version 1: the dialer
    // must refuse it at the handshake — never send it a session — and
    // score the whole run inline.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let sessions_offered = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let seen = Arc::clone(&sessions_offered);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut hello = String::new();
            let _ = reader.read_line(&mut hello);
            let _ = writeln!(
                stream,
                r#"{{"type":"welcome","pimsyn_worker":1,"slots":1}}"#
            );
            // Anything after the welcome would be a session opened on a
            // peer that failed the version check.
            let mut next = String::new();
            if reader.read_line(&mut next).is_ok_and(|n| n > 0) {
                seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
    });
    let remote = Synthesizer::new(remote_options(&addr))
        .synthesize(&model)
        .unwrap();
    assert_identical(&inline, &remote);
    assert_eq!(
        sessions_offered.load(std::sync::atomic::Ordering::SeqCst),
        0,
        "no session may open on a version-mismatched peer"
    );
}

#[test]
fn wrong_token_is_rejected_and_daemon_survives() {
    let daemon = loopback_daemon(WorkerServeConfig {
        slots: 1,
        token: Some("s3cret".to_string()),
        quiet: true,
        ..Default::default()
    });
    let addr = daemon.addr().to_string();
    // A stop without (or with the wrong) token must be refused...
    let err = stop_worker_server(&addr, None).expect_err("tokenless stop must fail");
    assert!(err.contains("authentication"), "{err}");
    let err = stop_worker_server(&addr, Some("wrong")).expect_err("bad-token stop must fail");
    assert!(err.contains("authentication"), "{err}");
    // ... and the right token still works afterwards.
    stop_worker_server(&addr, Some("s3cret")).expect("authenticated stop");
    daemon.join().expect("daemon exits cleanly");
}

/// Spawns `pimsyn worker-serve` on port 0 and returns the child plus the
/// bound address parsed from its startup stderr line — the script-facing
/// contract the `:0` fix exists for.
fn spawn_worker_serve_cli(extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(PIMSYN_BIN)
        .args(["worker-serve", "--listen", "127.0.0.1:0"])
        .args(extra)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker-serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("worker-serve exited before announcing its address")
            .expect("readable stderr");
        if let Some(addr) = line.strip_prefix("pimsyn worker-serve: listening on ") {
            break addr.trim().to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, addr)
}

fn run_cli(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(PIMSYN_BIN)
        .args(args)
        .output()
        .expect("CLI run");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Drops the wall-clock field, the only summary field allowed to differ
/// between repeated runs.
fn summary_without_elapsed(stdout: &str) -> Vec<(String, String)> {
    let doc = JsonValue::parse(stdout.trim()).expect("summary is valid JSON");
    doc.as_object()
        .expect("summary is an object")
        .iter()
        .filter(|(k, _)| k != "elapsed_s")
        .map(|(k, v)| (k.clone(), v.to_string()))
        .collect()
}

#[test]
fn cli_auth_failure_warns_once_and_matches_inline_summary() {
    let token_path =
        std::env::temp_dir().join(format!("pimsyn-worker-token-{}.txt", std::process::id()));
    std::fs::write(&token_path, "s3cret\n").unwrap();
    let (mut child, addr) =
        spawn_worker_serve_cli(&["--auth-token-file", token_path.to_str().unwrap(), "--quiet"]);

    let common = [
        "--model",
        "alexnet-cifar",
        "--power",
        "9",
        "--seed",
        "7",
        "--output",
        "json",
        "--quiet",
    ];
    let (inline_out, _, ok) = run_cli(&common);
    assert!(ok, "inline run failed");

    // No token on the dialing side: every handshake is rejected, the run
    // degrades to inline scoring with a single clear warning, and the
    // summary is unchanged.
    let spec = format!("remote:{addr}");
    let mut with_remote: Vec<&str> = common.to_vec();
    with_remote.extend(["--backend", &spec]);
    let (remote_out, remote_err, ok) = run_cli(&with_remote);
    assert!(ok, "remote run failed: {remote_err}");
    assert_eq!(
        summary_without_elapsed(&inline_out),
        summary_without_elapsed(&remote_out),
        "auth-failed remote run must equal the inline one"
    );
    let warnings: Vec<&str> = remote_err
        .lines()
        .filter(|l| l.contains("remote evaluation degraded"))
        .collect();
    assert_eq!(
        warnings.len(),
        1,
        "exactly one degradation warning expected, got: {remote_err}"
    );
    assert!(
        warnings[0].contains("authentication failed"),
        "the warning must name the cause: {}",
        warnings[0]
    );

    // With the right token the same daemon serves the run remotely.
    let mut with_token: Vec<&str> = with_remote.clone();
    with_token.extend(["--remote-token-file", token_path.to_str().unwrap()]);
    let (auth_out, auth_err, ok) = run_cli(&with_token);
    assert!(ok, "authenticated remote run failed: {auth_err}");
    assert_eq!(
        summary_without_elapsed(&inline_out),
        summary_without_elapsed(&auth_out),
        "authenticated remote run must equal the inline one"
    );
    assert!(
        !auth_err.contains("remote evaluation degraded"),
        "authenticated run must not warn: {auth_err}"
    );

    // Clean shutdown through the CLI, authenticated.
    let (_, _, ok) = run_cli(&[
        "worker-stop",
        "--connect",
        &addr,
        "--auth-token-file",
        token_path.to_str().unwrap(),
    ]);
    assert!(ok, "worker-stop failed");
    let status = child.wait().expect("worker-serve exits");
    assert!(status.success(), "worker-serve must exit cleanly: {status}");
    let _ = std::fs::remove_file(&token_path);
}

// --- worker fleet: registry churn ---

use std::sync::Arc;
use std::time::Duration;

use pimsyn::{
    serve_registry_in_background, ServiceConfig, SynthesisRequest, SynthesisService, WorkerRegistry,
};

/// Starts a worker registry on a loopback port and a synthesis service
/// whose shared evaluation resources consult it for the remote roster —
/// the same wiring `pimsyn gateway --worker-registry` performs.
fn registry_service(interval: Duration) -> (Arc<SynthesisService>, Arc<WorkerRegistry>, String) {
    let registry = WorkerRegistry::new(interval, None, true);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind registry port");
    let addr = serve_registry_in_background(listener, registry.clone()).expect("start registry");
    let service = Arc::new(SynthesisService::new(ServiceConfig::default()));
    service
        .shared_resources()
        .set_worker_directory(registry.clone());
    (service, registry, addr.to_string())
}

/// Runs one job through the service with an empty static roster: every
/// endpoint the run uses must come from the registry directory.
fn registry_run(
    service: &SynthesisService,
    model: &pimsyn_model::Model,
) -> pimsyn::SynthesisResult {
    let options = base_options().with_backend(BackendKind::Remote {
        endpoints: Vec::new(),
    });
    let handle = service
        .submit(SynthesisRequest::new(model.clone(), options))
        .expect("submit job");
    handle.await_result().expect("job succeeds")
}

fn wait_for(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn registry_join_and_drain_keep_results_identical() {
    let model = zoo::alexnet_cifar(10);
    let inline = Synthesizer::new(base_options()).synthesize(&model).unwrap();
    let (service, registry, registry_addr) = registry_service(Duration::from_millis(100));

    // No workers registered yet: the empty roster scores inline.
    assert_identical(&inline, &registry_run(&service, &model));

    // A worker announcing itself while a job is already running is picked
    // up at the next chunk dispatch — or not at all, if the job finishes
    // first. Either interleaving must produce the same result.
    let announce_to = registry_addr.clone();
    let joiner = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        loopback_daemon(WorkerServeConfig {
            slots: 2,
            quiet: true,
            announce: Some(announce_to),
            ..Default::default()
        })
    });
    assert_identical(&inline, &registry_run(&service, &model));
    let daemon = joiner.join().unwrap();

    // Steady state: the worker is registered and the fleet shows a
    // registry-discovered endpoint after the run.
    wait_for("the worker to register", || {
        !registry.snapshot().workers.is_empty()
    });
    assert_identical(&inline, &registry_run(&service, &model));
    let fleet = service
        .shared_resources()
        .remote_fleet()
        .expect("a remote fleet exists after a remote-backend job");
    assert!(
        fleet.endpoints.iter().any(|e| e.discovered),
        "expected a registry-discovered endpoint, got {fleet:?}"
    );
    // The run scored remotely, so the endpoint must have accumulated
    // per-batch scoring-latency observations.
    assert!(
        fleet
            .endpoints
            .iter()
            .any(|e| e.batches > 0 && e.batch_seconds > 0.0),
        "expected recorded batch latency, got {fleet:?}"
    );

    // Stopping the daemon sends a graceful drain; later jobs must fall
    // back inline against the now-empty roster.
    let worker_addr = daemon.addr().to_string();
    stop_worker_server(&worker_addr, None).expect("worker stops cleanly");
    daemon.join().expect("worker exits cleanly");
    wait_for("the drain to deregister the worker", || {
        registry.snapshot().workers.is_empty()
    });
    assert!(registry.snapshot().drains >= 1, "drain must be counted");
    assert_identical(&inline, &registry_run(&service, &model));
    service.shutdown();
}

#[test]
fn dead_worker_is_evicted_and_results_stay_identical() {
    let model = zoo::alexnet_cifar(10);
    let inline = Synthesizer::new(base_options()).synthesize(&model).unwrap();
    let (service, registry, registry_addr) = registry_service(Duration::from_millis(100));

    // A real CLI child: killing it cuts live sessions *and* its announcer,
    // so heartbeats stop and the registry must age the entry out.
    let (mut child, _worker_addr) =
        spawn_worker_serve_cli(&["--quiet", "--announce", &registry_addr]);
    wait_for("the worker to register", || {
        !registry.snapshot().workers.is_empty()
    });

    // Kill it mid-run: in-flight chunks recompute inline, the result is
    // unchanged, and no drain ever arrives — only missed heartbeats.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        let _ = child.kill();
        let _ = child.wait();
    });
    assert_identical(&inline, &registry_run(&service, &model));
    killer.join().unwrap();

    // Three missed heartbeats at the 100ms test interval: the entry is
    // evicted, and jobs against the empty roster still match inline.
    wait_for("the dead worker to be evicted", || {
        let snap = registry.snapshot();
        snap.workers.is_empty() && snap.evictions >= 1
    });
    assert_identical(&inline, &registry_run(&service, &model));
    service.shutdown();
}

// --- chaos suite: adaptive chunking under a misbehaving fleet ---

use pimsyn::FaultInjection;

/// The heterogeneous-fleet chaos test: one fast healthy worker, one
/// heavily slowed worker (fault-injected per-candidate delay), one worker
/// that drops its connection every third score exchange, and one worker
/// killed mid-run. The run must stay
/// bit-identical to inline, and the fleet snapshot must show the adaptive
/// chunker routing less work to the slow endpoint than the fast one.
#[test]
fn chaos_fleet_is_bit_identical_and_starves_the_slow_worker() {
    let model = zoo::alexnet_cifar(10);
    let inline = Synthesizer::new(base_options()).synthesize(&model).unwrap();

    let fast = loopback_daemon(WorkerServeConfig {
        slots: 2,
        quiet: true,
        ..Default::default()
    });
    // ~10×+ slower than real scoring: every candidate costs 2 ms extra.
    let slow = loopback_daemon(WorkerServeConfig {
        slots: 1,
        quiet: true,
        faults: FaultInjection {
            job_delay: Some(Duration::from_millis(2)),
            ..Default::default()
        },
        ..Default::default()
    });
    let flaky = loopback_daemon(WorkerServeConfig {
        slots: 1,
        quiet: true,
        faults: FaultInjection {
            drop_every: Some(3),
            ..Default::default()
        },
        ..Default::default()
    });
    // A real child process so the kill cuts live sessions mid-chunk.
    let (mut child, killed_addr) = spawn_worker_serve_cli(&["--quiet"]);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        let _ = child.kill();
        let _ = child.wait();
    });

    let fast_addr = fast.addr().to_string();
    let slow_addr = slow.addr().to_string();
    let endpoints = vec![
        fast_addr.clone(),
        slow_addr.clone(),
        flaky.addr().to_string(),
        killed_addr,
    ];
    // Through the service so the shared pool's fleet snapshot stays
    // readable after the run — the same wiring `pimsyn gateway` uses.
    let service = Arc::new(SynthesisService::new(ServiceConfig::default()));
    let handle = service
        .submit(SynthesisRequest::new(
            model.clone(),
            base_options().with_backend(BackendKind::Remote { endpoints }),
        ))
        .expect("submit job");
    let remote = handle.await_result().expect("job succeeds");
    killer.join().unwrap();
    assert_identical(&inline, &remote);

    let fleet = service
        .shared_resources()
        .remote_fleet()
        .expect("a remote fleet exists after a remote-backend job");
    let jobs_of = |addr: &str| {
        fleet
            .endpoints
            .iter()
            .find(|e| e.addr == addr)
            .unwrap_or_else(|| panic!("{addr} missing from {fleet:?}"))
            .jobs
    };
    assert!(jobs_of(&fast_addr) > 0, "fast worker must score remotely");
    assert!(
        jobs_of(&slow_addr) < jobs_of(&fast_addr),
        "the slow endpoint must receive a smaller share than the fast one: {fleet:?}"
    );
    service.shutdown();

    for daemon in [fast, slow, flaky] {
        let addr = daemon.addr().to_string();
        stop_worker_server(&addr, None).expect("daemon stops cleanly");
        daemon.join().expect("daemon exits cleanly");
    }
}

#[test]
fn remote_token_file_without_remote_backend_is_rejected() {
    let (_, stderr, ok) = run_cli(&[
        "--model",
        "alexnet-cifar",
        "--power",
        "9",
        "--remote-token-file",
        "/tmp/whatever",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--remote-token-file"), "{stderr}");
}
