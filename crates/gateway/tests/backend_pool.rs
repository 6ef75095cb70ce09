//! The service's shared remote connection pool, exercised end to end
//! against a loopback `worker-serve` daemon.

use std::net::TcpListener;

use pimsyn::{
    serve_workers_in_background, stop_worker_server, BackendKind, ServiceConfig, SynthesisOptions,
    SynthesisRequest, SynthesisService, Synthesizer, WorkerServeConfig,
};
use pimsyn_arch::Watts;
use pimsyn_model::zoo;

fn fast_request(seed: u64) -> SynthesisRequest {
    SynthesisRequest::new(
        zoo::alexnet_cifar(10),
        SynthesisOptions::fast(Watts(9.0)).with_seed(seed),
    )
}

/// N sequential jobs through one service dial the worker at most once per
/// session slot — connections are leased and re-sessioned per job, not
/// re-dialed — and every job stays bit-identical to an inline run.
#[test]
fn service_jobs_reuse_the_shared_worker_pool() {
    const SLOTS: usize = 2;
    const JOBS: usize = 3;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    let daemon = serve_workers_in_background(
        listener,
        WorkerServeConfig {
            slots: SLOTS,
            quiet: true,
            ..Default::default()
        },
    )
    .expect("start worker daemon");
    let addr = daemon.addr().to_string();

    let service = SynthesisService::new(ServiceConfig::default().with_job_slots(1));
    assert!(service.shared_resources().remote_fleet().is_none());
    let remote_request = |seed: u64| {
        let mut request = fast_request(seed);
        request.options = request.options.with_backend(BackendKind::Remote {
            endpoints: vec![addr.clone()],
        });
        request
    };
    let handles: Vec<_> = (0..JOBS)
        .map(|i| {
            service
                .submit(remote_request(7 + i as u64))
                .expect("queue has room")
        })
        .collect();
    for (i, handle) in handles.iter().enumerate() {
        let via_service = handle.await_result().expect("feasible");
        // Each job's result is bit-identical to a standalone inline run:
        // the leased connections re-opened a session with this job's model
        // and power, so recycling them never leaks stale run state.
        let inline = Synthesizer::new(fast_request(7 + i as u64).options)
            .synthesize(&zoo::alexnet_cifar(10))
            .expect("inline synthesis");
        assert_eq!(via_service.wt_dup, inline.wt_dup, "job {i}");
        assert_eq!(via_service.architecture, inline.architecture, "job {i}");
        assert_eq!(via_service.analytic, inline.analytic, "job {i}");
        assert_eq!(via_service.evaluations, inline.evaluations, "job {i}");
        assert_eq!(via_service.history, inline.history, "job {i}");
    }
    let fleet = service
        .shared_resources()
        .remote_fleet()
        .expect("remote jobs create the shared pool");
    assert!(
        fleet.connects >= 1,
        "remote jobs must actually dial the worker"
    );
    assert!(
        fleet.endpoints.iter().any(|e| e.jobs > 0),
        "remote jobs must score on the worker: {fleet:?}"
    );
    assert!(
        fleet.connects <= SLOTS,
        "{JOBS} jobs dialed {} connections; the shared pool must cap at the \
         worker's slots ({SLOTS}), not jobs x slots",
        fleet.connects
    );
    service.shutdown();
    stop_worker_server(&addr, None).expect("daemon stops cleanly");
    daemon.join().expect("daemon exits cleanly");
}
