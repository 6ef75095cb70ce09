//! The four workloads: set-up, the timed phase, checks, and metrics.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use pimsyn::{CancelToken, EventSink, NullSink, SynthesisEngine, SynthesisService};

use crate::checks::{Checker, Finished};
use crate::gateway::{self, Gateway, ServerSpec, TENANT_KEYS};
use crate::jobs::{fast_pool, paper_mix, rng, shuffle, JobSpec};
use crate::report::{Fingerprint, Metric, Report};
use crate::stats::{geomean, median, tail, Tail, TAIL_MIN_BEYOND};
use crate::trace::{JobSpans, JobTracer, STAGE_SPANS};
use crate::{probes, Config, Workload, END_TO_END, PER_LAYER};

/// Offered load of `gateway-fast`, jobs per second: about half of the 43
/// jobs per second two job slots complete on a 2-core Xeon host.
pub const FAST_RATE: f64 = 20.0;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// How a job reaches the program.
#[derive(Clone, Copy)]
enum Route<'a> {
    /// `SynthesisEngine::run` on the calling thread.
    Engine,
    /// `POST /v1/jobs` + `GET /v1/jobs/{id}/result` on a gateway.
    Http(&'a str, &'a ServerSpec),
    /// `SynthesisService::submit_with`, the layer under the gateway.
    Service(&'a SynthesisService, &'a ServerSpec),
}

/// One job as the client saw it.
#[derive(Debug)]
struct JobRun {
    idx: usize,
    /// Scheduled send (or submit) → result, seconds.
    wall_s: f64,
    /// POST → 202, for HTTP jobs.
    submit_s: Option<f64>,
    refused: bool,
    /// How late the open-loop sender issued the job.
    lag_s: Option<f64>,
    finished: Result<Finished, String>,
    spans: Option<JobSpans>,
}

fn execute(
    route: Route<'_>,
    spec: &JobSpec,
    idx: usize,
    tenant: usize,
    traced: bool,
    scheduled: Instant,
) -> JobRun {
    let mut run = JobRun {
        idx,
        wall_s: 0.0,
        submit_s: None,
        refused: false,
        lag_s: None,
        finished: Err("not run".into()),
        spans: None,
    };
    let tracer = traced.then(|| Arc::new(JobTracer::new()));
    run.finished = match route {
        Route::Engine => {
            let request = spec.request();
            let sink: &dyn EventSink = match &tracer {
                Some(t) => t.as_ref(),
                None => &NullSink,
            };
            SynthesisEngine::new()
                .run(&request, sink, &CancelToken::new())
                .map(|r| Finished::from_result(&r))
                .map_err(|e| format!("job failed: {e}"))
        }
        Route::Http(addr, server) => {
            let key = server.tenants.then_some(TENANT_KEYS[tenant].1);
            let job = gateway::run_job(addr, key, &spec.body());
            run.submit_s = Some(job.submit_s);
            run.refused = job.refused;
            job.result.and_then(|body| Finished::from_body(&body))
        }
        Route::Service(service, server) => {
            let mut request = spec.request();
            (server.overlay())(&mut request);
            let sink = tracer.clone().map(|t| t as Arc<dyn EventSink>);
            match service.submit_with(request, server.tenant_policy(tenant), sink) {
                Ok(handle) => handle
                    .await_result()
                    .map(|r| Finished::from_result(&r))
                    .map_err(|e| format!("job failed: {e}")),
                Err(e) => {
                    run.refused = true;
                    Err(format!("submit refused: {e}"))
                }
            }
        }
    };
    run.wall_s = scheduled.elapsed().as_secs_f64();
    run.spans = tracer.map(|t| t.spans());
    run
}

/// A timed phase: its jobs and its wall time.
struct Phase {
    jobs: Vec<JobRun>,
    elapsed_s: f64,
}

impl Phase {
    fn walls(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.wall_s).collect()
    }

    fn p50(&self) -> f64 {
        median(&self.walls()).unwrap_or(0.0)
    }

    fn finished(&self) -> impl Iterator<Item = &Finished> {
        self.jobs.iter().filter_map(|j| j.finished.as_ref().ok())
    }
}

/// `clients` closed-loop clients work through `specs` cycle after cycle;
/// a new cycle starts only while fewer than `min_s` seconds have passed.
fn closed_loop(
    clients: usize,
    specs: &[JobSpec],
    min_s: f64,
    route: Route<'_>,
    traced: bool,
) -> Phase {
    let start = Instant::now();
    let next = Mutex::new(Some(0usize));
    let jobs = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let seq = {
                    let mut next = next.lock().expect("closed loop");
                    let Some(seq) = *next else { break };
                    if seq > 0 && seq % specs.len() == 0 && start.elapsed().as_secs_f64() >= min_s {
                        *next = None;
                        break;
                    }
                    *next = Some(seq + 1);
                    seq
                };
                let idx = seq % specs.len();
                let run = execute(route, &specs[idx], idx, 0, traced, Instant::now());
                jobs.lock().expect("closed loop").push(run);
            });
        }
    });
    Phase {
        jobs: jobs.into_inner().expect("closed loop"),
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// Client threads of the open loop: enough that sends never wait for a
/// free client at the offered rate, few enough to keep the harness's own
/// footprint fixed.
const OPEN_LOOP_CLIENTS: usize = 8;

/// Sends `sends[k] = (job index, tenant)` at `k / rate` seconds through a
/// fixed pool of client threads, and times every job from its scheduled
/// send. A job's lag is how late its client started it.
fn open_loop(
    specs: &[JobSpec],
    sends: &[(usize, usize)],
    rate: f64,
    route: Route<'_>,
    traced: bool,
) -> Phase {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let rx = Mutex::new(rx);
    let jobs = Mutex::new(Vec::with_capacity(sends.len()));
    std::thread::scope(|s| {
        for _ in 0..OPEN_LOOP_CLIENTS {
            s.spawn(|| loop {
                let next = rx.lock().expect("open loop").recv();
                let Ok((k, scheduled)) = next else { break };
                let lag = scheduled.elapsed().as_secs_f64();
                let (idx, tenant) = sends[k];
                let mut run = execute(route, &specs[idx], idx, tenant, traced, scheduled);
                run.lag_s = Some(lag);
                jobs.lock().expect("open loop").push(run);
            });
        }
        for k in 0..sends.len() {
            let scheduled = start + Duration::from_secs_f64(k as f64 / rate);
            std::thread::sleep(scheduled.saturating_duration_since(Instant::now()));
            tx.send((k, scheduled)).expect("clients outlive the sender");
        }
        drop(tx);
    });
    Phase {
        jobs: jobs.into_inner().expect("open loop"),
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// Everything a workload needs besides its route.
struct Plan {
    specs: Vec<JobSpec>,
    server: ServerSpec,
    clients: usize,
    /// Open-loop sends; empty for closed-loop workloads.
    sends: Vec<(usize, usize)>,
    /// Fast-effort jobs run once at set-up to warm the process.
    warmup: Vec<JobSpec>,
    /// Submit every job once at set-up (cache priming).
    prime: bool,
    /// Check results against in-process cold runs.
    references: bool,
}

/// Fast-effort twins of `specs`, for warming up.
fn fast_twins(specs: &[JobSpec]) -> Vec<JobSpec> {
    specs
        .iter()
        .map(|s| JobSpec {
            effort: "fast",
            ..s.clone()
        })
        .collect()
}

fn plan(cfg: &Config, scratch: &Path) -> Plan {
    let paper = if cfg.smoke { "fast" } else { "paper" };
    let server = |tenants, cache_file| ServerSpec {
        tenants,
        cache_file,
    };
    match cfg.workload {
        Workload::PaperCold => {
            let specs = paper_mix(cfg.seed, [0, 1, 2], paper);
            Plan {
                warmup: fast_twins(&specs),
                specs,
                server: server(false, None),
                clients: 1,
                sends: Vec::new(),
                prime: false,
                references: false,
            }
        }
        // Longest job first, so the two clients finish a cycle together;
        // transformer-tiny next, so the median job starts with resnet18 and
        // runs beside it throughout.
        Workload::GatewayPaper => {
            let specs = paper_mix(cfg.seed, [1, 2, 0], paper);
            Plan {
                warmup: fast_twins(&specs),
                specs,
                server: server(false, None),
                clients: 2,
                sends: Vec::new(),
                prime: false,
                references: true,
            }
        }
        Workload::GatewayFast => {
            let specs = fast_pool(cfg.seed, if cfg.smoke { 1 } else { 2 });
            let n = (FAST_RATE * cfg.seconds).round().max(1.0) as usize;
            let mut order: Vec<usize> = (0..n).map(|k| k % specs.len()).collect();
            shuffle(&mut order, &mut rng(cfg.seed, 4));
            // Three of every four sends come from the first tenant.
            let sends = order
                .into_iter()
                .enumerate()
                .map(|(k, idx)| (idx, usize::from(k % 4 == 3)))
                .collect();
            Plan {
                // One job per model (the pool is model-major, two powers each).
                warmup: fast_twins(&specs).into_iter().step_by(2).take(4).collect(),
                specs,
                server: server(true, None),
                clients: 0,
                sends,
                prime: false,
                references: true,
            }
        }
        Workload::WarmRepeat => {
            let mut specs = fast_pool(cfg.seed, 1);
            shuffle(&mut specs, &mut rng(cfg.seed, 5));
            if cfg.smoke {
                specs.truncate(3);
            }
            Plan {
                specs,
                server: server(false, Some(scratch.join("eval-cache.json"))),
                clients: 1,
                sends: Vec::new(),
                warmup: Vec::new(),
                prime: true,
                references: true,
            }
        }
    }
}

fn timed(plan: &Plan, cfg: &Config, route: Route<'_>, traced: bool) -> Phase {
    if plan.sends.is_empty() {
        closed_loop(plan.clients, &plan.specs, cfg.seconds, route, traced)
    } else {
        open_loop(&plan.specs, &plan.sends, FAST_RATE, route, traced)
    }
}

/// Warms the process up and, where the workload primes, submits every
/// job once through `route`, checking it.
fn set_up(plan: &Plan, route: Route<'_>, checker: &mut Checker) {
    for spec in &plan.warmup {
        execute(route, spec, 0, 0, false, Instant::now());
    }
    if plan.prime {
        for (idx, spec) in plan.specs.iter().enumerate() {
            let run = execute(route, spec, idx, 0, false, Instant::now());
            checker.record(idx, spec, &run.finished);
        }
    }
}

/// Checks results against in-process cold runs of every job, made after
/// the timed phases so they neither warm them nor add to their memory.
/// Returns the seconds the reference runs took.
fn check_references(plan: &Plan, checker: &mut Checker) -> f64 {
    let start = Instant::now();
    if plan.references {
        for (idx, spec) in plan.specs.iter().enumerate() {
            let run = execute(Route::Engine, spec, idx, 0, false, Instant::now());
            checker.record(idx, spec, &run.finished);
        }
    }
    start.elapsed().as_secs_f64()
}

/// A field of `/proc/self/status` in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` while sampling this process's resident set every 10 ms;
/// returns `f`'s value and the largest sample (MB). Unlike the kernel's
/// lifetime high-water mark, this leaves out the repeated set-ups.
fn sampling_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = status_mb("VmRSS:");
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
                peak = peak.max(status_mb("VmRSS:"));
            }
            peak
        });
        let value = f();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        (value, sampler.join().expect("RSS sampler"))
    })
}

/// Runs one workload as configured.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let scratch = cfg.out_dir.join(format!(
        "tmp-{}-{}",
        cfg.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let outcome = if cfg.trace {
        traced_run(cfg, &scratch)
    } else {
        untraced_run(cfg, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

/// A fresh per-set-up directory, so every set-up starts without a cache.
fn fresh_dir(scratch: &Path, i: usize) -> Result<PathBuf, String> {
    let dir = scratch.join(format!("setup-{i}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn untraced_run(cfg: &Config, scratch: &Path) -> Result<Report, String> {
    let mut checker = Checker::new();
    let repeats = match (cfg.smoke, cfg.workload) {
        (true, _) => 1,
        // Priming writes the cache file job by job, seconds per set-up.
        (false, Workload::WarmRepeat) => 3,
        (false, _) => SETUP_REPEATS,
    };
    let mut setups = Vec::new();
    let mut kept: Option<(Plan, Option<Gateway>)> = None;
    for i in 0..repeats {
        if let Some((_, Some(g))) = kept.take() {
            g.stop()?;
        }
        let t0 = Instant::now();
        let dir = fresh_dir(scratch, i)?;
        let plan = plan(cfg, &dir);
        let gateway = if cfg.workload == Workload::PaperCold {
            None
        } else {
            Some(Gateway::start(&plan.server, &dir)?)
        };
        let route = gateway
            .as_ref()
            .map_or(Route::Engine, |g| Route::Http(&g.addr, &plan.server));
        // Only the kept set-up's priming is checked: its cache is the one
        // the timed phase reads.
        let mut discard = Checker::new();
        set_up(
            &plan,
            route,
            if i + 1 == repeats {
                &mut checker
            } else {
                &mut discard
            },
        );
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some((plan, gateway));
    }
    let (plan, gateway) = kept.expect("at least one set-up");

    let route = gateway
        .as_ref()
        .map_or(Route::Engine, |g| Route::Http(&g.addr, &plan.server));
    let (phase, rss_mb) = sampling_rss(|| timed(&plan, cfg, route, false));
    if let Some(g) = gateway {
        g.stop()?;
    }
    let oracle_s = check_references(&plan, &mut checker);
    for job in &phase.jobs {
        checker.record(job.idx, &plan.specs[job.idx], &job.finished);
    }

    let evaluations: usize = phase.finished().map(|f| f.evaluations).sum();
    let mut metrics = vec![
        Metric::plain("setup_s", "s", median(&setups).unwrap_or(0.0))
            .with_note(format!("median of {} set-ups: {setups:.4?}", setups.len())),
        Metric::plain("job_s_p50", "s", phase.p50())
            .with_note(format!("{} jobs", phase.jobs.len())),
        Metric::plain("evals_per_s", "1/s", evaluations as f64 / phase.elapsed_s),
        Metric::plain(
            "jobs_per_s",
            "1/s",
            phase.jobs.len() as f64 / phase.elapsed_s,
        ),
        Metric::plain("peak_rss_mb", "MB", rss_mb).with_note("sampled every 10 ms while timed"),
        Metric::plain("bench.oracle_s", "s", oracle_s)
            .with_note("in-process reference runs, after the timed phase"),
    ];
    if let Some(t) = tail(&phase.walls(), 99) {
        metrics.push(
            Metric::plain(&format!("job_s_p{}", t.pct), "s", t.value)
                .with_note(tail_note(&t, "jobs")),
        );
    }
    if !plan.sends.is_empty() {
        metrics.push(Metric::plain("bench.offered_rate", "1/s", FAST_RATE));
        let lags: Vec<f64> = phase.jobs.iter().filter_map(|j| j.lag_s).collect();
        if let Some(t) = tail(&lags, 99) {
            metrics.push(
                Metric::plain(
                    &format!("bench.sender_lag_ms_p{}", t.pct),
                    "ms",
                    1e3 * t.value,
                )
                .with_note(tail_note(&t, "sends")),
            );
        }
    }
    let submits: Vec<f64> = phase.jobs.iter().filter_map(|j| j.submit_s).collect();
    if let Some(p50) = median(&submits) {
        metrics.push(Metric::plain("gateway.http.submit_ms_p50", "ms", 1e3 * p50));
        metrics.push(Metric::plain(
            "gateway.http.refused",
            "count",
            phase.jobs.iter().filter(|j| j.refused).count() as f64,
        ));
    }
    metrics.extend(outcome_metrics(&phase, &checker));
    let jobs: Vec<String> = phase
        .jobs
        .iter()
        .map(|j| {
            format!(
                r#"{{"job":"{}","wall_s":{}}}"#,
                plan.specs[j.idx].label(),
                j.wall_s
            )
        })
        .collect();
    let details = format!(r#""jobs": [{}]"#, jobs.join(",\n"));
    Ok(finish(cfg, END_TO_END, metrics, &checker, details))
}

/// Names the sample count and why the percentile is not higher.
fn tail_note(t: &Tail, what: &str) -> String {
    format!(
        "{} {what}; the highest percentile <= 99 with >= {TAIL_MIN_BEYOND} beyond it",
        t.samples
    )
}

/// Simulated outcomes: reported so a speed change can show it left them
/// alone, never gated.
fn outcome_metrics(phase: &Phase, checker: &Checker) -> Vec<Metric> {
    let effs: Vec<f64> = phase.finished().map(|f| f.tops_per_w).collect();
    let evals: Vec<f64> = phase.finished().map(|f| f.evaluations as f64).collect();
    vec![
        Metric::plain(
            "sim.design_tops_per_w_geomean",
            "TOPS/W",
            geomean(&effs).unwrap_or(0.0),
        ),
        Metric::plain(
            "sim.evaluations",
            "count",
            evals.iter().sum::<f64>() / evals.len().max(1) as f64,
        )
        .with_note("mean per job"),
        Metric::plain(
            "dse.budget.distinct_results",
            "count",
            checker.distinct_budgeted() as f64,
        )
        .with_note("budgeted jobs whose repeats disagreed"),
    ]
}

fn traced_run(cfg: &Config, scratch: &Path) -> Result<Report, String> {
    let mut checker = Checker::new();
    let plan = plan(cfg, &fresh_dir(scratch, 0)?);
    let service = (cfg.workload != Workload::PaperCold).then(|| plan.server.service());
    let route = match &service {
        Some(s) => Route::Service(s, &plan.server),
        None => Route::Engine,
    };
    set_up(&plan, route, &mut checker);
    let untraced = timed(&plan, cfg, route, false);
    let traced = timed(&plan, cfg, route, true);
    if let Some(s) = service {
        s.shutdown();
    }
    check_references(&plan, &mut checker);
    for job in untraced.jobs.iter().chain(&traced.jobs) {
        checker.record(job.idx, &plan.specs[job.idx], &job.finished);
    }

    let spans: Vec<JobSpans> = traced.jobs.iter().filter_map(|j| j.spans.clone()).collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut metrics = layer_metrics(&spans, threads);
    metrics.extend(probes::run(cfg.seed, cfg.smoke));
    metrics.extend(outcome_metrics(&traced, &checker));
    metrics.push(Metric::ratio(
        "bench.trace_overhead_ratio",
        "ratio",
        traced.p50(),
        untraced.p50(),
        "s, the untraced job p50",
    ));
    let trees: Vec<String> = traced
        .jobs
        .iter()
        .filter_map(|j| {
            j.spans
                .as_ref()
                .map(|s| s.to_json(&plan.specs[j.idx].label()))
        })
        .collect();
    let details = format!(r#""spans": [{}]"#, trees.join(",\n"));
    Ok(finish(cfg, PER_LAYER, metrics, &checker, details))
}

/// Per-layer metrics of the traced jobs.
fn layer_metrics(spans: &[JobSpans], threads: usize) -> Vec<Metric> {
    let n = spans.len().max(1) as f64;
    let sum = |f: &dyn Fn(&JobSpans) -> f64| spans.iter().map(f).sum::<f64>();
    let stat = |f: &dyn Fn(&pimsyn::EvaluatorStats) -> usize| {
        spans
            .iter()
            .filter_map(|s| s.stats)
            .map(|s| f(&s) as f64)
            .sum::<f64>()
    };
    let p50_ms = |name: &str| {
        1e3 * median(&spans.iter().map(|s| s.total(name)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let busy: Vec<f64> = STAGE_SPANS
        .iter()
        .map(|name| sum(&|s| s.total(name)))
        .collect();
    let points: Vec<f64> = spans
        .iter()
        .flat_map(|s| s.durations("dse.explore.point"))
        .collect();
    let rescores = stat(&|s| s.delta_hits + s.delta_fallbacks);
    let note = format!("per job, mean of {} jobs", spans.len());
    vec![
        Metric::plain("dse.sa.busy_s", "s", busy[0] / n).with_note(&note),
        Metric::plain("ir.compile.busy_s", "s", busy[1] / n).with_note(&note),
        Metric::plain("dse.ea.busy_s", "s", busy[2] / n).with_note(&note),
        Metric::plain("dse.alloc.busy_s", "s", busy[3] / n).with_note(&note),
        Metric::ratio(
            "dse.ea.share",
            "ratio",
            busy[2],
            busy.iter().sum(),
            "s of stage-busy time",
        ),
        Metric::plain(
            "dse.explore.point_s_p50",
            "s",
            median(&points).unwrap_or(0.0),
        )
        .with_note(format!("{} design points", points.len())),
        Metric::plain(
            "dse.explore.point_s_max",
            "s",
            points.iter().copied().fold(0.0, f64::max),
        ),
        Metric::ratio(
            "dse.explore.busy_ratio",
            "ratio",
            points.iter().sum(),
            sum(&|s| s.total("core.engine.run")) * threads as f64,
            &format!("job-seconds x {threads} point threads"),
        ),
        Metric::plain("dse.eval.scored", "count", stat(&|s| s.scored) / n).with_note(&note),
        Metric::plain(
            "dse.eval.unique",
            "count",
            stat(&|s| s.unique_evaluations) / n,
        )
        .with_note(&note),
        Metric::ratio(
            "dse.eval.hit_ratio",
            "ratio",
            stat(&|s| s.cache_hits),
            stat(&|s| s.scored),
            "scored candidates",
        ),
        Metric::plain("dse.eval.preloaded", "count", stat(&|s| s.preloaded) / n).with_note(&note),
        Metric::plain("dse.sa.probes", "count", stat(&|s| s.sa_probes) / n).with_note(&note),
        Metric::ratio(
            "dse.sa.hit_ratio",
            "ratio",
            stat(&|s| s.sa_cache_hits),
            stat(&|s| s.sa_probes),
            "SA energy probes",
        ),
        Metric::ratio(
            "sim.layer_cache.hit_ratio",
            "ratio",
            stat(&|s| s.layer_hits),
            stat(&|s| s.layer_hits + s.layer_misses),
            "layer-cost lookups",
        ),
        Metric::ratio(
            "dse.delta.hit_ratio",
            "ratio",
            stat(&|s| s.delta_hits),
            rescores,
            "parent-offered rescores",
        ),
        Metric::ratio(
            "dse.delta.layers_per_rescore",
            "layer/rescore",
            stat(&|s| s.layers_recomputed),
            rescores,
            "parent-offered rescores",
        ),
        Metric::plain(
            "core.service.queue_wait_ms_p50",
            "ms",
            p50_ms("core.service.queue_wait"),
        ),
        Metric::plain(
            "core.engine.setup_ms_p50",
            "ms",
            p50_ms("core.engine.setup"),
        ),
        Metric::plain(
            "core.engine.finish_ms_p50",
            "ms",
            p50_ms("core.engine.finish"),
        ),
    ]
}

/// Picks the gated metrics out of everything measured, in listed order;
/// the rest are reported as not gated.
fn finish(
    cfg: &Config,
    listed: &[(&str, &str)],
    mut measured: Vec<Metric>,
    checker: &Checker,
    details: String,
) -> Report {
    let gated = listed
        .iter()
        .map(|(name, unit)| {
            let i = measured
                .iter()
                .position(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let m = measured.remove(i);
            assert_eq!(m.unit, *unit, "unit of {name}");
            m
        })
        .collect();
    Report {
        workload: cfg.workload.name(),
        seed: cfg.seed,
        trace: cfg.trace,
        metrics: gated,
        extra: measured,
        attempted: checker.attempted,
        failed: checker.failed,
        failures: checker.failures.clone(),
        fingerprint: Fingerprint::detect(),
        details,
    }
}
