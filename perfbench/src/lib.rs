//! End-to-end and per-layer host-time benchmark of PIMSYN synthesis.
//!
//! Four workloads drive the public entry points — [`pimsyn::SynthesisEngine::run`],
//! the HTTP gateway, and the layer functions the probes time — and report
//! the seconds a user waits for a design. The modelled accelerator's own
//! latency is never timed here; its outcomes are only reported (`sim.*`)
//! so a performance change can show it left them alone.
//!
//! A run (`--trace 0`) measures one workload untraced and reports the
//! [`END_TO_END`] metrics. A traced run (`--trace 1`) replays the same
//! requests through the `core` layer twice, untraced then with a
//! timestamping event sink, times the layer probes, and reports the
//! [`PER_LAYER`] metrics. Every run checks the program's outputs.

pub mod checks;
pub mod gateway;
pub mod jobs;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

/// End-to-end metrics `(name, unit)` of an untraced run, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s_p50", "s"),
    ("evals_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)` of a traced run, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dse.sa.busy_s", "s"),
    ("ir.compile.busy_s", "s"),
    ("dse.ea.busy_s", "s"),
    ("dse.alloc.busy_s", "s"),
    ("dse.ea.share", "ratio"),
    ("dse.explore.point_s_p50", "s"),
    ("dse.explore.point_s_max", "s"),
    ("dse.explore.busy_ratio", "ratio"),
    ("dse.eval.scored", "count"),
    ("dse.eval.unique", "count"),
    ("dse.eval.hit_ratio", "ratio"),
    ("dse.eval.preloaded", "count"),
    ("dse.sa.probes", "count"),
    ("dse.sa.hit_ratio", "ratio"),
    ("sim.layer_cache.hit_ratio", "ratio"),
    ("dse.delta.hit_ratio", "ratio"),
    ("dse.delta.layers_per_rescore", "layer/rescore"),
    ("core.service.queue_wait_ms_p50", "ms"),
    ("core.engine.setup_ms_p50", "ms"),
    ("core.engine.finish_ms_p50", "ms"),
    ("dse.eval.score_us", "us"),
    ("dse.delta.rescore_us", "us"),
    ("dse.alloc.solve_us", "us"),
    ("sim.analytic.eval_us", "us"),
    ("sim.pipeline.solve_us", "us"),
    ("dse.sa.energy_us", "us"),
    ("ir.compile_us", "us"),
    ("sim.cycle.simulate_ms", "ms"),
    ("gateway.payload.parse_us", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("sim.design_tops_per_w_geomean", "TOPS/W"),
    ("sim.evaluations", "count"),
    ("dse.budget.distinct_results", "count"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process paper-effort jobs, one client, no cache file.
    PaperCold,
    /// Paper-effort jobs behind the gateway, two closed-loop clients.
    GatewayPaper,
    /// Open-loop fast-effort jobs behind a two-tenant fair gateway. Not
    /// listed in `BENCHMARK.json`: too sensitive to host load to gate on.
    GatewayFast,
    /// A fast-effort pool repeated against a gateway with a cache file.
    WarmRepeat,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCold,
        Workload::GatewayPaper,
        Workload::GatewayFast,
        Workload::WarmRepeat,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper-cold",
            Workload::GatewayPaper => "gateway-paper",
            Workload::GatewayFast => "gateway-fast",
            Workload::WarmRepeat => "warm-repeat",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seeds every generated input; equal seeds give equal inputs.
    pub seed: u64,
    /// Minimum timed seconds (workloads finish their current cycle).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Minimum-size run for tests: fast effort, one setup, tiny pools.
    pub smoke: bool,
    /// Directory for result files, trace files and scratch state.
    pub out_dir: PathBuf,
}
