//! Layer probes: per-call medians of the functions the scoring path is
//! made of, over a fixed candidate set drawn from the seed at setup.
//!
//! The set is alexnet-cifar at 60 W on one design point (128×128 2-bit
//! crossbars, 1-bit DACs, 30% of power to the arrays): a few
//! weight-duplication vectors around the no-duplication baseline and a few
//! dozen macro-allocation genes, plus a single-mutation gene chain for
//! delta rescoring.

use std::hint::black_box;
use std::time::Instant;

use pimsyn_arch::{Architecture, CrossbarConfig, DacConfig, HardwareParams, MacroMode, Watts};
use pimsyn_dse::{
    allocate_components, no_duplication, physical_macros, sa_energy, AllocPlan, AllocRequest,
    CandidateEvaluator, DesignPoint, EvalCacheConfig, EvalCore, ExploreContext, MacAllocGene,
    Objective,
};
use pimsyn_gateway::parse_http_job;
use pimsyn_ir::Dataflow;
use pimsyn_model::{zoo, Model};
use pimsyn_sim::{compute_stages, evaluate_analytic, simulate, solve_pipeline};
use rand::Rng;

use crate::jobs::{fast_pool, rng};
use crate::report::Metric;

const GENES: usize = 48;
const DUPS: usize = 8;

/// Runs `f` on call indices until both `min_calls` calls and `min_s`
/// seconds are done; the median single-call time in seconds.
fn per_call<T>(min_calls: usize, min_s: f64, mut f: impl FnMut(usize) -> T) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::with_capacity(min_calls);
    while samples.len() < min_calls || start.elapsed().as_secs_f64() < min_s {
        let t = Instant::now();
        black_box(f(samples.len()));
        samples.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&samples).expect("at least one call")
}

/// One metric per probe.
pub fn run(seed: u64, smoke: bool) -> Vec<Metric> {
    let min_s = if smoke { 0.002 } else { 0.15 };
    let mut rng = rng(seed, 3);
    let model: Model = zoo::alexnet_cifar(10);
    let hw = HardwareParams::date24();
    let power = Watts(60.0);
    let crossbar = CrossbarConfig::new(128, 2).expect("legal crossbar");
    let dac = DacConfig::new(1).expect("legal DAC");
    let point = DesignPoint {
        ratio_rram: 0.3,
        crossbar,
    };
    let layers = model.weight_layer_count();
    let base = no_duplication(
        &model,
        crossbar,
        crossbar.budget(power, point.ratio_rram, &hw),
    )
    .expect("alexnet-cifar fits at 60 W");
    let dups: Vec<Vec<usize>> = (0..DUPS)
        .map(|_| {
            base.iter()
                .map(|&d| d * rng.gen_range(1..=3usize))
                .collect()
        })
        .collect();
    let df = Dataflow::compile(&model, crossbar, dac, &base).expect("baseline compiles");
    let caps: Vec<usize> = df
        .programs()
        .iter()
        .map(|p| (p.wt_dup * p.row_groups).clamp(1, 4))
        .collect();
    let no_share = vec![None; layers];
    let macro_sets: Vec<Vec<usize>> = (0..GENES)
        .map(|_| caps.iter().map(|&c| rng.gen_range(1..=c)).collect())
        .collect();
    let genes: Vec<MacAllocGene> = macro_sets
        .iter()
        .map(|m| MacAllocGene::encode(m, &no_share))
        .collect();
    // Each link differs from its parent in one layer's macro count.
    let mut chain = vec![genes[0].clone()];
    let mut macros = macro_sets[0].clone();
    for _ in 0..GENES {
        let i = rng.gen_range(0..layers);
        macros[i] = macros[i] % caps[i] + 1;
        chain.push(MacAllocGene::encode(&macros, &no_share));
    }
    let archs: Vec<Architecture> = macro_sets
        .iter()
        .filter_map(|m| {
            allocate_components(&AllocRequest {
                model: &model,
                dataflow: &df,
                point,
                total_power: power,
                hw: &hw,
                macros: m,
                shares: &no_share,
                macro_mode: MacroMode::Specialized,
            })
            .ok()
        })
        .take(DUPS)
        .collect();
    assert!(!archs.is_empty(), "probe genes allocate");
    let stages: Vec<_> = archs
        .iter()
        .map(|a| compute_stages(&df, a).expect("stages"))
        .collect();
    let groups: Vec<_> = archs.iter().map(Architecture::macro_groups).collect();
    let bodies: Vec<String> = fast_pool(seed, 1).iter().map(|s| s.body()).collect();

    let core = EvalCore::new(
        &model,
        power,
        &hw,
        MacroMode::Specialized,
        Objective::PowerEfficiency,
        EvalCacheConfig::disabled(),
    );
    let ctx = ExploreContext::unobserved();
    let delta = CandidateEvaluator::new(
        &model,
        power,
        &hw,
        MacroMode::Specialized,
        Objective::PowerEfficiency,
        EvalCacheConfig::disabled().with_delta(true),
    );
    // Seed the delta engine's retained breakdown with the chain's root.
    delta.score_with_parent(&df, point, &chain[0], Some(&chain[0]), &ctx);
    let plan = AllocPlan::prepare(&model, &df, point, power, &hw, MacroMode::Specialized);
    let n_macros: Vec<usize> = macro_sets
        .iter()
        .map(|m| physical_macros(m, &no_share))
        .collect();

    let us = 1e6;
    vec![
        Metric::plain(
            "dse.eval.score_us",
            "us",
            us * per_call(GENES, min_s, |i| core.score(&df, point, &genes[i % GENES])),
        ),
        Metric::plain(
            "dse.delta.rescore_us",
            "us",
            us * per_call(GENES, min_s, |i| {
                let k = 1 + i % GENES;
                delta.score_with_parent(&df, point, &chain[k], Some(&chain[k - 1]), &ctx)
            }),
        ),
        Metric::plain(
            "dse.alloc.solve_us",
            "us",
            us * per_call(GENES, min_s, |i| plan.solve(n_macros[i % GENES])),
        ),
        Metric::plain(
            "sim.analytic.eval_us",
            "us",
            us * per_call(archs.len(), min_s, |i| {
                evaluate_analytic(&model, &df, &archs[i % archs.len()])
            }),
        ),
        Metric::plain(
            "sim.pipeline.solve_us",
            "us",
            us * per_call(archs.len(), min_s, |i| {
                let k = i % archs.len();
                solve_pipeline(&df, &stages[k], &groups[k])
            }),
        ),
        Metric::plain(
            "dse.sa.energy_us",
            "us",
            us * per_call(DUPS, min_s, |i| sa_energy(&model, &dups[i % DUPS], 0.5)),
        ),
        Metric::plain(
            "ir.compile_us",
            "us",
            us * per_call(DUPS, min_s, |i| {
                Dataflow::compile(&model, crossbar, dac, &dups[i % DUPS])
            }),
        ),
        Metric::plain(
            "sim.cycle.simulate_ms",
            "ms",
            1e3 * per_call(archs.len().min(4), min_s, |i| {
                simulate(&model, &df, &archs[i % archs.len()], 2)
            }),
        ),
        Metric::plain(
            "gateway.payload.parse_us",
            "us",
            us * per_call(bodies.len(), min_s, |i| {
                parse_http_job(bodies[i % bodies.len()].as_bytes())
            }),
        ),
    ]
}
