//! Job descriptions: what each workload submits, generated from the seed.
//!
//! Every job is written once as a `POST /v1/jobs` body and turned into a
//! [`SynthesisRequest`] by the gateway's own parser, so in-process and
//! HTTP submissions of one job are the same request by construction.

use pimsyn::SynthesisRequest;
use pimsyn_gateway::parse_http_job;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper-effort mix: conv-heavy, deep-residual, matmul/softmax.
pub const PAPER_MIX: [(&str, f64); 3] = [
    ("alexnet-cifar", 60.0),
    ("resnet18", 60.0),
    ("transformer-tiny", 6.0),
];

/// Fast-effort pool models, each with two feasible power budgets (W).
pub const FAST_MODELS: [(&str, [f64; 2]); 4] = [
    ("alexnet-cifar", [9.0, 60.0]),
    ("resnet18", [60.0, 90.0]),
    ("transformer-tiny", [6.0, 12.0]),
    ("mobilenet", [120.0, 180.0]),
];

/// The evaluation budget of the pool's budgeted jobs (a third of what an
/// unbudgeted fast job scores).
pub const FAST_MAX_EVALS: usize = 700;

/// One synthesis job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Zoo model name.
    pub model: &'static str,
    /// Power budget in watts.
    pub power: f64,
    /// `"fast"` or `"paper"`.
    pub effort: &'static str,
    /// Synthesis seed.
    pub seed: u64,
    /// Evaluation budget, when the job carries one.
    pub max_evals: Option<usize>,
    /// Cycle-accurate validation images, when requested.
    pub cycle: Option<usize>,
}

impl JobSpec {
    /// The `POST /v1/jobs` body.
    pub fn body(&self) -> String {
        let mut body = format!(
            r#"{{"model": "{}", "power": {}, "effort": "{}", "seed": {}"#,
            self.model, self.power, self.effort, self.seed
        );
        if let Some(n) = self.max_evals {
            body.push_str(&format!(r#", "max_evals": {n}"#));
        }
        if let Some(n) = self.cycle {
            body.push_str(&format!(r#", "cycle": {n}"#));
        }
        body.push('}');
        body
    }

    /// The request the gateway would build from [`body`](Self::body).
    pub fn request(&self) -> SynthesisRequest {
        parse_http_job(self.body().as_bytes()).expect("benchmark job bodies are valid")
    }

    /// Short label for logs.
    pub fn label(&self) -> String {
        let mut label = format!("{}@{}W/{}", self.model, self.power, self.effort);
        if let Some(n) = self.max_evals {
            label.push_str(&format!("/max{n}"));
        }
        if let Some(n) = self.cycle {
            label.push_str(&format!("/cycle{n}"));
        }
        label
    }
}

/// A generator of job seeds and orders, one stream per purpose so adding
/// a draw in one place does not shift the others.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// The paper mix in the given model order, with seeded synthesis seeds.
/// `effort` is `"paper"` except in smoke runs.
pub fn paper_mix(seed: u64, order: [usize; 3], effort: &'static str) -> Vec<JobSpec> {
    let mut rng = rng(seed, 1);
    let seeds: Vec<u64> = (0..3).map(|_| rng.gen_range(0..1_000_000u64)).collect();
    order
        .iter()
        .map(|&i| JobSpec {
            model: PAPER_MIX[i].0,
            power: PAPER_MIX[i].1,
            effort,
            seed: seeds[i],
            max_evals: None,
            cycle: None,
        })
        .collect()
}

/// The fast-effort pool: every model at both powers, `per_config` seeds
/// each. The shape is fixed — every fourth job carries `max_evals`, every
/// fourth asks for a 2-image cycle-accurate check — and the seed only
/// picks synthesis seeds, so the mix of work is the same for every seed.
pub fn fast_pool(seed: u64, per_config: usize) -> Vec<JobSpec> {
    let mut rng = rng(seed, 2);
    let mut pool = Vec::new();
    for k in 0..per_config {
        for (model, powers) in FAST_MODELS {
            for power in powers {
                let j = pool.len();
                pool.push(JobSpec {
                    model,
                    power,
                    effort: "fast",
                    seed: rng.gen_range(0..1_000_000u64),
                    max_evals: (j % 4 == 1).then_some(FAST_MAX_EVALS),
                    cycle: (j % 4 == 3 && k % 2 == 0 || j % 4 == 2 && k % 2 == 1).then_some(2),
                });
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_parse_into_the_described_request() {
        for spec in fast_pool(7, 2) {
            let request = spec.request();
            assert_eq!(request.model.name(), spec.model);
            assert_eq!(request.options.power_budget.value(), spec.power);
            assert_eq!(request.options.seed, spec.seed);
            assert_eq!(request.options.max_evaluations, spec.max_evals);
            assert_eq!(request.options.cycle_validation, spec.cycle.is_some());
        }
    }

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(fast_pool(3, 2), fast_pool(3, 2));
        assert_ne!(fast_pool(3, 2), fast_pool(4, 2));
        assert_eq!(
            paper_mix(3, [0, 1, 2], "paper"),
            paper_mix(3, [0, 1, 2], "paper")
        );
        let pool = fast_pool(9, 2);
        assert_eq!(pool.len(), 16);
        assert_eq!(pool.iter().filter(|s| s.max_evals.is_some()).count(), 4);
        assert_eq!(pool.iter().filter(|s| s.cycle.is_some()).count(), 4);
    }
}
