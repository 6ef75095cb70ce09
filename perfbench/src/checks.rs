//! Correctness checks on every job a workload runs.
//!
//! A job fails when it errors or is refused, when its winner does not
//! validate for its model or draws more than the power budget, when a
//! budgeted job scored more candidates than its budget, or when an
//! unbudgeted job's summary differs from the first one checked for the
//! same job — its in-process cold reference where the workload has one,
//! else its first run. Budgeted jobs are known to vary between runs; their
//! disagreement is counted in [`Checker::distinct_budgeted`], not as a
//! failure.

use std::collections::{BTreeMap, BTreeSet};

use pimsyn::{SynthesisResult, SynthesisSummary};
use pimsyn_model::json::JsonValue;

use crate::jobs::JobSpec;

/// What the checks need from one finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct Finished {
    /// The summary JSON with its timing field removed.
    pub summary: String,
    /// Candidate evaluations the job reports.
    pub evaluations: usize,
    /// Winner efficiency (TOPS/W), a simulated outcome.
    pub tops_per_w: f64,
    /// Winner power draw (W).
    pub power_w: f64,
    /// Why the winner failed `Architecture::validate`, when it did (only
    /// known for in-process results).
    pub invalid: Option<String>,
}

/// Removes the one timing field so summaries of equal runs compare equal.
fn normalize(summary: &JsonValue) -> String {
    match summary {
        JsonValue::Object(fields) => JsonValue::Object(
            fields
                .iter()
                .filter(|(k, _)| k != "elapsed_s")
                .cloned()
                .collect(),
        )
        .to_string(),
        other => other.to_string(),
    }
}

impl Finished {
    /// From an in-process result: the winner is validated here.
    pub fn from_result(result: &SynthesisResult) -> Self {
        let summary = SynthesisSummary::from_result(result);
        Self {
            summary: normalize(&summary.to_json()),
            evaluations: result.evaluations,
            tops_per_w: result.analytic.efficiency_tops_per_watt(),
            power_w: result.analytic.power.value(),
            invalid: result
                .architecture
                .validate(&result.model)
                .err()
                .map(|e| e.to_string()),
        }
    }

    /// From a gateway result body. The power draw is recovered from the
    /// reported throughput and efficiency.
    pub fn from_body(body: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(body).map_err(|_| "result is not UTF-8".to_string())?;
        let doc = JsonValue::parse(text).map_err(|e| format!("result is not JSON: {e}"))?;
        let number = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("result has no `{key}`: {text}"))
        };
        let tops_per_w = number("efficiency_tops_per_watt")?;
        let throughput = number("throughput_ops")?;
        Ok(Self {
            summary: normalize(&doc),
            evaluations: number("evaluations")? as usize,
            tops_per_w,
            power_w: throughput / (tops_per_w * 1e12),
            invalid: None,
        })
    }
}

/// Tallies checks over a run: `failed` of `attempted` jobs.
#[derive(Debug, Default)]
pub struct Checker {
    /// Jobs checked.
    pub attempted: usize,
    /// Jobs that failed a check (errored, refused, or wrong).
    pub failed: usize,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
    /// Expected summary per unbudgeted job index.
    expected: BTreeMap<usize, String>,
    /// Distinct summaries seen per budgeted job index.
    budgeted: BTreeMap<usize, BTreeSet<String>>,
}

impl Checker {
    /// A checker with nothing checked yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks one finished (or failed) job; the first result of an
    /// unbudgeted job becomes what its later runs must match.
    pub fn record(&mut self, idx: usize, spec: &JobSpec, outcome: &Result<Finished, String>) {
        self.attempted += 1;
        if let Some(problem) = self.problem(idx, spec, outcome) {
            self.failed += 1;
            self.failures.push(format!("{}: {problem}", spec.label()));
        }
    }

    fn problem(
        &mut self,
        idx: usize,
        spec: &JobSpec,
        outcome: &Result<Finished, String>,
    ) -> Option<String> {
        let done = match outcome {
            Ok(done) => done,
            Err(e) => return Some(e.clone()),
        };
        if let Some(why) = &done.invalid {
            return Some(format!("winner fails validation: {why}"));
        }
        // NaN power counts as over budget.
        if done.power_w.is_nan() || done.power_w > spec.power * (1.0 + 1e-9) {
            return Some(format!(
                "winner draws {} W over a {} W budget",
                done.power_w, spec.power
            ));
        }
        if let Some(limit) = spec.max_evals {
            self.budgeted
                .entry(idx)
                .or_default()
                .insert(done.summary.clone());
            return (done.evaluations > limit)
                .then(|| format!("{} evaluations over a budget of {limit}", done.evaluations));
        }
        let expected = self
            .expected
            .entry(idx)
            .or_insert_with(|| done.summary.clone());
        (*expected != done.summary).then(|| {
            format!(
                "summary differs from the reference:\n  want {expected}\n  got  {}",
                done.summary
            )
        })
    }

    /// Budgeted jobs whose runs returned more than one distinct summary.
    pub fn distinct_budgeted(&self) -> usize {
        self.budgeted.values().filter(|s| s.len() > 1).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(max_evals: Option<usize>) -> JobSpec {
        JobSpec {
            model: "alexnet-cifar",
            power: 9.0,
            effort: "fast",
            seed: 1,
            max_evals,
            cycle: None,
        }
    }

    fn done(summary: &str, evaluations: usize, power_w: f64) -> Result<Finished, String> {
        Ok(Finished {
            summary: summary.into(),
            evaluations,
            tops_per_w: 1.0,
            power_w,
            invalid: None,
        })
    }

    #[test]
    fn repeats_must_match_the_first_result() {
        let mut c = Checker::new();
        c.record(0, &spec(None), &done("a", 10, 8.0));
        c.record(0, &spec(None), &done("a", 10, 8.0));
        assert_eq!(c.failed, 0);
        c.record(0, &spec(None), &done("b", 10, 8.0));
        assert_eq!((c.attempted, c.failed), (3, 1));
    }

    #[test]
    fn budgets_and_power_are_enforced() {
        let mut c = Checker::new();
        c.record(0, &spec(Some(100)), &done("a", 101, 8.0));
        c.record(1, &spec(None), &done("a", 10, 9.5));
        c.record(2, &spec(None), &Err("refused: 429".into()));
        assert_eq!((c.attempted, c.failed), (3, 3));
    }

    #[test]
    fn budgeted_disagreement_is_counted_not_failed() {
        let mut c = Checker::new();
        c.record(3, &spec(Some(100)), &done("a", 100, 8.0));
        c.record(3, &spec(Some(100)), &done("b", 100, 8.0));
        c.record(3, &spec(Some(100)), &done("a", 100, 8.0));
        assert_eq!(c.failed, 0);
        assert_eq!(c.distinct_budgeted(), 1);
    }

    #[test]
    fn gateway_bodies_drop_timing_and_recover_power() {
        let body = br#"{"model":"m","efficiency_tops_per_watt":0.5,"throughput_ops":2e12,"evaluations":7,"elapsed_s":1.25}"#;
        let f = Finished::from_body(body).unwrap();
        assert!(!f.summary.contains("elapsed_s"));
        assert_eq!(f.evaluations, 7);
        assert!((f.power_w - 4.0).abs() < 1e-12);
    }
}
