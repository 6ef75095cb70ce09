//! The traced run's recorder: an event sink that timestamps a job's
//! `SynthesisEvent` stream in memory, and the span tree derived from it.
//!
//! One job gives one tree: `job` (submit → `Finished`) holds
//! `core.service.queue_wait` (submit → `JobStarted`) and `core.engine.run`
//! (`JobStarted` → `Finished`); the run holds `core.engine.setup` (up to the
//! first stage), one `dse.explore.point` per design point (its first stage
//! → `DesignPointEvaluated`) and `core.engine.finish` (last point →
//! `Finished`, the cache flush included); each point holds its stage spans.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use pimsyn::{EvaluatorStats, EventSink, SynthesisEvent, SynthesisStage};

/// Span names of the four stages, in Fig. 3 order.
pub const STAGE_SPANS: [&str; 4] = ["dse.sa", "ir.compile", "dse.ea", "dse.alloc"];

fn stage_span(stage: SynthesisStage) -> &'static str {
    match stage {
        SynthesisStage::WeightDuplication => STAGE_SPANS[0],
        SynthesisStage::DataflowCompilation => STAGE_SPANS[1],
        SynthesisStage::MacroPartitioning => STAGE_SPANS[2],
        SynthesisStage::ComponentAllocation => STAGE_SPANS[3],
    }
}

/// Seconds since the first traced job of this process: one time base for
/// every span, so concurrent jobs line up in the trace file.
fn since_epoch(t: Instant) -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_secs_f64()
}

/// Records `(arrival, event)` pairs for one job.
#[derive(Debug)]
pub struct JobTracer {
    submitted: Instant,
    events: Mutex<Vec<(Instant, SynthesisEvent)>>,
}

impl JobTracer {
    /// A recorder for a job submitted now.
    pub fn new() -> Self {
        let submitted = Instant::now();
        since_epoch(submitted);
        Self {
            submitted,
            events: Mutex::new(Vec::with_capacity(512)),
        }
    }

    /// Derives the job's span tree from what was recorded.
    pub fn spans(&self) -> JobSpans {
        JobSpans::derive(self.submitted, &self.events.lock().expect("tracer"))
    }
}

impl Default for JobTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for JobTracer {
    fn emit(&self, event: SynthesisEvent) {
        let now = Instant::now();
        self.events.lock().expect("tracer").push((now, event));
    }
}

/// One timed interval; `parent` indexes the enclosing span of the job.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name.
    pub name: &'static str,
    /// Seconds since the trace epoch.
    pub start_s: f64,
    /// Seconds since the trace epoch.
    pub end_s: f64,
    /// Index of the enclosing span, `None` for the job itself.
    pub parent: Option<usize>,
    /// Design point, for point and stage spans.
    pub point: Option<usize>,
}

impl Span {
    /// Its length in seconds (0 if it never closed).
    pub fn seconds(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }
}

/// Where one job's time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobSpans {
    /// The span tree; index 0 is the job.
    pub spans: Vec<Span>,
    /// The last evaluator counters of the job.
    pub stats: Option<EvaluatorStats>,
}

impl JobSpans {
    fn derive(submitted: Instant, events: &[(Instant, SynthesisEvent)]) -> Self {
        let t0 = since_epoch(submitted);
        let mut out = JobSpans::default();
        let open = |spans: &mut Vec<Span>, name, start_s, parent, point| {
            spans.push(Span {
                name,
                start_s,
                end_s: f64::NAN,
                parent,
                point,
            });
            spans.len() - 1
        };
        let spans = &mut out.spans;
        let job = open(spans, "job", t0, None, None);
        let queue = open(spans, "core.service.queue_wait", t0, Some(job), None);
        let mut run = None;
        let mut setup = None;
        let mut last_point_end = None;
        let mut points: HashMap<usize, usize> = HashMap::new();
        let mut stages: HashMap<(usize, &str), usize> = HashMap::new();
        for (at, event) in events {
            let t = since_epoch(*at);
            match event {
                SynthesisEvent::JobStarted { .. } => {
                    spans[queue].end_s = t;
                    let r = open(spans, "core.engine.run", t, Some(job), None);
                    setup = Some(open(spans, "core.engine.setup", t, Some(r), None));
                    run = Some(r);
                }
                SynthesisEvent::StageStarted {
                    point_index, stage, ..
                } => {
                    if let Some(s) = setup.take() {
                        spans[s].end_s = t;
                    }
                    let p = *points.entry(*point_index).or_insert_with(|| {
                        open(spans, "dse.explore.point", t, run, Some(*point_index))
                    });
                    let s = open(spans, stage_span(*stage), t, Some(p), Some(*point_index));
                    stages.insert((*point_index, stage_span(*stage)), s);
                }
                SynthesisEvent::StageFinished {
                    point_index, stage, ..
                } => {
                    if let Some(s) = stages.remove(&(*point_index, stage_span(*stage))) {
                        spans[s].end_s = t;
                    }
                }
                SynthesisEvent::DesignPointEvaluated { point_index, .. } => {
                    if let Some(&p) = points.get(point_index) {
                        spans[p].end_s = t;
                    }
                    last_point_end = Some(t);
                }
                SynthesisEvent::EvaluatorStats { stats, .. } => out.stats = Some(*stats),
                SynthesisEvent::Finished { .. } => {
                    spans[job].end_s = t;
                    if let Some(r) = run {
                        spans[r].end_s = t;
                        if let Some(p) = last_point_end {
                            let f = open(spans, "core.engine.finish", p, Some(r), None);
                            spans[f].end_s = t;
                        }
                    }
                }
                SynthesisEvent::ImprovedBest { .. } => {}
            }
        }
        out
    }

    /// Summed seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).sum()
    }

    /// The seconds of every span called `name`.
    pub fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::seconds)
    }

    /// The job as one JSON object for the trace file.
    pub fn to_json(&self, label: &str) -> String {
        let stats = self.stats.map_or("null".to_string(), |s| {
            format!(
                r#"{{"scored":{},"unique":{},"hits":{},"sa_probes":{},"sa_hits":{},"layer_hits":{},"layer_misses":{},"preloaded":{},"delta_hits":{},"delta_fallbacks":{},"layers_recomputed":{}}}"#,
                s.scored,
                s.unique_evaluations,
                s.cache_hits,
                s.sa_probes,
                s.sa_cache_hits,
                s.layer_hits,
                s.layer_misses,
                s.preloaded,
                s.delta_hits,
                s.delta_fallbacks,
                s.layers_recomputed
            )
        });
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let finite = |v: f64| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            }
        };
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    r#"{{"name":"{}","start_s":{},"end_s":{},"parent":{},"point":{}}}"#,
                    s.name,
                    finite(s.start_s),
                    finite(s.end_s),
                    opt(s.parent),
                    opt(s.point)
                )
            })
            .collect();
        format!(
            r#"{{"job":"{label}","stats":{stats},"spans":[{}]}}"#,
            spans.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_follow_the_event_timestamps() {
        JobTracer::new(); // starts the trace epoch before any event
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let stage = SynthesisStage::MacroPartitioning;
        let point = |point_index| SynthesisEvent::DesignPointEvaluated {
            job: 0,
            point: pimsyn::DesignPoint {
                ratio_rram: 0.3,
                crossbar: pimsyn_arch::CrossbarConfig::new(128, 2).unwrap(),
            },
            point_index,
            best_efficiency: 1.0,
            evaluations: 9,
        };
        #[rustfmt::skip]
        let events = vec![
            (at(2), SynthesisEvent::JobStarted { job: 0, label: "x".into() }),
            (at(5), SynthesisEvent::StageStarted { job: 0, point_index: 0, stage }),
            (at(15), SynthesisEvent::StageFinished { job: 0, point_index: 0, stage }),
            (at(16), point(0)),
            (at(16), SynthesisEvent::StageStarted { job: 0, point_index: 1, stage }),
            (at(20), SynthesisEvent::StageFinished { job: 0, point_index: 1, stage }),
            (at(20), point(1)),
            (at(21), SynthesisEvent::EvaluatorStats {
                job: 0, point_index: 1, stats: EvaluatorStats { scored: 9, ..Default::default() },
            }),
            (at(22), SynthesisEvent::Finished {
                job: 0, efficiency: Some(1.0), evaluations: 9, stop_reason: None,
                elapsed: Duration::from_millis(20), error: None,
            }),
        ];
        let s = JobSpans::derive(t0, &events);
        let close = |a: f64, ms: f64| (a - ms / 1e3).abs() < 1e-9;
        assert!(close(s.total("job"), 22.0));
        assert!(close(s.total("core.service.queue_wait"), 2.0));
        assert!(close(s.total("core.engine.setup"), 3.0));
        assert!(close(s.total("core.engine.run"), 20.0));
        assert!(close(s.total("dse.ea"), 14.0));
        assert!(close(s.total("core.engine.finish"), 2.0));
        let points: Vec<f64> = s.durations("dse.explore.point").collect();
        assert_eq!(points.len(), 2);
        assert!(close(points[0], 11.0) && close(points[1], 4.0));
        assert_eq!(s.stats.unwrap().scored, 9);
        // Every span but the job has a parent that encloses it.
        for span in &s.spans[1..] {
            let parent = &s.spans[span.parent.unwrap()];
            assert!(
                parent.start_s <= span.start_s && span.end_s <= parent.end_s,
                "{span:?}"
            );
        }
    }
}
