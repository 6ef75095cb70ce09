//! Metrics, the host fingerprint, and the three renderings of a run: the
//! human-readable lines, the result file, and the final JSON line.

use std::fmt::Write as _;

use crate::stats::Ratio;

/// A metric value; ratios keep their base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A plain measured number.
    Plain(f64),
    /// A share, with what it is a share of.
    Ratio(Ratio),
}

impl Value {
    /// The number reported.
    pub fn number(&self) -> f64 {
        match self {
            Value::Plain(v) => *v,
            Value::Ratio(r) => r.value(),
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// The value.
    pub value: Value,
    /// What the base of a ratio counts, or any other qualifier.
    pub note: String,
}

impl Metric {
    /// A plain metric.
    pub fn plain(name: &str, unit: &str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit: unit.into(),
            value: Value::Plain(value),
            note: String::new(),
        }
    }

    /// A ratio `part / base`; `base_is` says what the base counts.
    pub fn ratio(name: &str, unit: &str, part: f64, base: f64, base_is: &str) -> Self {
        Self {
            name: name.into(),
            unit: unit.into(),
            value: Value::Ratio(Ratio { part, base }),
            note: base_is.into(),
        }
    }

    /// Adds a qualifier shown next to the value.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    fn line(&self) -> String {
        let mut line = format!(
            "{:<34} {:>16} {}",
            self.name,
            fmt_num(self.value.number()),
            self.unit
        );
        if let Value::Ratio(r) = self.value {
            let _ = write!(
                line,
                "  ({} of {} {})",
                fmt_num(r.part),
                fmt_num(r.base),
                self.note
            );
        } else if !self.note.is_empty() {
            let _ = write!(line, "  ({})", self.note);
        }
        line
    }

    fn json(&self) -> String {
        let mut out = format!(
            r#"{{"value": {}, "unit": "{}""#,
            fmt_num(self.value.number()),
            self.unit
        );
        if let Value::Ratio(r) = self.value {
            let _ = write!(
                out,
                r#", "part": {}, "base": {}, "base_is": "{}""#,
                fmt_num(r.part),
                fmt_num(r.base),
                escape(&self.note)
            );
        } else if !self.note.is_empty() {
            let _ = write!(out, r#", "note": "{}""#, escape(&self.note));
        }
        out.push('}');
        out
    }
}

/// A JSON-safe number with all its digits (non-finite values become 0).
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The machine and build a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Cores available to the process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, when it is a git repository.
    pub git_rev: String,
    /// Cargo build profile.
    pub profile: &'static str,
}

impl Fingerprint {
    /// Reads the fingerprint of this process's host and build.
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_rev: git_rev().unwrap_or_else(|| "unknown (not a git checkout)".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    fn json(&self) -> String {
        format!(
            r#"{{"nproc": {}, "cpu": "{}", "rustc": "{}", "git_rev": "{}", "profile": "{}"}}"#,
            self.nproc,
            escape(&self.cpu),
            escape(&self.rustc),
            escape(&self.git_rev),
            self.profile
        )
    }
}

/// The commit `.git/HEAD` points at, read without running git.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// The gated metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Workload-specific and simulated metrics: printed and saved, not gated.
    pub extra: Vec<Metric>,
    /// Jobs checked.
    pub attempted: usize,
    /// Jobs that failed a check.
    pub failed: usize,
    /// What failed.
    pub failures: Vec<String>,
    /// Host and build.
    pub fingerprint: Fingerprint,
    /// Per-job detail for the result file, as one JSON member: job times
    /// (untraced) or span trees (traced).
    pub details: String,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable lines.
    pub fn text(&self) -> String {
        let f = &self.fingerprint;
        let mut out = format!(
            "== perfbench {} (seed {}, {}) on {} cores, {}, {}, rev {}, {} build\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            f.nproc,
            f.cpu,
            f.rustc,
            f.git_rev,
            f.profile
        );
        for m in &self.metrics {
            let _ = writeln!(out, "  {}", m.line());
        }
        for m in &self.extra {
            let _ = writeln!(out, "  [not gated] {}", m.line());
        }
        let _ = writeln!(
            out,
            "  fail_rate {} ({} of {} jobs failed a check)",
            if self.attempted > 0 {
                self.failed as f64 / self.attempted as f64
            } else {
                1.0
            },
            self.failed,
            self.attempted
        );
        for failure in self.failures.iter().take(5) {
            let _ = writeln!(out, "  FAILED {failure}");
        }
        out
    }

    /// The result file: every metric with its base, the fingerprint, the
    /// failures and the per-job detail.
    pub fn file_json(&self) -> String {
        let all: Vec<String> = self
            .metrics
            .iter()
            .chain(&self.extra)
            .map(|m| format!(r#""{}": {}"#, m.name, m.json()))
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!(r#""{}""#, escape(f)))
            .collect();
        format!(
            r#"{{"workload": "{}", "seed": {}, "trace": {}, "fingerprint": {}, "correct": {}, "attempted": {}, "failed": {}, "failures": [{}], "metrics": {{{}}}, {}}}"#,
            self.workload,
            self.seed,
            self.trace,
            self.fingerprint.json(),
            self.correct(),
            self.attempted,
            self.failed,
            failures.join(", "),
            all.join(", "),
            self.details
        )
    }

    /// The final stdout line: exactly the gated metrics.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name,
                    fmt_num(m.value.number()),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
