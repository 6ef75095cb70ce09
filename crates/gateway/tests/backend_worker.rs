//! End-to-end exercise of the CLI surface around the evaluation backend:
//! the persistent cache must warm-start a second CLI invocation with an
//! identical summary, cache options must be validated, and `--quiet` must
//! silence every progress line on stderr. (Remote-backend bit-identity
//! lives in `remote_backend.rs`.)
//!
//! These tests live in the `pimsyn-gateway` crate — the workspace's binary
//! crate — so `CARGO_BIN_EXE_pimsyn` points at the real CLI binary.

use std::path::Path;
use std::process::Command;

use pimsyn::{SynthesisOptions, Synthesizer, Watts};
use pimsyn_model::json::JsonValue;
use pimsyn_model::zoo;

const PIMSYN_BIN: &str = env!("CARGO_BIN_EXE_pimsyn");

fn base_options() -> SynthesisOptions {
    SynthesisOptions::fast(Watts(9.0)).with_seed(7)
}

#[test]
fn cache_file_without_cache_is_rejected_as_invalid_options() {
    let model = zoo::alexnet_cifar(10);
    let result = Synthesizer::new(
        base_options()
            .with_eval_cache(pimsyn::EvalCacheConfig::disabled())
            .with_eval_cache_file("/tmp/pimsyn-never-written.json"),
    )
    .synthesize(&model);
    assert!(
        matches!(result, Err(pimsyn::SynthesisError::InvalidOptions { .. })),
        "library must surface the same contract the CLI enforces"
    );
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
fn cli_warm_start_reports_cache_hits_and_identical_summary() {
    let cache = std::env::temp_dir().join(format!("pimsyn-cli-warm-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let cache_str = cache.to_str().unwrap();
    let args = [
        "--model",
        "alexnet-cifar",
        "--power",
        "9",
        "--seed",
        "7",
        "--output",
        "json",
        "--eval-cache-file",
        cache_str,
    ];
    let (cold_out, cold_err, ok) = run_cli(&args);
    assert!(ok, "cold run failed: {cold_err}");
    assert!(
        Path::new(cache_str).exists(),
        "cache file must be written on flush"
    );
    assert!(
        !cold_err.contains("warm-started"),
        "cold run must not claim a warm start: {cold_err}"
    );
    let (warm_out, warm_err, ok) = run_cli(&args);
    assert!(ok, "warm run failed: {warm_err}");
    assert_eq!(
        summary_without_elapsed(&cold_out),
        summary_without_elapsed(&warm_out),
        "warm-started run must produce an identical summary"
    );
    assert!(
        warm_err.contains("warm-started from the cache file"),
        "warm run must report the preload: {warm_err}"
    );
    // The evaluator line reports the hit rate; a warm start on the same
    // request must serve at least half of all scoring requests from cache.
    let hit_rate: f64 = warm_err
        .lines()
        .find(|l| l.contains("% hit rate"))
        .and_then(|l| {
            let end = l.find("% hit rate")?;
            let start = l[..end].rfind('(')? + 1;
            l[start..end].trim().parse().ok()
        })
        .expect("stats line with hit rate");
    assert!(
        hit_rate >= 50.0,
        "warm start must report >=50% cache hits, got {hit_rate}% in: {warm_err}"
    );
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn quiet_flag_silences_stderr_completely() {
    // The full progress surface: live lines, the evaluator stats summary,
    // and the cache warm-start note must all respect --quiet.
    let cache = std::env::temp_dir().join(format!("pimsyn-cli-quiet-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let args = [
        "--model",
        "alexnet-cifar",
        "--power",
        "9",
        "--seed",
        "7",
        "--output",
        "json",
        "--quiet",
        "--eval-cache-file",
        cache.to_str().unwrap(),
    ];
    let (_, cold_err, ok) = run_cli(&args);
    assert!(ok);
    assert!(
        cold_err.is_empty(),
        "--quiet must silence stderr, got: {cold_err}"
    );
    // Warm-start run: the preload note must stay silent too.
    let (_, warm_err, ok) = run_cli(&args);
    assert!(ok);
    assert!(
        warm_err.is_empty(),
        "--quiet must silence the warm-start note, got: {warm_err}"
    );
    let _ = std::fs::remove_file(&cache);
}
