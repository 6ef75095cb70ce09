//! Minimum-size runs of every workload, untraced and traced: each must
//! pass its correctness checks and report every listed metric, and every
//! ratio must carry its base.

use pimsyn_model::json::JsonValue;
use pimsyn_perfbench::report::{Report, Value};
use pimsyn_perfbench::{workloads, Config, Workload, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, trace: bool) -> Report {
    let cfg = Config {
        workload,
        seed: 11,
        seconds: 0.3,
        trace,
        smoke: true,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    };
    std::fs::create_dir_all(&cfg.out_dir).unwrap();
    workloads::run(&cfg).expect("workload runs")
}

fn assert_sound(report: &Report, listed: &[(&str, &str)]) {
    assert!(
        report.attempted > 0,
        "{}: no job was checked",
        report.workload
    );
    assert!(
        report.correct(),
        "{}: {:#?}",
        report.workload,
        report.failures
    );
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = listed.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    for m in report.metrics.iter().chain(&report.extra) {
        assert!(m.value.number().is_finite(), "{} is not finite", m.name);
        let is_ratio = matches!(m.value, Value::Ratio(_));
        assert_eq!(
            is_ratio,
            m.unit == "ratio" || m.unit.contains("/rescore"),
            "{}",
            m.name
        );
        if let Value::Ratio(r) = m.value {
            assert!(
                r.base.is_finite() && r.base >= 0.0,
                "{} has no base",
                m.name
            );
            assert!(
                !m.note.is_empty(),
                "{} does not say what its base counts",
                m.name
            );
        }
    }
    let line = JsonValue::parse(&report.result_line()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn every_workload_passes_its_checks_untraced_and_traced() {
    for workload in Workload::ALL {
        assert_sound(&smoke(workload, false), END_TO_END);
        assert_sound(&smoke(workload, true), PER_LAYER);
    }
}

#[test]
fn benchmark_json_lists_what_the_harness_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), own(PER_LAYER));
    // Every listed workload exists; gateway-fast is deliberately unlisted.
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, ["paper-cold", "gateway-paper", "warm-repeat"]);
    assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
}
