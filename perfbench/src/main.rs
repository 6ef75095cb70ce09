//! `perfbench`: runs one workload, or all of them.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable metric lines, writes the full result (fingerprint,
//! ratio bases, failures, and for traced runs every job's spans) to
//! `perfbench/results/`, and ends its stdout with one JSON line holding
//! `correct`, `attempted`, `failed` and the gated metrics. Exits 1 when a
//! correctness check failed, 2 on bad arguments. `--workload all` runs
//! every workload untraced and traced, each in its own process.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use pimsyn_perfbench::{workloads, Config, Workload};

const USAGE: &str =
    "usage: perfbench --workload <paper-cold|gateway-paper|gateway-fast|warm-repeat|all> \
     --seed <n> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let seed = value("--seed").unwrap_or("1").parse::<u64>();
    let seconds = value("--seconds").unwrap_or("10").parse::<f64>();
    let trace = value("--trace").unwrap_or("0");
    let (Ok(seed), Ok(seconds), Some(workload)) = (seed, seconds, value("--workload")) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if seconds.is_nan() || seconds < 0.0 || !matches!(trace, "0" | "1") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    if workload == "all" {
        return run_all(seed, seconds);
    }
    let Some(workload) = Workload::parse(workload) else {
        eprintln!("unknown workload `{workload}`\n{USAGE}");
        return ExitCode::from(2);
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace: trace == "1",
        smoke: false,
        out_dir: PathBuf::from("perfbench/results"),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("error: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    let report = match workloads::run(&cfg) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.text());
    let file = cfg.out_dir.join(format!(
        "{}-seed{}-{}.json",
        workload.name(),
        seed,
        if cfg.trace { "traced" } else { "untraced" }
    ));
    if let Err(e) = std::fs::write(&file, report.file_json() + "\n") {
        eprintln!("warning: cannot write {}: {e}", file.display());
    } else {
        println!("  result file: {}", file.display());
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload untraced then traced, each in a child process so its
/// peak memory is its own. Fails if any child fails.
fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("error: cannot locate the benchmark binary");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name(), "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ]);
            let passed = cmd.status().map(|s| s.success()).unwrap_or(false);
            if !passed {
                eprintln!("FAILED: {} --trace {trace}", workload.name());
            }
            ok &= passed;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
