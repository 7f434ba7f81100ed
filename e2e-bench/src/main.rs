//! The benchmark's command line.
//!
//! ```text
//! ntr-e2e [run] [--workload NAME]... --seed N [--seconds S] [--trace 0|1] [--out FILE]
//! ntr-e2e compare A.jsonl B.jsonl
//! ```
//!
//! Both start in the repository's root: `run` (the default) builds
//! `ntr-serve` there, and `compare` reads the bounds of
//! `BENCHMARK.json`. Each workload prints its metrics as
//! `workload metric value unit` lines and then one JSON result line;
//! `--out` appends that result, tagged with workload, seed and trace
//! flag, to a JSON-lines file `compare` reads. The exit code is 1 when
//! any output failed verification.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use ntr_e2e::compare;
use ntr_e2e::run::{run, Config};
use ntr_e2e::server;
use ntr_e2e::workload::Workload;
use ntr_server::json::Json;

const USAGE: &str = "usage: ntr-e2e [run] [--workload NAME]... --seed N [--seconds S] \
[--trace 0|1] [--out FILE]\n       ntr-e2e compare A.jsonl B.jsonl\n\
workloads: small_open repeat_cpr session_edit large_batch";

fn fail(msg: &str) -> ExitCode {
    eprintln!("ntr-e2e: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        _ => run_cmd(&args),
    }
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return fail(USAGE);
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let loaded = (|| {
        let rules = compare::rules(&read("BENCHMARK.json")?)?;
        Ok::<_, String>((rules, compare::load(&read(a)?)?, compare::load(&read(b)?)?))
    })();
    match loaded {
        Ok((rules, set_a, set_b)) => {
            let (table, worse) = compare::compare(&rules, &set_a, &set_b);
            print!("{table}");
            if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => fail(&e),
    }
}

fn run_cmd(args: &[String]) -> ExitCode {
    let mut workloads = Vec::new();
    let mut seed = None;
    let mut seconds = 24.0;
    let mut traced = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned();
        match arg.as_str() {
            "--workload" => match value().as_deref().and_then(Workload::parse) {
                Some(w) => workloads.push(w),
                None => return fail(USAGE),
            },
            "--seed" => match value().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => seed = Some(s),
                None => return fail(USAGE),
            },
            "--seconds" => match value().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s >= 1.0 => seconds = s,
                _ => return fail(USAGE),
            },
            "--trace" => match value().as_deref() {
                Some("0") => traced = false,
                Some("1") => traced = true,
                _ => return fail(USAGE),
            },
            "--out" => match value() {
                Some(path) => out = Some(path),
                None => return fail(USAGE),
            },
            _ => return fail(USAGE),
        }
    }
    let Some(seed) = seed else {
        return fail(USAGE);
    };
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    let root = Path::new(".");
    if !root.join("Cargo.toml").is_file() || !root.join("crates/server").is_dir() {
        return fail("run from the repository root (no crates/server here)");
    }
    let bin = match server::build(root) {
        Ok(bin) => bin,
        Err(e) => return fail(&e),
    };
    let mut all_correct = true;
    for workload in workloads {
        let cfg = Config {
            workload,
            seed,
            seconds,
            traced,
        };
        let outcome = match run(&bin, &cfg) {
            Ok(outcome) => outcome,
            Err(e) => return fail(&format!("{}: {e}", workload.name())),
        };
        for m in &outcome.metrics {
            println!("{} {} {} {}", workload.name(), m.name, m.value, m.unit);
        }
        for mismatch in outcome.mismatches.iter().take(20) {
            eprintln!("ntr-e2e: {}: mismatch: {mismatch}", workload.name());
        }
        let result = outcome.to_json();
        println!("{result}");
        if let Some(path) = &out {
            let mut tagged = Json::obj(vec![
                ("workload", Json::str(workload.name())),
                ("seed", Json::Num(seed as f64)),
                ("trace", Json::Num(f64::from(u8::from(traced)))),
            ]);
            if let Json::Obj(fields) = result {
                for (k, v) in fields {
                    tagged.set(&k, v);
                }
            }
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{tagged}"));
            if let Err(e) = appended {
                return fail(&format!("{path}: {e}"));
            }
        }
        all_correct &= outcome.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
