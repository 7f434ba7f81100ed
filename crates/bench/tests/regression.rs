//! End-to-end checks of the regression detector: known synthetic shifts
//! must classify correctly across seeds, the bootstrap CI must actually
//! cover the true median, and the `ntr-bench --gate` binary must turn a
//! synthetic slowdown into a nonzero exit.

use std::path::{Path, PathBuf};
use std::process::Command;

use ntr_bench::artifact::write_artifact;
use ntr_bench::compare::{compare, Verdict, DEFAULT_THRESHOLD_PCT};
use ntr_bench::stats::{bootstrap_ci_median, summarize, Summary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic "timing samples": uniform noise of `spread` around
/// `center`, mimicking a well-behaved per-iteration distribution.
fn samples(center: f64, spread: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| center + rng.gen_range(-spread..spread))
        .collect()
}

fn artifact_of(name: &str, center: f64, seed: u64) -> ntr_bench::artifact::Artifact {
    let s = summarize(&samples(center, 0.02 * center, 60, seed), seed ^ 0xB00);
    ntr_bench::artifact::Artifact {
        workload: name.to_owned(),
        median_ns: s.median_ns,
        mad_ns: s.mad_ns,
        ci95_ns: Some((s.ci95_lo_ns, s.ci95_hi_ns)),
        git_hash: "test".to_owned(),
    }
}

/// 0% and 3% shifts stay under the 5% default threshold; a 10% shift
/// with tight CIs must be flagged — across many seeds, not one lucky
/// draw.
#[test]
fn known_shifts_classify_correctly_across_seeds() {
    for seed in 0..20u64 {
        let base = artifact_of("w", 1000.0, seed);
        for (shift, expected) in [
            (0.0, Verdict::Unchanged),
            (0.03, Verdict::Unchanged),
            (0.10, Verdict::Regressed),
        ] {
            let current = artifact_of("w", 1000.0 * (1.0 + shift), seed + 1000);
            let report = compare(
                std::slice::from_ref(&base),
                std::slice::from_ref(&current),
                DEFAULT_THRESHOLD_PCT,
            );
            assert_eq!(
                report.comparisons[0].verdict, expected,
                "seed {seed}, shift {shift}: {:?}",
                report.comparisons[0]
            );
        }
    }
}

/// Percentile-bootstrap coverage: the 95% CI of the median must contain
/// the true median in at least 90% of independent trials. (95% nominal;
/// the 90% bound leaves room for small-sample coverage error.)
#[test]
fn bootstrap_ci_covers_the_true_median() {
    // Uniform(90, 110): true median 100.
    let trials = 100u64;
    let covered = (0..trials)
        .filter(|&trial| {
            let s = samples(100.0, 10.0, 60, 7000 + trial);
            let (lo, hi) = bootstrap_ci_median(&s, 1000, 42 + trial);
            (lo..=hi).contains(&100.0)
        })
        .count() as u64;
    assert!(
        covered * 10 >= trials * 9,
        "CI covered the true median in only {covered}/{trials} trials"
    );
}

fn write_synthetic(dir: &PathBuf, names: &[&str], center: f64, seed: u64) {
    std::fs::create_dir_all(dir).unwrap();
    for (i, name) in names.iter().enumerate() {
        let s = summarize(&samples(center, 0.02 * center, 60, seed + i as u64), seed);
        write_artifact(dir, name, &s, 1, true, "test").unwrap();
    }
}

fn run_gate(current: &Path, baseline: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ntr-bench"))
        .args([
            "--compare-only",
            "--gate",
            "--out-dir",
            current.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ])
        .output()
        .expect("ntr-bench runs")
}

/// The acceptance criterion, end to end through the binary: a synthetic
/// 10% slowdown exits nonzero, an unchanged rerun exits zero.
#[test]
fn gate_binary_fails_on_slowdown_and_passes_unchanged() {
    let root = std::env::temp_dir().join(format!("ntr_gate_{}", std::process::id()));
    let baseline = root.join("baseline");
    let same = root.join("same");
    let slow = root.join("slow");
    let names = ["alpha", "beta"];
    write_synthetic(&baseline, &names, 1000.0, 1);
    write_synthetic(&same, &names, 1000.0, 2); // new noise, same center
    std::fs::create_dir_all(&slow).unwrap();
    // beta regresses 10%, alpha unchanged.
    let s = summarize(&samples(1000.0, 20.0, 60, 3), 3);
    write_artifact(&slow, "alpha", &s, 1, true, "test").unwrap();
    let s = summarize(&samples(1100.0, 22.0, 60, 4), 4);
    write_artifact(&slow, "beta", &s, 1, true, "test").unwrap();

    let ok = run_gate(&same, &baseline);
    assert!(
        ok.status.success(),
        "unchanged rerun failed the gate:\n{}{}",
        String::from_utf8_lossy(&ok.stdout),
        String::from_utf8_lossy(&ok.stderr)
    );

    let bad = run_gate(&slow, &baseline);
    assert!(
        !bad.status.success(),
        "10% slowdown passed the gate:\n{}",
        String::from_utf8_lossy(&bad.stdout)
    );
    let table = String::from_utf8_lossy(&bad.stdout);
    assert!(table.contains("REGRESSED"), "{table}");
    assert!(table.contains("beta"), "{table}");

    std::fs::remove_dir_all(&root).ok();
}

/// `--gate` without a baseline is a usage error, not a silent pass.
#[test]
fn gate_without_baseline_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_ntr-bench"))
        .args(["--gate", "--compare-only"])
        .output()
        .expect("ntr-bench runs");
    assert_eq!(out.status.code(), Some(2));
}

/// `--list` names every registered workload without running anything.
#[test]
fn list_prints_the_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_ntr-bench"))
        .arg("--list")
        .output()
        .expect("ntr-bench runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for w in ntr_bench::workloads::registry() {
        assert!(text.contains(w.name), "--list missing {}", w.name);
    }
}

/// The summary a gate test writes must round-trip: sanity-check the
/// pieces the synthetic artifacts rely on.
#[test]
fn synthetic_summaries_have_tight_cis() {
    let s: Summary = summarize(&samples(1000.0, 20.0, 60, 9), 9);
    assert!(
        (s.median_ns - 1000.0).abs() < 10.0,
        "median {summary}",
        summary = s.median_ns
    );
    assert!(s.ci95_hi_ns - s.ci95_lo_ns < 20.0, "CI too wide: {s:?}");
}
