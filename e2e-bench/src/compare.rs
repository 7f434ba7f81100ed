//! `ntr-e2e compare A.jsonl B.jsonl`: per workload, each end-to-end
//! metric of run set B against run set A, judged by the bound
//! `BENCHMARK.json` fixes for it.
//!
//! A set's spread is the distance between its first and third quartile
//! (Python's `statistics.quantiles(values, n=4)`) as a share of its
//! median. A metric is *unresolved* when either spread exceeds the bound,
//! unless every run of B beats every run of A; otherwise it is *worse* or
//! *better* when the medians differ by more than the bound, else *same*.

use std::collections::BTreeMap;

use ntr_server::json::Json;

/// How one end-to-end metric is judged.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// The end-to-end rules of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn rules(benchmark: &str) -> Result<Vec<Rule>, String> {
    let doc = Json::parse(benchmark).map_err(|e| e.to_string())?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Rule {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                lower_is_better: match m.get("better").and_then(Json::as_str) {
                    Some("lower") => true,
                    Some("higher") => false,
                    _ => return Err("better must be lower or higher".to_owned()),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Untraced run results by workload, then metric, in file order.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads a JSON-lines file of run results (`--out` lines); traced runs
/// are skipped.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn load(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if doc.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        let entry = set.entry(workload.to_owned()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                entry.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) computes them.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// `(q3 - q1) / median`.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The judgement of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B beats A by more than the bound (or every B run beats every A run).
    Better,
    /// Within the bound.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// A spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's values of one metric against A's. Returns the verdict and
/// B's relative change, positive when worse.
#[must_use]
pub fn judge(rule: &Rule, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    let worse_by = if ma == 0.0 {
        0.0
    } else if rule.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let beats = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let verdict = if spread(a) > rule.bound || spread(b) > rule.bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > rule.bound {
        Verdict::Worse
    } else if worse_by < -rule.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

/// Renders the comparison table; the flag is `true` when any metric got
/// worse.
#[must_use]
pub fn compare(rules: &[Rule], a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut text = format!(
        "{:<13} {:<20} {:>12} {:>12} {:>9} {:>8} {:>8} {:>7}  verdict\n",
        "workload", "metric", "median A", "median B", "change", "spread A", "spread B", "bound"
    );
    let mut any_worse = false;
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            text.push_str(&format!("{workload:<13} missing from B\n"));
            continue;
        };
        for rule in rules {
            let (Some(va), Some(vb)) = (metrics_a.get(&rule.name), metrics_b.get(&rule.name))
            else {
                continue;
            };
            let (verdict, worse_by) = judge(rule, va, vb);
            any_worse |= verdict == Verdict::Worse;
            text.push_str(&format!(
                "{:<13} {:<20} {:>12.6} {:>12.6} {:>+8.2}% {:>7.2}% {:>7.2}% {:>6.1}%  {}\n",
                workload,
                rule.name,
                quartiles(va)[1],
                quartiles(vb)[1],
                worse_by * 100.0,
                spread(va) * 100.0,
                spread(vb) * 100.0,
                rule.bound * 100.0,
                verdict.as_str()
            ));
        }
    }
    (text, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let rule = Rule {
            name: "p50_ms.low".to_owned(),
            lower_is_better: true,
            bound: 0.1,
        };
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(judge(&rule, &a, &a).0, Verdict::Same);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&rule, &a, &slower).0, Verdict::Worse);
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&rule, &a, &faster).0, Verdict::Better);
        let noisy = [5.0, 10.0, 15.0, 20.0, 8.0];
        assert_eq!(judge(&rule, &a, &noisy).0, Verdict::Unresolved);
        let higher = Rule {
            lower_is_better: false,
            ..rule
        };
        assert_eq!(judge(&higher, &a, &slower).0, Verdict::Better);
    }
}
