//! `--compare A.json B.json`: verdicts for a change, from two `--out`
//! reports of the same workloads and seeds (A the parent, B the change,
//! best collected in interleaved pairs).
//!
//! Per workload and end-to-end metric, with the bounds of `BENCHMARK.json`:
//! * **better** when B wins at least 9 of every 10 pairs (ties count for
//!   neither side) and the medians differ by more than A's interquartile
//!   range;
//! * **worse** when B's median is worse than A's by more than the bound;
//! * **unresolved** otherwise.
//!
//! Exact counts must be equal for every seed both reports ran.

use std::collections::BTreeMap;
use std::path::Path;

use cfl_match::serve::json::Json;

use crate::stats::{median, quartiles};
use crate::workloads::EXACT;

/// One end-to-end metric's regression rule.
struct Bound {
    lower_is_better: bool,
    bound: f64,
}

/// `workload -> seed -> metric -> value`.
type Runs = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn num(j: &Json) -> Option<f64> {
    match *j {
        Json::Num(n) => Some(n),
        _ => None,
    }
}

fn bounds(benchmark_json: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let doc = read_json(benchmark_json)?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?;
        let better = m
            .get("better")
            .and_then(Json::as_str)
            .ok_or("metric without better")?;
        let bound = m.get("bound").and_then(num).ok_or("metric without bound")?;
        out.insert(
            name.to_string(),
            Bound {
                lower_is_better: better == "lower",
                bound,
            },
        );
    }
    Ok(out)
}

fn runs(report: &Path) -> Result<Runs, String> {
    let doc = read_json(report)?;
    let mut out: Runs = BTreeMap::new();
    for r in doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("report has no runs list")?
    {
        let workload = r
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let seed = r
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("run without seed")?;
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            return Err("run without metrics".to_string());
        };
        let values = metrics
            .iter()
            .filter_map(|(k, v)| v.get("value").and_then(num).map(|x| (k.clone(), x)))
            .collect();
        out.entry(workload.to_string())
            .or_default()
            .insert(seed, values);
    }
    Ok(out)
}

/// The verdict for one metric over pairs `(a, b)`.
pub fn verdict(pairs: &[(f64, f64)], lower_is_better: bool, bound: f64) -> &'static str {
    let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (ma, mb) = (median(&a), median(&b));
    // Positive when B is better.
    let gain = |x: f64, y: f64| if lower_is_better { x - y } else { y - x };
    let wins = pairs.iter().filter(|&&(x, y)| gain(x, y) > 0.0).count();
    let iqr = quartiles(&a).map_or(0.0, |(q1, q3)| q3 - q1);
    if 10 * wins >= 9 * pairs.len() && gain(ma, mb) > iqr {
        "better"
    } else if -gain(ma, mb) > bound * ma.abs() {
        "worse"
    } else {
        "unresolved"
    }
}

/// Prints the comparison; returns whether nothing got worse and every
/// exact count held.
pub fn run(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let bounds = bounds(benchmark_json)?;
    let (ra, rb) = (runs(a)?, runs(b)?);
    let mut ok = true;
    println!(
        "{:<13} {:<16} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "wins"
    );
    for (workload, a_seeds) in &ra {
        let Some(b_seeds) = rb.get(workload) else {
            continue;
        };
        let seeds: Vec<u64> = a_seeds
            .keys()
            .filter(|s| b_seeds.contains_key(s))
            .copied()
            .collect();
        for (name, rule) in &bounds {
            let pairs: Vec<(f64, f64)> = seeds
                .iter()
                .filter_map(|s| Some((*a_seeds[s].get(name)?, *b_seeds[s].get(name)?)))
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let v = verdict(&pairs, rule.lower_is_better, rule.bound);
            ok &= v != "worse";
            let ma = median(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
            let mb = median(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
            let wins = pairs
                .iter()
                .filter(|&&(x, y)| if rule.lower_is_better { y < x } else { y > x })
                .count();
            println!(
                "{workload:<13} {name:<16} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>3}/{:<2}  {v}",
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                wins,
                pairs.len()
            );
        }
        for s in &seeds {
            for name in EXACT {
                if let (Some(x), Some(y)) = (a_seeds[s].get(name), b_seeds[s].get(name)) {
                    if x != y {
                        ok = false;
                        println!("{workload:<13} {name}: seed {s} counts differ: {x} vs {y}");
                    }
                }
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_pair_rule_and_the_bound() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        // 10% faster on every pair: better.
        let faster: Vec<(f64, f64)> = a.iter().map(|&x| (x, x * 0.9)).collect();
        assert_eq!(verdict(&faster, true, 0.05), "better");
        // 1% faster: wins every pair, but within A's own spread.
        let barely: Vec<(f64, f64)> = a.iter().map(|&x| (x, x * 0.99)).collect();
        assert_eq!(verdict(&barely, true, 0.05), "unresolved");
        // 10% slower against a 5% bound: worse; against a 20% bound: not.
        let slower: Vec<(f64, f64)> = a.iter().map(|&x| (x, x * 1.1)).collect();
        assert_eq!(verdict(&slower, true, 0.05), "worse");
        assert_eq!(verdict(&slower, true, 0.2), "unresolved");
        // Direction matters: for a higher-is-better metric the same
        // numbers are a gain.
        assert_eq!(verdict(&slower, false, 0.05), "better");
    }
}
