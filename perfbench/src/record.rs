//! Result lines, saved run records, and the two commands that read them
//! back: `spread` (run-to-run spread of a set of runs) and `compare`
//! (parent runs against change runs, refused when the work differs).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vw_trace::Json;

use crate::fingerprint::Fingerprint;
use crate::stats::{self, Better, Verdict};
use crate::{Outcome, END_TO_END, PER_LAYER};

/// Formats a metric value with all its digits (shortest round-trip form).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The contract's result line: `correct`, `attempted`, `failed`, and
/// every metric of the selected list with its unit.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{comma}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value)
        );
    }
    s.push_str("}}");
    s
}

/// The saved form of one run: the result line's fields plus the
/// fingerprint and the run parameters.
pub fn record_json(outcome: &Outcome, traced: bool, seconds: f64) -> String {
    format!(
        "{{\"traced\": {traced}, \"seconds\": {}, \"fingerprint\": {}, \"result\": {}}}\n",
        num(seconds),
        outcome.fingerprint.to_json(),
        result_line(outcome, traced)
    )
}

/// One saved run, read back.
#[derive(Debug, Clone)]
pub struct Record {
    /// Whether the run was traced.
    pub traced: bool,
    /// The work it measured.
    pub fingerprint: Fingerprint,
    /// Whether every output check passed.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a record written by [`record_json`].
///
/// # Errors
///
/// A description of what is malformed.
pub fn parse_record(text: &str) -> Result<Record, String> {
    let json = Json::parse(text.trim())?;
    let obj = json.as_obj().ok_or("record is not an object")?;
    let fingerprint = obj
        .get("fingerprint")
        .and_then(Fingerprint::from_json)
        .ok_or("record has no readable fingerprint")?;
    let result = obj
        .get("result")
        .and_then(Json::as_obj)
        .ok_or("record has no result")?;
    let mut metrics = BTreeMap::new();
    for (name, m) in result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result has no metrics")?
    {
        if let Some(Json::Num(v)) = m.as_obj().and_then(|m| m.get("value")) {
            metrics.insert(name.clone(), *v);
        }
    }
    Ok(Record {
        traced: matches!(obj.get("traced"), Some(Json::Bool(true))),
        fingerprint,
        correct: matches!(result.get("correct"), Some(Json::Bool(true))),
        metrics,
    })
}

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Which direction is better.
    pub better: Better,
    /// Allowed worsening, as a share of the parent median.
    pub bound: f64,
}

/// Reads the end-to-end bounds from `BENCHMARK.json` text.
///
/// # Errors
///
/// A description of what is malformed.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let json = Json::parse(text)?;
    let list = json
        .as_obj()
        .and_then(|o| o.get("end_to_end"))
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let m = m.as_obj().ok_or("metric entry is not an object")?;
            let s = |k: &str| match m.get(k) {
                Some(Json::Str(s)) => Ok(s.clone()),
                _ => Err(format!("metric entry lacks `{k}`")),
            };
            let bound = match m.get("bound") {
                Some(Json::Num(b)) => *b,
                _ => return Err("metric entry lacks `bound`".to_string()),
            };
            Ok(Bound {
                name: s("name")?,
                better: Better::parse(&s("better")?)
                    .ok_or("`better` is neither higher nor lower")?,
                bound,
            })
        })
        .collect()
}

/// `spread`: per metric, the median, quartiles and interquartile spread
/// of a set of runs of one workload — and, given bounds, whether each
/// spread is within a third of its bound. Also flags runs of one seed
/// whose fingerprints differ (the simulation must repeat exactly).
pub fn spread_report(records: &[Record], bounds: &[Bound]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let mut by_seed: BTreeMap<u64, &Fingerprint> = BTreeMap::new();
    for r in records {
        match by_seed.get(&r.fingerprint.seed) {
            Some(first) if **first != r.fingerprint => {
                ok = false;
                let _ = writeln!(
                    out,
                    "NONDETERMINISTIC: seed {} gave {} and {}",
                    r.fingerprint.seed,
                    first.to_json(),
                    r.fingerprint.to_json()
                );
            }
            Some(_) => {}
            None => {
                by_seed.insert(r.fingerprint.seed, &r.fingerprint);
            }
        }
        if !r.correct {
            ok = false;
            let _ = writeln!(out, "INCORRECT run (seed {})", r.fingerprint.seed);
        }
        if r.traced != records[0].traced {
            ok = false;
            let _ = writeln!(out, "MIXED: traced and untraced runs in one set");
        }
    }
    let names: Vec<&String> = records
        .first()
        .map(|r| r.metrics.keys().collect())
        .unwrap_or_default();
    for name in names {
        let values: Vec<f64> = records
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect();
        let Some((q1, q2, q3)) = stats::quartiles(&values) else {
            continue;
        };
        let spread = stats::spread(&values).unwrap_or(0.0);
        let verdict = match bounds.iter().find(|b| &b.name == name) {
            Some(b) if name == "setup_s" => format!("bound {} (spread not gated)", b.bound),
            Some(b) if spread <= b.bound / 3.0 => format!("ok: within a third of {}", b.bound),
            Some(b) if spread <= b.bound => format!("WIDE: above a third of {}", b.bound),
            Some(b) => {
                ok = false;
                format!("FAIL: above the bound {}", b.bound)
            }
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "{name:<32} n={:<3} median={q2:<14.6} q1={q1:<14.6} q3={q3:<14.6} spread={:>7.3}% {verdict}",
            values.len(),
            spread * 100.0
        );
    }
    (out, ok)
}

/// `compare`: parent runs against change runs of one workload. Refuses
/// (returns `Err`) when any seed present on both sides has differing
/// fingerprints; otherwise gives each end-to-end metric a verdict.
///
/// # Errors
///
/// The fingerprint mismatch, rendered.
pub fn compare_report(base: &[Record], new: &[Record], bounds: &[Bound]) -> Result<String, String> {
    let mut out = String::new();
    if base.is_empty() || new.is_empty() {
        return Err("compare needs at least one run on each side".to_string());
    }
    if base.iter().chain(new).any(|r| r.traced) {
        return Err(
            "compare judges untraced runs only; traced runs hold no end-to-end metrics".to_string(),
        );
    }
    let mut compared = 0;
    for b in base {
        for n in new
            .iter()
            .filter(|n| n.fingerprint.seed == b.fingerprint.seed)
        {
            b.fingerprint
                .check_comparable(&n.fingerprint)
                .map_err(|m| m.to_string())?;
            if let Some(note) = b.fingerprint.events_note(&n.fingerprint) {
                let _ = writeln!(out, "note: {note}");
            }
            compared += 1;
        }
    }
    if compared == 0 {
        return Err("no seed was run on both sides; refusing to compare".to_string());
    }
    for bound in bounds {
        let values = |rs: &[Record]| -> Vec<f64> {
            rs.iter()
                .filter_map(|r| r.metrics.get(&bound.name).copied())
                .collect()
        };
        let (bv, nv) = (values(base), values(new));
        let Some(verdict) = stats::judge(&bv, &nv, bound.better, bound.bound) else {
            continue;
        };
        let word = match verdict {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        };
        let _ = writeln!(
            out,
            "{:<20} parent median {:<14.6} change median {:<14.6} {word}",
            bound.name,
            stats::median(&bv).unwrap_or(0.0),
            stats::median(&nv).unwrap_or(0.0)
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(seed: u64, instances: u64, rate: f64) -> Outcome {
        let mut metrics = BTreeMap::new();
        metrics.insert("instances_per_s", rate);
        metrics.insert("setup_s", 0.01);
        Outcome {
            attempted: 10,
            failed: 0,
            failures: Vec::new(),
            metrics,
            fingerprint: Fingerprint {
                workload: "daemon_sweep".into(),
                seed,
                instances,
                classified: 100,
                config_hash: 1,
                output_digest: 2,
                sim_events: 300,
            },
        }
    }

    fn rec(o: &Outcome) -> Record {
        parse_record(&record_json(o, false, 10.0)).unwrap()
    }

    fn bounds() -> Vec<Bound> {
        parse_bounds(
            r#"{"end_to_end": [
                {"name": "instances_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&outcome(1, 10, 5.0), false);
        let json = Json::parse(&line).unwrap();
        let obj = json.as_obj().unwrap();
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["attempted", "correct", "failed", "metrics"]);
        let metrics = obj["metrics"].as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let traced = result_line(&outcome(1, 10, 5.0), true);
        let traced = Json::parse(&traced).unwrap();
        assert_eq!(
            traced.as_obj().unwrap()["metrics"].as_obj().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn mismatched_fingerprints_are_refused() {
        let base: Vec<Record> = (1..=3).map(|s| rec(&outcome(s, 48, 100.0))).collect();
        let new: Vec<Record> = (1..=3).map(|s| rec(&outcome(s, 384, 100.0))).collect();
        let err = compare_report(&base, &new, &bounds()).unwrap_err();
        assert!(err.contains("instances: 48 -> 384"), "{err}");
        let disjoint: Vec<Record> = (7..=9).map(|s| rec(&outcome(s, 48, 100.0))).collect();
        assert!(compare_report(&base, &disjoint, &bounds()).is_err());
        let traced = parse_record(&record_json(&outcome(1, 48, 100.0), true, 10.0)).unwrap();
        assert!(compare_report(&base, &[traced], &bounds()).is_err());
    }

    #[test]
    fn matching_fingerprints_are_judged() {
        let base: Vec<Record> = (1..=5)
            .map(|s| rec(&outcome(s, 48, 100.0 + s as f64 * 0.1)))
            .collect();
        let slower: Vec<Record> = (1..=5).map(|s| rec(&outcome(s, 48, 70.0))).collect();
        let report = compare_report(&base, &slower, &bounds()).unwrap();
        assert!(report.contains("instances_per_s") && report.contains("REGRESSED"));
    }

    #[test]
    fn spread_flags_nondeterminism_and_wide_metrics() {
        let steady: Vec<Record> = (0..5)
            .map(|i| rec(&outcome(1, 48, 100.0 + i as f64 * 0.01)))
            .collect();
        let (text, ok) = spread_report(&steady, &bounds());
        assert!(ok, "{text}");
        let mut drifted = steady.clone();
        drifted[2].fingerprint.output_digest = 99;
        let (text, ok) = spread_report(&drifted, &bounds());
        assert!(!ok && text.contains("NONDETERMINISTIC"), "{text}");
        let noisy: Vec<Record> = [50.0, 100.0, 150.0, 75.0, 125.0]
            .iter()
            .map(|&v| rec(&outcome(1, 48, v)))
            .collect();
        let (text, ok) = spread_report(&noisy, &bounds());
        assert!(!ok && text.contains("FAIL"), "{text}");
    }
}
