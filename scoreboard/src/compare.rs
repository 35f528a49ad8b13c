//! `scoreboard compare OLD.json NEW.json` — the tool every claim and the
//! A/A acceptance check use. Directions and bounds are `BENCHMARK.json`'s.

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::{Metric, Spec};

/// The verdict on one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Moved by no more than the bound, either way.
    WithinBound,
    /// Worsened by more than the bound.
    Worse,
    /// The spread of either side exceeds the bound: the move, if any,
    /// cannot be told from noise.
    Unresolved,
    /// A per-layer metric: no bound to judge by.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// Judges one row. `change` is the relative move in the direction that
/// is worse (positive = worse). A move beyond the bound counts as worse
/// only when it is also larger than the spread: runs that disagree among
/// themselves by 30 % cannot convict a 28 % move.
fn judge(bound: Option<f64>, change: f64, spread: f64) -> Verdict {
    match bound {
        None => Verdict::Info,
        Some(bound) if change > bound.max(spread) => Verdict::Worse,
        Some(bound) if spread > bound => Verdict::Unresolved,
        Some(bound) if change < -bound => Verdict::Better,
        Some(_) => Verdict::WithinBound,
    }
}

/// The outcome of a comparison: the printed rows and whether it passed.
pub struct Comparison {
    /// One line per (metric, workload), ready to print.
    pub text: String,
    /// Rows judged worse.
    pub worse: usize,
    /// End-to-end rows left unresolved.
    pub unresolved: usize,
    /// Rows OLD or `BENCHMARK.json` promise that NEW does not hold as a
    /// finite number: a workload that crashed must not pass by silence.
    pub missing: usize,
    /// Workloads whose fail ratio rose.
    pub more_failures: usize,
}

impl Comparison {
    /// Non-zero on any row judged worse, any row missing from NEW and
    /// any higher fail ratio.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.worse > 0 || self.missing > 0 || self.more_failures > 0)
    }
}

/// Member `key` of `entry` as a finite number.
fn number(entry: Option<&Json>, key: &str) -> Option<f64> {
    entry?.get(key)?.as_f64().filter(|n| n.is_finite())
}

const MISSING: &str = "MISSING";

/// Member `name` of the object under `key` of `entry`.
fn member<'a>(entry: Option<&'a Json>, key: &str, name: &str) -> Option<&'a Json> {
    entry?.get(key)?.get(name)
}

/// `wanted`, then whatever else `reported` names, each once.
fn names_of<'a>(wanted: impl Iterator<Item = &'a str>, reported: Option<&'a Json>) -> Vec<&'a str> {
    let mut names: Vec<&str> = wanted.collect();
    for (name, _) in reported.and_then(Json::as_obj).unwrap_or_default() {
        if !names.contains(&name.as_str()) {
            names.push(name);
        }
    }
    names
}

/// Compares two report files under the bounds of `spec`. The rows are
/// every workload of `spec` and of OLD, and in each every metric OLD
/// reports and every end-to-end metric of `spec` — unless both reports
/// are traced runs, which hold the per-layer set only.
pub fn compare(spec: &Spec, old: &Json, new: &Json) -> Result<Comparison, String> {
    for report in [old, new] {
        if report.get("workloads").and_then(Json::as_obj).is_none() {
            return Err("report has no workloads".into());
        }
    }
    let is_traced =
        |report: &Json| member(Some(report), "header", "trace") == Some(&Json::Bool(true));
    let traced = is_traced(old) && is_traced(new);
    let mut result = Comparison {
        text: String::new(),
        worse: 0,
        unresolved: 0,
        missing: 0,
        more_failures: 0,
    };
    let _ = writeln!(
        result.text,
        "{:<16} {:<46} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "old", "new", "change"
    );
    let shown = |n: Option<f64>| n.map_or("-".to_owned(), |n| format!("{n:.4}"));
    let workloads = names_of(
        spec.workloads.iter().map(String::as_str),
        old.get("workloads"),
    );
    for workload in workloads {
        let old_entry = member(Some(old), "workloads", workload);
        let Some(new_entry) = member(Some(new), "workloads", workload) else {
            result.missing += 1;
            let _ = writeln!(result.text, "{workload:<16} {MISSING} from the new report");
            continue;
        };
        let (old_fail, new_fail) = (
            number(old_entry, "fail_ratio"),
            number(Some(new_entry), "fail_ratio"),
        );
        let verdict = match new_fail {
            None => {
                result.missing += 1;
                MISSING
            }
            Some(new_fail) if new_fail > old_fail.unwrap_or(0.0) => {
                result.more_failures += 1;
                "WORSE"
            }
            Some(_) => "same or lower",
        };
        let _ = writeln!(
            result.text,
            "{workload:<16} {:<46} {:>14} {:>14} {:>8}  {verdict}",
            "fail_ratio",
            shown(old_fail),
            shown(new_fail),
            "",
        );
        let end_to_end = spec.end_to_end.iter().map(|m| m.name.as_str());
        let metrics = names_of(
            end_to_end.filter(|_| !traced),
            old_entry.and_then(|entry| entry.get("metrics")),
        );
        for name in metrics {
            let old_metric = member(old_entry, "metrics", name);
            let new_metric = member(Some(new_entry), "metrics", name);
            let (a, b) = (number(old_metric, "value"), number(new_metric, "value"));
            let (relative, verdict) = match (a, b, spec.metric(name)) {
                (_, None, _) => {
                    result.missing += 1;
                    (None, MISSING)
                }
                (Some(a), Some(b), Some(rule)) => {
                    let (relative, verdict) = judge_row(rule, a, b, old_metric, new_metric);
                    match verdict {
                        Verdict::Worse => result.worse += 1,
                        Verdict::Unresolved => result.unresolved += 1,
                        _ => {}
                    }
                    (Some(relative), verdict.label())
                }
                // Not in OLD, or no metric of BENCHMARK.json: shown, not judged.
                _ => (None, Verdict::Info.label()),
            };
            let identical = if a.is_some() && a == b {
                " (identical)"
            } else {
                ""
            };
            let _ = writeln!(
                result.text,
                "{workload:<16} {name:<46} {:>14} {:>14} {:>8}  {verdict}{identical}",
                shown(a),
                shown(b),
                relative.map_or(String::new(), |r| format!("{:+.1}%", r * 100.0)),
            );
        }
    }
    let _ = writeln!(
        result.text,
        "{} worse, {} unresolved, {} missing, {} workloads with a higher fail ratio",
        result.worse, result.unresolved, result.missing, result.more_failures
    );
    Ok(result)
}

/// The relative move of one metric from `a` to `b` and its verdict.
fn judge_row(
    rule: &Metric,
    a: f64,
    b: f64,
    old_metric: Option<&Json>,
    new_metric: Option<&Json>,
) -> (f64, Verdict) {
    let relative = if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a.abs()
    };
    let change = if rule.lower_is_better {
        relative
    } else {
        -relative
    };
    let spread = number(old_metric, "spread")
        .unwrap_or(0.0)
        .max(number(new_metric, "spread").unwrap_or(0.0));
    (relative, judge(rule.bound, change, spread))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::parse(
            r#"{"run_seconds": 5,
               "workloads": [{"name": "read_cold", "why": "w"}],
               "end_to_end": [
                 {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                 {"name": "read_p50_us", "unit": "us", "better": "lower", "bound": 0.1}],
               "per_layer": [{"name": "plan.execute_us", "unit": "us", "better": "lower"}]}"#,
        )
        .unwrap()
    }

    fn report(req_per_s: f64, p50: f64, p50_spread: f64, execute: f64, fail_ratio: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"read_cold": {{"fail_ratio": {fail_ratio}, "metrics": {{
                 "req_per_s": {{"value": {req_per_s}, "spread": 0.01}},
                 "read_p50_us": {{"value": {p50}, "spread": {p50_spread}}},
                 "plan.execute_us": {{"value": {execute}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn same_numbers_pass() {
        let r = report(1000.0, 800.0, 0.02, 500.0, 0.0);
        let c = compare(&spec(), &r, &r).unwrap();
        assert_eq!(
            (c.worse, c.unresolved, c.missing, c.exit_code()),
            (0, 0, 0, 0)
        );
        assert!(c.text.contains("(identical)"));
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let old = report(1000.0, 800.0, 0.02, 500.0, 0.0);
        // Throughput down 20 % is worse; latency down 20 % is better; a
        // per-layer metric is never judged, however far it moves.
        let new = report(800.0, 640.0, 0.02, 5000.0, 0.0);
        let c = compare(&spec(), &old, &new).unwrap();
        assert_eq!((c.worse, c.unresolved), (1, 0));
        assert_ne!(c.exit_code(), 0);
        assert!(c.text.contains("better") && c.text.contains("WORSE") && c.text.contains("info"));
        // Within the bound either way, and in either argument order.
        let new = report(950.0, 830.0, 0.02, 500.0, 0.0);
        assert_eq!(compare(&spec(), &old, &new).unwrap().exit_code(), 0);
        assert_eq!(compare(&spec(), &new, &old).unwrap().exit_code(), 0);
    }

    #[test]
    fn a_spread_beyond_the_bound_is_unresolved_not_unchanged() {
        let old = report(1000.0, 800.0, 0.02, 500.0, 0.0);
        let new = report(1000.0, 810.0, 0.15, 500.0, 0.0);
        let c = compare(&spec(), &old, &new).unwrap();
        assert_eq!((c.worse, c.unresolved, c.exit_code()), (0, 1, 0));
        // Nor can it convict a move smaller than itself, in either
        // argument order; a move larger than the spread is still worse.
        let new = report(1000.0, 900.0, 0.15, 500.0, 0.0);
        for (a, b) in [(&old, &new), (&new, &old)] {
            let c = compare(&spec(), a, b).unwrap();
            assert_eq!((c.worse, c.unresolved), (0, 1), "{}", c.text);
        }
        let new = report(1000.0, 1000.0, 0.15, 500.0, 0.0);
        assert_eq!(compare(&spec(), &old, &new).unwrap().worse, 1);
    }

    #[test]
    fn a_higher_fail_ratio_fails_the_comparison() {
        let old = report(1000.0, 800.0, 0.02, 500.0, 0.0);
        let new = report(1000.0, 800.0, 0.02, 500.0, 0.001);
        let c = compare(&spec(), &old, &new).unwrap();
        assert_eq!(c.more_failures, 1);
        assert_ne!(c.exit_code(), 0);
    }

    #[test]
    fn what_the_new_report_lacks_fails_the_comparison() {
        let old = report(1000.0, 800.0, 0.02, 500.0, 0.0);
        let edited = |from: &str, to: &str| {
            let text = report(1000.0, 800.0, 0.02, 500.0, 0.0).render();
            assert!(text.contains(from), "{text}");
            Json::parse(&text.replacen(from, to, 1)).unwrap()
        };
        let missing = |new: &Json| {
            let c = compare(&spec(), &old, new).unwrap();
            assert_eq!(c.worse, 0, "{}", c.text);
            assert_ne!(c.exit_code(), 0, "{}", c.text);
            assert!(c.text.contains(MISSING), "{}", c.text);
            c.missing
        };
        // A workload that crashed and left no entry.
        assert_eq!(missing(&edited("\"read_cold\"", "\"other\"")), 1);
        // A metric that is gone, end-to-end or per-layer.
        assert_eq!(missing(&edited("\"read_p50_us\"", "\"renamed\"")), 1);
        assert_eq!(missing(&edited("\"plan.execute_us\"", "\"renamed\"")), 1);
        // A NaN the writer rendered as null must not read as 0 us, "-100 % better".
        assert_eq!(missing(&edited("\"value\": 800", "\"value\": null")), 1);
        assert_eq!(
            missing(&edited("\"fail_ratio\": 0", "\"fail_ratio\": null")),
            1
        );
        // An end-to-end metric BENCHMARK.json names and neither report holds.
        let mut wider = spec();
        wider.end_to_end.push(Metric {
            name: "peak_rss_mb".into(),
            unit: "MB".into(),
            lower_is_better: true,
            bound: Some(0.1),
        });
        assert_eq!(compare(&wider, &old, &old).unwrap().missing, 1);
        // Two traced reports hold the per-layer set only, and that is fine.
        let traced = edited(
            "{\"workloads\"",
            "{\"header\": {\"trace\": true}, \"workloads\"",
        );
        assert_eq!(compare(&wider, &traced, &traced).unwrap().exit_code(), 0);
    }
}
