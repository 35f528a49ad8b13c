//! Rendering: the metric table people read, the one-line result the
//! driver reads, and the report file `compare` reads.

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec;
use crate::stats;
use crate::workloads::{Measured, Outcome};

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric with its value and unit.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome.metrics.iter().map(|(name, m)| {
        let unit = spec::unit_of(name);
        (
            *name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.check.failed == 0)),
        ("attempted", Json::Num(outcome.check.attempted as f64)),
        ("failed", Json::Num(outcome.check.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// A value with as many digits as its size warrants.
fn human(value: f64) -> String {
    match value.abs() {
        0.0 => "0".into(),
        v if v >= 1e6 => format!("{value:.0}"),
        v if v >= 100.0 => format!("{value:.1}"),
        v if v >= 1.0 => format!("{value:.3}"),
        _ => format!("{value:.5}"),
    }
}

/// The named percentile of a metric (`read_p95_us` → 0.95), if it has one.
fn named_percentile(name: &str) -> Option<f64> {
    let digits = name.split('_').find_map(|part| part.strip_prefix('p'))?;
    let value: f64 = digits.parse().ok()?;
    Some(value / 10f64.powi(digits.len() as i32))
}

/// Every metric of `outcome` by name with its unit, its spread beside
/// it (the inter-quartile range of the slices an end-to-end metric is
/// the median of, or of the samples a per-layer metric is the median
/// of), and a mark where the tail rule does not support the percentile
/// the name promises.
pub fn table(outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — attempted {} failed {} fail_ratio {}",
        outcome.workload,
        outcome.check.attempted,
        outcome.check.failed,
        outcome.check.fail_ratio()
    );
    for (name, m) in &outcome.metrics {
        let Measured {
            value,
            spread,
            samples,
        } = *m;
        let spread = spread.map_or(String::new(), |s| format!("  ±{:.1}%", s * 100.0));
        let samples_note = if samples > 0 {
            format!("  n={samples}")
        } else {
            String::new()
        };
        let undersampled = named_percentile(name)
            .filter(|&p| samples > 0 && p > stats::supported_tail(samples))
            .map_or(String::new(), |_| {
                format!(
                    "  (! n supports p{:.0} only)",
                    stats::supported_tail(samples) * 100.0
                )
            });
        let _ = writeln!(
            out,
            "  {name:<46} {:>14} {:<6}{spread}{samples_note}{undersampled}",
            human(value),
            spec::unit_of(name)
        );
    }
    for (name, count) in &outcome.op_counts {
        let _ = writeln!(out, "  # {name} = {}", human(*count));
    }
    for failure in &outcome.check.first_failures {
        let _ = writeln!(out, "  FAILED {failure}");
    }
    out
}

/// One workload's entry in a report file.
fn workload_json(outcome: &Outcome) -> Json {
    let metrics = outcome.metrics.iter().map(|(name, m)| {
        let mut fields = vec![
            ("value".to_owned(), Json::Num(m.value)),
            ("unit".to_owned(), Json::Str(spec::unit_of(name).into())),
        ];
        if let Some(spread) = m.spread {
            fields.push(("spread".into(), Json::Num(spread)));
        }
        if m.samples > 0 {
            fields.push(("samples".into(), Json::Num(m.samples as f64)));
        }
        (*name, Json::Obj(fields))
    });
    Json::obj([
        ("correct", Json::Bool(outcome.check.failed == 0)),
        ("attempted", Json::Num(outcome.check.attempted as f64)),
        ("failed", Json::Num(outcome.check.failed as f64)),
        ("fail_ratio", Json::Num(outcome.check.fail_ratio())),
        (
            "op_counts",
            Json::obj(outcome.op_counts.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
        ("metrics", Json::obj(metrics)),
    ])
}

/// One workload's entry over several runs on the same inputs: counts
/// summed, every metric the median over the runs. Its spread is the
/// larger of the spread between the runs and the typical spread within
/// one, so a row whose runs disagree by more than its bound reads
/// "unresolved" in `compare` whatever each run thought of itself. The
/// operation counts are the first run's.
pub fn merge_runs(runs: &[Json]) -> Json {
    let [first, ..] = runs else {
        return Json::Null;
    };
    if runs.len() == 1 {
        return first.clone();
    }
    let sum = |key: &str| -> f64 {
        runs.iter()
            .filter_map(|run| run.get(key).and_then(Json::as_f64))
            .sum()
    };
    let (attempted, failed) = (sum("attempted"), sum("failed"));
    let metrics = first
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(name, metric)| {
            let over_runs = |key: &str| -> Vec<f64> {
                runs.iter()
                    .filter_map(|run| run.get("metrics")?.get(name)?.get(key)?.as_f64())
                    .collect()
            };
            let values = over_runs("value");
            // A run that lacks the metric makes the merged one lack its
            // value, which `compare` reports as missing.
            let value = if values.len() == runs.len() {
                Json::Num(stats::median(&values))
            } else {
                Json::Null
            };
            let within = over_runs("spread");
            let spread = stats::spread(&values).max(if within.is_empty() {
                0.0
            } else {
                stats::median(&within)
            });
            let mut fields = vec![
                ("value".to_owned(), value),
                (
                    "unit".to_owned(),
                    metric.get("unit").cloned().unwrap_or(Json::Null),
                ),
                ("spread".to_owned(), Json::Num(spread)),
            ];
            let samples: f64 = over_runs("samples").iter().sum();
            if samples > 0.0 {
                fields.push(("samples".into(), Json::Num(samples)));
            }
            (name.as_str(), Json::Obj(fields))
        });
    Json::obj([
        ("correct", Json::Bool(failed == 0.0)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        (
            "fail_ratio",
            Json::Num(if attempted > 0.0 {
                failed / attempted
            } else {
                0.0
            }),
        ),
        ("runs", Json::Num(runs.len() as f64)),
        (
            "op_counts",
            first.get("op_counts").cloned().unwrap_or(Json::Null),
        ),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The report file: the run header and one entry per workload.
pub fn report_file(header: Json, outcomes: &[Outcome]) -> Json {
    Json::obj([
        ("header", header),
        (
            "workloads",
            Json::obj(outcomes.iter().map(|o| (o.workload, workload_json(o)))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut out = Outcome::new("read_hot");
        out.check.attempted = 1000;
        out.set(
            "read_p95_us",
            Measured {
                value: 412.75,
                spread: Some(0.031),
                samples: 150,
            },
        );
        out.set_plain("peak_rss_mb", 88.5);
        out
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&outcome());
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("attempted").unwrap().as_f64(), Some(1000.0));
        let p95 = parsed.get("metrics").unwrap().get("read_p95_us").unwrap();
        assert_eq!(p95.get("value").unwrap().as_f64(), Some(412.75));
        assert_eq!(p95.get("unit").unwrap().as_str(), Some("us"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn runs_merge_into_medians_with_the_spread_between_them() {
        let run = |p95: f64, slice_spread: f64, rss: f64, failed: f64| {
            Json::parse(&format!(
                r#"{{"correct": true, "attempted": 100, "failed": {failed}, "fail_ratio": 0,
                    "op_counts": {{"reads": 99}},
                    "metrics": {{
                      "read_p95_us": {{"value": {p95}, "unit": "us", "spread": {slice_spread}, "samples": 50}},
                      "peak_rss_mb": {{"value": {rss}, "unit": "MB"}}}}}}"#
            ))
            .unwrap()
        };
        let one = run(3000.0, 0.05, 90.0, 0.0);
        assert_eq!(merge_runs(std::slice::from_ref(&one)), one);
        let merged = merge_runs(&[
            one,
            run(4000.0, 0.07, 92.0, 1.0),
            run(3100.0, 0.5, 91.0, 0.0),
        ]);
        let number = |path: &[&str]| {
            path.iter()
                .try_fold(&merged, |json, key| json.get(key))
                .and_then(Json::as_f64)
        };
        assert_eq!(number(&["attempted"]), Some(300.0));
        assert_eq!(number(&["failed"]), Some(1.0));
        assert_eq!(number(&["fail_ratio"]), Some(1.0 / 300.0));
        assert_eq!(merged.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(number(&["runs"]), Some(3.0));
        assert_eq!(number(&["op_counts", "reads"]), Some(99.0));
        // Median of the runs; of three, the spread between them is their range.
        assert_eq!(number(&["metrics", "read_p95_us", "value"]), Some(3100.0));
        assert_eq!(
            number(&["metrics", "read_p95_us", "spread"]),
            Some(1000.0 / 3100.0)
        );
        assert_eq!(number(&["metrics", "read_p95_us", "samples"]), Some(150.0));
        // A metric with no spread of its own gets the one between the runs.
        assert_eq!(number(&["metrics", "peak_rss_mb", "value"]), Some(91.0));
        assert_eq!(
            number(&["metrics", "peak_rss_mb", "spread"]),
            Some(2.0 / 91.0)
        );
        // Runs that agree keep the typical spread within a run.
        let calm = merge_runs(&[
            run(3000.0, 0.0625, 90.0, 0.0),
            run(3000.0, 0.125, 90.0, 0.0),
        ]);
        let spread = calm
            .get("metrics")
            .unwrap()
            .get("read_p95_us")
            .unwrap()
            .get("spread");
        assert_eq!(spread.and_then(Json::as_f64), Some(0.09375));
    }

    #[test]
    fn table_marks_percentiles_the_sample_cannot_support() {
        let text = table(&outcome());
        // 150 samples leave 7 beyond p95: the rule supports p90 only.
        assert!(text.contains("n supports p90 only"), "{text}");
        assert_eq!(named_percentile("wire.commit_p90_ms"), Some(0.90));
        assert_eq!(named_percentile("peak_rss_mb"), None);
    }
}
