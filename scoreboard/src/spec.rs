//! The scoreboard's schema — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — is `BENCHMARK.json` at the repository
//! root, compiled in. The driver, the reports and `compare` all read that
//! one file; nothing here repeats a name, a unit or a bound.

use std::sync::OnceLock;

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name.
    pub name: String,
    /// Unit, as printed beside every value.
    pub unit: String,
    /// Which direction is an improvement.
    pub lower_is_better: bool,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression. Per-layer
    /// metrics carry none and are reported, never judged.
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` says.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The workloads, in the order a full run executes them.
    pub workloads: Vec<String>,
    /// Length of one measured section in seconds; the default of `--seconds`.
    pub run_seconds: f64,
    /// What a client of the service sees; every workload reports every one.
    pub end_to_end: Vec<Metric>,
    /// `<crate>.<thing>_<unit>`, from the traced run. A layer a workload
    /// does not reach reports 0.
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Reads the schema out of the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let json = Json::parse(text)?;
        let list = |key: &str| {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))
        };
        let text_of = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key}: {}", entry.render()))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|entry| {
                    let name = text_of(entry, "name")?;
                    let bound = entry.get("bound").and_then(Json::as_f64);
                    if bounded != bound.is_some() {
                        return Err(format!("{key} metric {name}: bound {bound:?}"));
                    }
                    let lower_is_better = match text_of(entry, "better")?.as_str() {
                        "lower" => true,
                        "higher" => false,
                        other => return Err(format!("{name}: better is {other}")),
                    };
                    Ok(Metric {
                        name,
                        unit: text_of(entry, "unit")?,
                        lower_is_better,
                        bound,
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|entry| text_of(entry, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json has no run_seconds")?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// The metric `name` of either table.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The schema this binary was built with.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        Spec::parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

/// The unit of a metric of either table (empty for an unknown name).
pub fn unit_of(name: &str) -> &'static str {
    spec().metric(name).map_or("", |m| m.unit.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The limits the driver refuses a `BENCHMARK.json` over.
    #[test]
    fn benchmark_json_fits_the_contract() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let json = Json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let mut seen = std::collections::BTreeSet::new();
        for workload in json.get("workloads").and_then(Json::as_arr).unwrap() {
            let name = workload.get("name").and_then(Json::as_str).unwrap();
            let why = workload.get("why").and_then(Json::as_str).unwrap();
            assert!(
                valid_name(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
            assert!(seen.insert(name.to_owned()));
        }
        let spec = spec();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = spec.metric("setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.lower_is_better), ("s", true));
        assert_eq!(unit_of("read_p95_us"), "us");
        assert_eq!(unit_of("no.such.metric"), "");
    }

    #[test]
    fn a_metric_list_with_the_wrong_keys_is_refused() {
        let parse = |end_to_end: &str, per_layer: &str| {
            Spec::parse(&format!(
                r#"{{"run_seconds": 5, "workloads": [{{"name": "w", "why": "y"}}],
                    "end_to_end": [{end_to_end}], "per_layer": [{per_layer}]}}"#
            ))
        };
        let bounded = r#"{"name": "a", "unit": "s", "better": "lower", "bound": 0.1}"#;
        let unbounded = r#"{"name": "b", "unit": "s", "better": "higher"}"#;
        let spec = parse(bounded, unbounded).unwrap();
        assert_eq!(spec.workloads, ["w"]);
        assert_eq!(spec.metric("a").unwrap().bound, Some(0.1));
        assert!(!spec.metric("b").unwrap().lower_is_better);
        assert!(parse(unbounded, unbounded).is_err());
        assert!(parse(bounded, bounded).is_err());
        assert!(parse(
            r#"{"name": "a", "unit": "s", "better": "up", "bound": 0.1}"#,
            ""
        )
        .is_err());
    }
}
