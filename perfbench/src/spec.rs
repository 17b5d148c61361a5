//! `BENCHMARK.json`, compiled in: the workloads, metric names, units,
//! directions and regression bounds live in that one file.

use crate::stats::Better;
use surfnet_telemetry::json::Value;

/// The benchmark declaration at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug)]
pub struct MetricSpec {
    /// Metric name as emitted.
    pub name: String,
    /// Unit as emitted.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound, a share of the base value (end-to-end metrics
    /// only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported by untraced runs).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported by traced runs).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics if the file is malformed; the unit tests parse it, so a
    /// broken declaration fails the build's test step, not a run.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    /// Parses a declaration.
    ///
    /// # Errors
    ///
    /// Describes the first missing or ill-typed field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Value::parse(text).map_err(|e| e.to_string())?;
        let field = |v: &Value, key: &str| -> Result<Value, String> {
            v.get(key)
                .cloned()
                .ok_or_else(|| format!("missing `{key}`"))
        };
        let text_of = |v: &Value, key: &str| -> Result<String, String> {
            field(v, key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` is not a string"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            let list = field(&root, key)?;
            let items = list
                .as_array()
                .ok_or_else(|| format!("`{key}` is not an array"))?;
            items
                .iter()
                .map(|m| {
                    let better = text_of(m, "better")?;
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: Better::parse(&better)
                            .ok_or_else(|| format!("bad `better` value {better:?}"))?,
                        bound: if bounded {
                            Some(
                                field(m, "bound")?
                                    .as_f64()
                                    .ok_or("`bound` is not a number")?,
                            )
                        } else {
                            None
                        },
                    })
                })
                .collect()
        };
        let workloads = field(&root, "workloads")?
            .as_array()
            .ok_or("`workloads` is not an array")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// Unit of the declared metric `name`, if declared.
    pub fn unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    #[test]
    fn declaration_stays_within_its_limits() {
        let spec = Spec::load();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let run_seconds = Value::parse(BENCHMARK_JSON)
            .unwrap()
            .get("run_seconds")
            .and_then(Value::as_u64);
        assert!(run_seconds.is_some_and(|s| (1..=60).contains(&s)));
        let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        names.extend(spec.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(spec.per_layer.iter().map(|m| m.name.as_str()));
        for name in &names {
            assert!(valid_name(name), "bad name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!(setup.unit, "s");
        assert_eq!(setup.better, Better::Lower);
        let largest = spec
            .end_to_end
            .iter()
            .map(|m| m.bound.expect("bounded"))
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(largest <= 0.25);
    }

    #[test]
    fn parse_reports_missing_fields() {
        assert!(Spec::parse("{}").unwrap_err().contains("workloads"));
        let no_metrics = r#"{"workloads": [{"name": "fig7"}]}"#;
        assert!(Spec::parse(no_metrics).unwrap_err().contains("end_to_end"));
        assert!(Spec::parse("not json").is_err());
    }
}
