//! The benchmark's specification, compiled in.
//!
//! `BENCHMARK.json` at the repository root names the contract end-to-end
//! metrics and the per-layer metrics, with their units. `spec.json` holds
//! everything else: the workloads with their sizes, rates and the
//! end-to-end metrics each reports, the units of the end-to-end metrics
//! outside the contract, and the layer-to-metric predictions.

use crate::json::{parse, Json};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
const SPEC: &str = include_str!("../spec.json");

/// A metric name with its unit.
pub type Named = (String, String);

#[derive(Debug)]
pub struct Spec {
    /// The contract end-to-end metrics, in `BENCHMARK.json` order.
    pub contract: Vec<Named>,
    /// Every end-to-end metric: the contract's, then `spec.json`'s.
    pub end_to_end: Vec<Named>,
    /// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
    pub per_layer: Vec<Named>,
    /// `spec.json` as parsed.
    pub json: Json,
}

fn named(list: &[Json]) -> Result<Vec<Named>, String> {
    list.iter()
        .map(|m| Ok((m.str("name")?.to_string(), m.str("unit")?.to_string())))
        .collect()
}

impl Spec {
    /// The compiled-in specification.
    pub fn compiled() -> Spec {
        Spec::parse(BENCHMARK, SPEC).unwrap_or_else(|e| panic!("benchmark specification: {e}"))
    }

    /// Reads the two files and checks that they fit together: every
    /// workload `BENCHMARK.json` names is defined, every metric a workload
    /// reports has a unit, and every metric a prediction names is a
    /// per-layer metric.
    pub fn parse(benchmark: &str, spec: &str) -> Result<Spec, String> {
        let bench = parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let json = parse(spec).map_err(|e| format!("spec.json: {e}"))?;
        let contract = named(bench.arr("end_to_end")?)?;
        let per_layer = named(bench.arr("per_layer")?)?;
        let mut end_to_end = contract.clone();
        let extra = json
            .get("end_to_end")
            .and_then(Json::as_object)
            .ok_or("spec.json: missing object `end_to_end`")?;
        for (name, unit) in extra {
            if end_to_end.iter().any(|(n, _)| n == name) {
                return Err(format!("spec.json gives {name} a unit again"));
            }
            let unit = unit.as_str().ok_or(format!("spec.json: unit of {name}"))?;
            end_to_end.push((name.clone(), unit.to_string()));
        }
        let spec = Spec {
            contract,
            end_to_end,
            per_layer,
            json,
        };
        for w in bench.arr("workloads")? {
            let name = w.str("name")?;
            if spec.workload(name).is_none() {
                return Err(format!("workload {name} is not defined in spec.json"));
            }
        }
        for (name, w) in spec
            .json
            .get("workloads")
            .and_then(Json::as_object)
            .unwrap_or(&[])
        {
            let reports = w.arr("reports").map_err(|e| format!("{name}: {e}"))?;
            for metric in reports {
                let metric = metric.as_str().unwrap_or("?");
                if spec.unit(metric).is_none() {
                    return Err(format!("{name} reports {metric}, which has no unit"));
                }
            }
        }
        let predictions = spec.json.get("predictions").and_then(Json::as_array);
        for p in predictions.unwrap_or(&[]) {
            for metric in p.arr("metrics")? {
                let metric = metric.as_str().unwrap_or("?");
                if !spec.per_layer.iter().any(|(n, _)| n == metric) {
                    return Err(format!("prediction names {metric}, not a per-layer metric"));
                }
            }
        }
        Ok(spec)
    }

    /// The unit of an end-to-end metric.
    pub fn unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, u)| u.as_str())
    }

    /// A workload's entry of `spec.json`.
    pub fn workload(&self, name: &str) -> Option<&Json> {
        self.json.get("workloads").and_then(|w| w.get(name))
    }

    /// The end-to-end metrics an untraced run of `workload` reports.
    pub fn reports(&self, workload: &str) -> Vec<&str> {
        self.workload(workload)
            .and_then(|w| w.get("reports"))
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_str)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_files_fit_together() {
        let spec = Spec::compiled();
        assert!(spec
            .contract
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(!spec.per_layer.is_empty());
        for (name, _) in &spec.contract {
            for w in ["conll_mw", "serve_wp", "news_stream"] {
                let mapped = spec
                    .workload(w)
                    .and_then(|s| s.get("contract_map"))
                    .and_then(|m| m.get(name))
                    .and_then(Json::as_str)
                    .unwrap_or(name);
                assert!(
                    spec.reports(w).contains(&mapped),
                    "{w} does not report {mapped}, its {name}"
                );
            }
        }
    }

    #[test]
    fn rejects_files_that_do_not_fit_together() {
        let bench = r#"{"workloads": [{"name": "a"}],
            "end_to_end": [{"name": "x", "unit": "s"}],
            "per_layer": [{"name": "l", "unit": "ns"}]}"#;
        let ok = r#"{"end_to_end": {"y": "ms"}, "workloads": {"a": {"reports": ["x", "y"]}},
            "predictions": [{"metrics": ["l"]}]}"#;
        assert!(Spec::parse(bench, ok).is_ok());
        for (from, to) in [
            (r#""y": "ms""#, r#""x": "ms""#),
            (r#""a": {"#, r#""b": {"#),
            (r#""x", "y""#, r#""x", "z""#),
            (r#"["l"]"#, r#"["x"]"#),
        ] {
            assert!(Spec::parse(bench, &ok.replace(from, to)).is_err(), "{to}");
        }
    }
}
