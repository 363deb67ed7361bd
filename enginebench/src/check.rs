//! Shape check of a results file: never absolute speed.
//!
//! A results file passes when every metric its workload reports is present
//! with its unit and sample count, each timing reports its spread
//! (quartiles around the median), a traced run's per-layer self times fit
//! the lane time (no layer negative, root spans inside the lane), and every
//! output check and fingerprint agreed.

use crate::json::Json;
use crate::spec::Spec;

/// Whether a problem [`validate`] reports is an output mismatch rather
/// than a fault in the file's shape.
pub fn is_mismatch(error: &str) -> bool {
    error == "run is not marked correct"
        || error == "failed operations"
        || (error.starts_with("check `") && error.ends_with("` failed"))
}

/// Every problem found in `results`, checked against the specification.
pub fn validate(results: &Json, spec: &Spec) -> Vec<String> {
    let mut errors = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            errors.push(what);
        }
    };

    for key in ["workload", "fingerprint"] {
        need(
            results
                .get(key)
                .and_then(Json::as_str)
                .is_some_and(|s| !s.is_empty()),
            format!("missing `{key}`"),
        );
    }
    need(
        results
            .get("fingerprint")
            .and_then(Json::as_str)
            .is_some_and(|f| f.chars().all(|c| c.is_ascii_hexdigit())),
        "fingerprint is not hex".into(),
    );
    let env = results.get("env");
    for key in ["nproc", "commit", "rustc"] {
        need(
            env.and_then(|e| e.get(key)).is_some(),
            format!("missing env.{key}"),
        );
    }
    need(
        results.get("correct").and_then(Json::as_bool) == Some(true),
        "run is not marked correct".into(),
    );
    need(
        results.get("failed").and_then(Json::as_f64) == Some(0.0),
        "failed operations".into(),
    );
    need(
        results
            .get("attempted")
            .and_then(Json::as_f64)
            .is_some_and(|a| a >= 1.0),
        "nothing attempted".into(),
    );
    match results.get("checks").and_then(Json::as_object) {
        Some(checks) if !checks.is_empty() => {
            for (name, ok) in checks {
                need(ok.as_bool() == Some(true), format!("check `{name}` failed"));
            }
        }
        _ => need(false, "no output checks recorded".into()),
    }

    let e2e = results
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    need(!e2e.is_empty(), "no end-to-end metrics".into());
    for m in e2e {
        let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
        let unit = m.get("unit").and_then(Json::as_str);
        let spec_unit = spec.unit(name);
        need(
            spec_unit.is_some() && unit == spec_unit,
            format!("{name}: unit {unit:?} is not the spec's {spec_unit:?}"),
        );
        let num = |k: &str| m.get(k).and_then(Json::as_f64);
        match (num("value"), num("q1"), num("q3"), num("n")) {
            (Some(v), Some(q1), Some(q3), Some(n)) => {
                let eps = 1e-9 * v.abs().max(1.0);
                need(n >= 1.0, format!("{name}: no samples"));
                need(
                    q1 <= v + eps && v <= q3 + eps,
                    format!("{name}: median {v} outside its quartiles [{q1}, {q3}]"),
                );
            }
            _ => need(
                false,
                format!("{name}: value, quartiles or sample count missing"),
            ),
        }
    }
    let traced = results.get("trace").and_then(Json::as_bool) == Some(true);
    if !traced {
        let workload = results.get("workload").and_then(Json::as_str).unwrap_or("");
        let reports = spec.reports(workload);
        need(
            !reports.is_empty(),
            format!("unknown workload `{workload}`"),
        );
        for name in reports {
            need(
                e2e.iter()
                    .any(|m| m.get("name").and_then(Json::as_str) == Some(name)),
                format!("end-to-end metric {name} missing"),
            );
        }
        let reported = results
            .get("contract")
            .and_then(Json::as_object)
            .unwrap_or(&[]);
        for (name, unit) in &spec.contract {
            let entry = reported.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            need(
                entry.is_some_and(|e| {
                    e.get("value").and_then(Json::as_f64).is_some()
                        && e.get("unit").and_then(Json::as_str) == Some(unit)
                }),
                format!("contract metric {name} missing or without its unit"),
            );
        }
    } else {
        let layers = results
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap_or(&[]);
        for (name, unit) in &spec.per_layer {
            let found = layers
                .iter()
                .find(|l| l.get("name").and_then(Json::as_str) == Some(name));
            need(
                found.is_some_and(|l| {
                    l.get("unit").and_then(Json::as_str) == Some(unit)
                        && l.get("value").and_then(Json::as_f64).is_some()
                }),
                format!("per-layer metric {name} missing or without its unit"),
            );
        }
        match results.get("breakdown") {
            Some(b) => {
                let num = |k: &str| b.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                let (lane, roots, rest) = (num("lane_ns"), num("roots_ns"), num("unattributed_ns"));
                need(lane > 0.0, "breakdown has no lane time".into());
                need(
                    roots <= lane,
                    format!("root spans take {roots} ns, more than the lane time {lane}"),
                );
                need(rest >= 0.0, format!("unattributed time {rest} is negative"));
                match b.get("self_ns").and_then(Json::as_object) {
                    Some(selfs) if !selfs.is_empty() => {
                        for (layer, ns) in selfs {
                            need(
                                ns.as_f64().is_some_and(|ns| ns >= 0.0),
                                format!("self time of {layer} is negative or missing"),
                            );
                        }
                    }
                    _ => need(false, "breakdown has no self times".into()),
                }
                need(
                    b.get("nested").and_then(Json::as_bool) == Some(true),
                    "spans do not nest".into(),
                );
            }
            None => need(false, "traced run without a breakdown".into()),
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn spec() -> Spec {
        Spec::parse(
            r#"{"workloads": [{"name": "conll_mw"}],
                "end_to_end": [{"name": "docs_per_s", "unit": "docs/s"}],
                "per_layer": [{"name": "rel.calls", "unit": "count/doc"}]}"#,
            r#"{"end_to_end": {"failed_share": "fraction"},
                "workloads": {"conll_mw": {"reports": ["docs_per_s", "failed_share"]}}}"#,
        )
        .expect("valid")
    }

    fn good() -> String {
        r#"{"workload": "conll_mw", "fingerprint": "00ff", "trace": true,
            "env": {"nproc": 2, "commit": "unknown", "rustc": "rustc"},
            "correct": true, "attempted": 10, "failed": 0, "checks": {"a": true},
            "end_to_end": [{"name": "docs_per_s", "unit": "docs/s", "value": 5, "q1": 4, "q3": 6, "n": 3},
                           {"name": "failed_share", "unit": "fraction", "value": 0, "q1": 0, "q3": 0, "n": 3}],
            "contract": {"docs_per_s": {"value": 5, "unit": "docs/s"}},
            "per_layer": [{"name": "rel.calls", "unit": "count/doc", "value": 0}],
            "breakdown": {"lane_ns": 100, "roots_ns": 90, "unattributed_ns": 10, "nested": true,
                          "self_ns": {"runner": 50, "serve": 40}}}"#
            .to_string()
    }

    #[test]
    fn accepts_a_well_formed_results_file() {
        let errors = validate(&parse(&good()).expect("valid"), &spec());
        assert!(errors.is_empty(), "{errors:?}");
        // Untraced, the same file needs every reported metric and no
        // per-layer block.
        let untraced = good().replace(r#""trace": true"#, r#""trace": false"#);
        let errors = validate(&parse(&untraced).expect("valid"), &spec());
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn rejects_missing_spread_units_and_unreconciled_breakdowns() {
        let cases = [
            (r#""q1": 4"#, r#""q1": 5.5"#, "outside its quartiles"),
            (
                r#""unit": "docs/s", "value": 5, "q1""#,
                r#""unit": "ms", "value": 5, "q1""#,
                "unit",
            ),
            (r#""roots_ns": 90"#, r#""roots_ns": 120"#, "lane time"),
            (r#""runner": 50"#, r#""runner": -5"#, "self time of runner"),
            (r#""nested": true"#, r#""nested": false"#, "do not nest"),
            (
                r#""checks": {"a": true}"#,
                r#""checks": {"a": false}"#,
                "check `a` failed",
            ),
            (
                r#""per_layer": [{"name": "rel.calls""#,
                r#""per_layer": [{"name": "rel.other""#,
                "rel.calls",
            ),
            (r#", "n": 3}"#, "}", "sample count"),
        ];
        for (from, to, expect) in cases {
            let text = good().replace(from, to);
            let errors = validate(&parse(&text).expect("valid"), &spec());
            assert!(
                errors.iter().any(|e| e.contains(expect)),
                "{expect}: {errors:?}"
            );
        }
        // An untraced run must report every metric its workload names.
        let untraced = good()
            .replace(r#""trace": true"#, r#""trace": false"#)
            .replace(r#""name": "failed_share""#, r#""name": "other""#);
        let errors = validate(&parse(&untraced).expect("valid"), &spec());
        assert!(
            errors.iter().any(|e| e.contains("failed_share missing")),
            "{errors:?}"
        );
    }
}
