//! The engine benchmark.
//!
//! ```text
//! enginebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! enginebench --check <results.json>...
//! ```
//!
//! A run builds its inputs from the seed, sets up the engine several times
//! (reporting the median set-up time), measures the workload for the given
//! number of seconds, checks the outputs, writes a results file under
//! `out/` in the benchmark's directory, and prints every metric with its
//! unit and sample count. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end contract metrics with `--trace 0`, every per-layer metric
//! with `--trace 1`. Any output mismatch makes the exit code non-zero.
//!
//! `--check` validates results files by shape only (see [`check`]).

mod batch;
mod check;
mod common;
mod json;
mod probes;
mod serve;
mod spec;
mod stats;
mod stream;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{peak_rss_mb, per, Ctx, Outcome};
use json::{obj, Json};
use spec::{Named, Spec};
use stats::Summary;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    check: Vec<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--check" => {
                args.check.push(value()?);
                args.check.extend(it.by_ref().cloned());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The commit under test, from `BENCH_COMMIT` ("unknown" when unset: the
/// benchmark does not look outside its checkout to find it).
fn commit() -> String {
    std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string())
}

fn unit_of<'a>(spec: &'a Spec, name: &str) -> &'a str {
    spec.unit(name)
        .unwrap_or_else(|| panic!("no unit for end-to-end metric {name}"))
}

fn summary_json(name: &str, unit: &str, s: &Summary) -> Json {
    obj([
        ("name", Json::Str(name.to_string())),
        ("unit", Json::Str(unit.to_string())),
        ("value", Json::Num(s.value)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
    ])
}

fn run_check(files: &[String], spec: &Spec) -> ExitCode {
    let mut ok = true;
    for file in files {
        let errors = match std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t))
        {
            Ok(results) => check::validate(&results, spec),
            Err(e) => vec![format!("cannot read: {e}")],
        };
        if errors.is_empty() {
            println!("ok    {file}");
        } else {
            ok = false;
            println!("FAIL  {file}");
            for e in errors {
                println!("      {e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::compiled();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("enginebench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.check.is_empty() {
        return run_check(&args.check, &spec);
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) =
        (args.workload, args.seed, args.seconds, args.trace)
    else {
        eprintln!("usage: enginebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        eprintln!("       enginebench --check <results.json>...");
        return ExitCode::from(2);
    };
    let Some(workload_spec) = spec.workload(&workload).cloned() else {
        eprintln!("enginebench: unknown workload {workload}");
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
        nproc,
        spec: workload_spec,
        world_spec: spec.json.get("world").cloned().expect("spec.json world"),
    };

    let mut outcome: Outcome = match workload.as_str() {
        "conll_mw" => batch::run(&ctx, batch::Kind::ConllMw),
        "kore50_kore" => batch::run(&ctx, batch::Kind::Kore50Kore),
        "serve_wp" => serve::run(&ctx),
        "news_stream" => stream::run(&ctx),
        other => {
            eprintln!("enginebench: workload {other} has no runner");
            return ExitCode::from(2);
        }
    };
    let failed_checks = outcome.checks.iter().filter(|(_, ok)| !ok).count() as u64;
    let failed = outcome.failed.max(failed_checks);
    let attempted = outcome.attempted.max(1);
    outcome.metric(
        "failed_share",
        Summary::single(per(failed as f64, attempted as f64), attempted as usize),
    );
    let peak = outcome.peak_rss_mb.unwrap_or_else(peak_rss_mb);
    outcome.metric("peak_rss_mb", Summary::single(peak, 1));
    let correct = failed == 0 && failed_checks == 0;

    let contract_map = ctx.spec.get("contract_map");
    let lookup = |name: &str| -> Option<Summary> {
        let source = contract_map
            .and_then(|m| m.get(name))
            .and_then(Json::as_str)
            .unwrap_or(name);
        outcome
            .e2e
            .iter()
            .find(|(n, _)| n == source)
            .map(|(_, s)| *s)
    };

    // Human-readable report.
    println!(
        "enginebench {workload} seed={seed} seconds={seconds} trace={} nproc={nproc}",
        u8::from(trace)
    );
    for (name, s) in &outcome.e2e {
        println!(
            "  {name:<24} {:>14.6} {:<9} n={:<7} q1={:.6} q3={:.6}",
            s.value,
            unit_of(&spec, name),
            s.n,
            s.q1,
            s.q3
        );
    }
    for (name, ok) in &outcome.checks {
        println!("  check {name}: {}", if *ok { "ok" } else { "MISMATCH" });
    }

    let mut layer_values: Vec<(String, String, f64)> = spec
        .per_layer
        .iter()
        .map(|(n, u): &Named| (n.clone(), u.clone(), 0.0))
        .collect();
    if trace {
        if let Some(b) = &outcome.breakdown {
            for layer in trace::Layer::ALL {
                outcome
                    .layers
                    .push((format!("self.{}", layer.key()), b.share(layer)));
            }
            outcome
                .layers
                .push(("trace.unattributed_share".into(), b.unattributed_share()));
        }
        for (name, value) in &outcome.layers {
            match layer_values.iter_mut().find(|(n, _, _)| n == name) {
                Some(slot) => slot.2 = *value,
                None => panic!("per-layer metric {name} is not named in BENCHMARK.json"),
            }
        }
        for (name, unit, value) in &layer_values {
            println!("  layer {name:<30} {value:>16.4} {unit}");
        }
    }

    // Results file.
    let mut contract = Vec::new();
    for (name, unit) in spec.contract.iter().filter(|_| !trace) {
        let Some(s) = lookup(name) else {
            panic!("workload {workload} produced no value for contract metric {name}");
        };
        contract.push((
            name.clone(),
            obj([
                ("value", Json::Num(s.value)),
                ("unit", Json::Str(unit.clone())),
            ]),
        ));
    }
    let mut results = vec![
        ("benchmark".to_string(), Json::Str("enginebench".into())),
        ("workload".into(), Json::Str(workload.clone())),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("trace".into(), Json::Bool(trace)),
        (
            "env".into(),
            obj([
                ("nproc", Json::Num(nproc as f64)),
                ("commit", Json::Str(commit())),
                (
                    "os",
                    Json::Str(format!(
                        "{}-{}",
                        std::env::consts::OS,
                        std::env::consts::ARCH
                    )),
                ),
                ("rustc", Json::Str(env!("BENCH_RUSTC_VERSION").to_string())),
            ]),
        ),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "checks".into(),
            Json::Obj(
                outcome
                    .checks
                    .iter()
                    .map(|(n, ok)| (n.clone(), Json::Bool(*ok)))
                    .collect(),
            ),
        ),
        ("fingerprint".into(), Json::Str(outcome.fingerprint.clone())),
        (
            "end_to_end".into(),
            Json::Arr(
                outcome
                    .e2e
                    .iter()
                    .map(|(n, s)| summary_json(n, unit_of(&spec, n), s))
                    .collect(),
            ),
        ),
        ("contract".into(), Json::Obj(contract)),
    ];
    if trace {
        results.push((
            "per_layer".into(),
            Json::Arr(
                layer_values
                    .iter()
                    .map(|(n, u, v)| {
                        obj([
                            ("name", Json::Str(n.clone())),
                            ("unit", Json::Str(u.clone())),
                            ("value", Json::Num(*v)),
                        ])
                    })
                    .collect(),
            ),
        ));
        if let Some(b) = &outcome.breakdown {
            results.push((
                "breakdown".into(),
                obj([
                    ("lane_ns", Json::Num(b.lane_ns as f64)),
                    ("roots_ns", Json::Num(b.roots_ns as f64)),
                    ("unattributed_ns", Json::Num(b.unattributed_ns as f64)),
                    ("nested", Json::Bool(b.nested)),
                    (
                        "self_ns",
                        Json::Obj(
                            b.self_ns
                                .iter()
                                .map(|(l, ns)| (l.key().to_string(), Json::Num(*ns as f64)))
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
    }
    results.push((
        "detail".into(),
        Json::Obj(std::mem::take(&mut outcome.detail)),
    ));
    let results = Json::Obj(results);

    let dir = out_dir();
    let stem = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.json")), results.render() + "\n")?;
        if trace {
            let lines: String = outcome
                .spans
                .iter()
                .map(|s| trace::span_json(s).render() + "\n")
                .collect();
            std::fs::write(dir.join(format!("{stem}.spans.jsonl")), lines)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "enginebench: cannot write results under {}: {e}",
            dir.display()
        );
        return ExitCode::FAILURE;
    }
    println!("  results: out/{stem}.json");

    // The run's own results file must pass the shape check, mismatches
    // aside (those are reported through `correct` and the exit code).
    let shape_errors: Vec<String> = check::validate(&results, &spec)
        .into_iter()
        .filter(|e| !check::is_mismatch(e))
        .collect();
    for e in &shape_errors {
        eprintln!("enginebench: results file shape: {e}");
    }

    let metrics: Vec<(String, Json)> = if trace {
        layer_values
            .iter()
            .map(|(n, u, v)| {
                (
                    n.clone(),
                    obj([("value", Json::Num(*v)), ("unit", Json::Str(u.clone()))]),
                )
            })
            .collect()
    } else {
        spec.contract
            .iter()
            .map(|(n, u)| {
                let s = lookup(n).expect("checked above");
                (
                    n.clone(),
                    obj([
                        ("value", Json::Num(s.value)),
                        ("unit", Json::Str(u.clone())),
                    ]),
                )
            })
            .collect()
    };
    let line = obj([
        ("correct", Json::Bool(correct && shape_errors.is_empty())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    if correct && shape_errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let a = args("--workload conll_mw --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(3), Some(10.0), Some(true))
        );
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--bogus 1").is_err());
        assert_eq!(
            args("--check a.json b.json").expect("valid").check,
            ["a.json", "b.json"]
        );
    }
}
