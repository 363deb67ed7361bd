//! Throughput benchmark of the parallel disambiguation engine.
//!
//! Runs full AIDA (with a cached Milne–Witten measure) over the CoNLL-like
//! corpus at several thread counts and reports docs/sec and mentions/sec per
//! count, the speedup relative to one thread, and the relatedness-cache hit
//! rate. The sweep runs through the `Arc<FrozenKb>` read path (the service
//! configuration). Also times keyphrase similarity alone (every candidate
//! of every mention through `simscores_batch_into`) and asserts that every
//! thread count produces byte-identical outcomes. Results are printed as a
//! table and written to `BENCH_throughput.json`, `BENCH_kb_memory.json`,
//! and `metrics.json` in the working directory.
//!
//! Each sweep run carries its own [`ned_obs::Metrics`] registry; the bench
//! asserts that the full metrics snapshot — every counter and histogram
//! bucket — is identical across thread counts (the observability layer's
//! determinism contract), and that a metrics-disabled run produces
//! byte-identical annotations to the instrumented ones (the zero-overhead
//! contract).
//!
//! Because the harness installs the counting allocator (see
//! `ned_obs::alloc`), every stage also reports its allocation-event count:
//! per-run `allocs_per_doc` columns, and a dedicated batched-scoring stage
//! that certifies the steady-state hot path allocates ~nothing per mention.
//! The single-threaded stage figures feed the shrink-only `alloc.toml`
//! ratchet (checked by the `alloc_check` binary in CI).

use std::time::Instant;

use ned_kb::FrozenKbStats;
use ned_obs::{Metrics, MetricsSnapshot};

use ned_aida::context::DocumentContext;
use ned_aida::similarity::simscores_batch_into;
use ned_aida::{AidaConfig, Disambiguator, KeywordWeighting, SimObs};
use ned_eval::report::{num, Table};
use ned_relatedness::{CachedRelatedness, MilneWitten};

use crate::alloc_events;
use crate::runner::{run_method_with_threads, Evaluation};
use crate::setup::{Env, Scale};

/// A mention's context window plus its candidate entities.
type SimCase = (Vec<(usize, ned_kb::WordId)>, Vec<ned_kb::EntityId>);

/// One thread-count measurement.
#[derive(Debug, Clone, Copy)]
struct Run {
    threads: usize,
    seconds: f64,
    docs_per_sec: f64,
    mentions_per_sec: f64,
    speedup: f64,
    cache_hit_rate: f64,
    failed_docs: usize,
    degraded_docs: usize,
    /// Allocation events during the pipeline pass (process-global delta at
    /// quiescent points; exact at 1 thread, scheduling-dependent above).
    alloc_events: u64,
    allocs_per_doc: f64,
}

/// One stage's allocation accounting for the report and the ratchet.
#[derive(Debug, Clone, Copy)]
struct StageAlloc {
    stage: &'static str,
    alloc_events: u64,
    /// What `per_unit` divides by ("doc", "mention").
    unit: &'static str,
    per_unit: f64,
}

/// Byte-level equality of two evaluations (labels, confidence bits, and
/// per-document status).
fn identical(a: &Evaluation, b: &Evaluation) -> bool {
    a.docs.len() == b.docs.len()
        && a.docs.iter().zip(&b.docs).all(|(x, y)| {
            x.gold == y.gold
                && x.predicted == y.predicted
                && x.status == y.status
                && x.confidence.len() == y.confidence.len()
                && x.confidence
                    .iter()
                    .zip(&y.confidence)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Runs the throughput benchmark.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let corpus = env.conll(scale);
    let docs = &corpus.docs;
    let mention_count: usize = docs.iter().map(|d| d.mentions.len()).sum();

    let thread_counts = [1usize, 2, 4, 8];
    let mut runs: Vec<Run> = Vec::new();
    let mut baseline: Option<Evaluation> = None;
    let mut deterministic = true;
    let mut snapshot: Option<MetricsSnapshot> = None;
    let mut metrics_deterministic = true;

    for &threads in &thread_counts {
        // Fresh cache and metrics registry per run so the hit rate and
        // counters reflect one pass. The sweep runs over the frozen columnar
        // KB behind a shared `Arc` handle. The default null clock keeps span
        // sums at zero, so the whole snapshot (histograms included) must be
        // identical across thread counts.
        let metrics = Metrics::new();
        let cached =
            CachedRelatedness::with_metrics(MilneWitten::new(env.frozen.clone()), &metrics);
        let aida = Disambiguator::new(env.frozen.clone(), &cached, AidaConfig::full())
            .with_metrics(&metrics);
        let alloc_before = alloc_events();
        let start = Instant::now();
        let eval = run_method_with_threads(&aida, docs, threads)
            .unwrap_or_else(|e| panic!("cannot build {threads}-thread pool: {e}"));
        let seconds = start.elapsed().as_secs_f64();
        let run_allocs = alloc_events() - alloc_before;
        eval.record_metrics(&metrics);
        let failed_docs = eval.failed_count();
        let degraded_docs = eval.degraded_count();
        match &baseline {
            None => baseline = Some(eval),
            Some(b) => {
                if !identical(b, &eval) {
                    deterministic = false;
                }
            }
        }
        let snap = metrics.snapshot();
        match &snapshot {
            None => snapshot = Some(snap),
            Some(first) => {
                if *first != snap {
                    metrics_deterministic = false;
                }
            }
        }
        let speedup = runs.first().map_or(1.0, |r0| r0.seconds / seconds);
        runs.push(Run {
            threads,
            seconds,
            docs_per_sec: docs.len() as f64 / seconds,
            mentions_per_sec: mention_count as f64 / seconds,
            speedup,
            cache_hit_rate: cached.hit_rate(),
            failed_docs,
            degraded_docs,
            alloc_events: run_allocs,
            allocs_per_doc: run_allocs as f64 / docs.len() as f64,
        });
    }
    assert!(deterministic, "thread counts produced diverging outcomes");
    assert!(metrics_deterministic, "thread counts produced diverging metrics snapshots");

    // Zero-overhead contract: a disabled registry must not change a single
    // output bit, and its wall time bounds the instrumentation cost.
    let metrics_off_seconds = {
        let cached = CachedRelatedness::new(MilneWitten::new(env.frozen.clone()));
        let aida = Disambiguator::new(env.frozen.clone(), &cached, AidaConfig::full());
        let start = Instant::now();
        let eval = run_method_with_threads(&aida, docs, 1)
            .unwrap_or_else(|e| panic!("cannot build 1-thread pool: {e}"));
        let seconds = start.elapsed().as_secs_f64();
        let Some(b) = baseline.as_ref() else {
            unreachable!("the thread sweep runs at least once")
        };
        assert!(identical(b, &eval), "disabled metrics changed annotation output");
        seconds
    };
    let metrics_on_seconds = runs.first().map_or(0.0, |r| r.seconds);
    let metrics_overhead = if metrics_off_seconds > 0.0 {
        metrics_on_seconds / metrics_off_seconds
    } else {
        1.0
    };

    // Keyphrase similarity alone: every mention's candidates, scored over
    // the frozen read path.
    let fkb = &env.frozen;
    let contexts: Vec<SimCase> = docs
        .iter()
        .flat_map(|d| {
            let ctx = DocumentContext::build(fkb, &d.tokens);
            d.mentions
                .iter()
                .map(|m| {
                    let cands =
                        fkb.candidates(&m.mention.surface).iter().map(|c| c.entity).collect();
                    (ctx.for_mention(&m.mention), cands)
                })
                .collect::<Vec<_>>()
        })
        .collect();

    // The batched scorer, run twice over the whole corpus on one thread:
    // the first pass grows the per-thread arena to its high-water mark, the
    // second must be allocation-free — the zero-allocation hot-path claim,
    // measured rather than asserted by construction. Scores from both
    // passes must agree bitwise (scratch reuse cannot change a bit).
    let batched_metrics = Metrics::new();
    let batched_obs = SimObs::new(&batched_metrics);
    let mut batched_out: Vec<f64> = Vec::new();
    let time_batched = |out: &mut Vec<f64>| -> (f64, u64, f64) {
        let alloc_before = alloc_events();
        let start = Instant::now();
        let mut acc = 0.0;
        for (ctx, cands) in &contexts {
            simscores_batch_into(fkb, cands, ctx, KeywordWeighting::Npmi, &batched_obs, out);
            acc = out.iter().fold(acc, |a, &s| a + s);
        }
        std::hint::black_box(acc);
        (start.elapsed().as_secs_f64(), alloc_events() - alloc_before, acc)
    };
    let (_batched_warm_s, batched_warm_allocs, warm_acc) = time_batched(&mut batched_out);
    let (batched_steady_s, batched_steady_allocs, steady_acc) = time_batched(&mut batched_out);
    assert!(
        warm_acc.to_bits() == steady_acc.to_bits(),
        "scratch reuse changed batched scores: {warm_acc} vs {steady_acc}"
    );
    let steady_sim_allocs_per_mention = if contexts.is_empty() {
        0.0
    } else {
        batched_steady_allocs as f64 / contexts.len() as f64
    };

    let per = |events: u64, n: usize| if n == 0 { 0.0 } else { events as f64 / n as f64 };
    let alloc_stages = [
        StageAlloc {
            stage: "pipeline_1_thread",
            alloc_events: runs.first().map_or(0, |r| r.alloc_events),
            unit: "doc",
            per_unit: runs.first().map_or(0.0, |r| r.allocs_per_doc),
        },
        StageAlloc {
            stage: "sim_batched_warmup",
            alloc_events: batched_warm_allocs,
            unit: "mention",
            per_unit: per(batched_warm_allocs, contexts.len()),
        },
        StageAlloc {
            stage: "sim_batched_steady",
            alloc_events: batched_steady_allocs,
            unit: "mention",
            per_unit: steady_sim_allocs_per_mention,
        },
    ];

    let mut table = Table::new(
        "Throughput — full AIDA over the CoNLL-like corpus",
        &[
            "threads",
            "seconds",
            "docs/s",
            "mentions/s",
            "speedup",
            "cache hit rate",
            "failed",
            "degraded",
            "allocs/doc",
        ],
    );
    for r in &runs {
        table.add_row(vec![
            r.threads.to_string(),
            num(r.seconds, 3),
            num(r.docs_per_sec, 1),
            num(r.mentions_per_sec, 1),
            num(r.speedup, 2),
            num(r.cache_hit_rate, 3),
            r.failed_docs.to_string(),
            r.degraded_docs.to_string(),
            num(r.allocs_per_doc, 1),
        ]);
    }
    print!("{}", table.render());
    println!(
        "keyphrase similarity: {batched_steady_s:.3}s over {} mentions; \
         deterministic across thread counts: {deterministic}",
        contexts.len()
    );
    println!(
        "allocations: steady-state batched scoring {batched_steady_allocs} events over {} \
         mentions ({steady_sim_allocs_per_mention:.4}/mention; warmup pass {batched_warm_allocs})",
        contexts.len()
    );
    println!(
        "metrics: snapshot identical across thread counts: {metrics_deterministic}; \
         metrics-off 1-thread {metrics_off_seconds:.3}s vs on {metrics_on_seconds:.3}s \
         ({metrics_overhead:.2}x)"
    );

    let Some(snapshot) = snapshot else {
        unreachable!("the thread sweep runs at least once")
    };
    let kb_stats = *env.frozen.stats();
    let json = render_json(
        docs.len(),
        mention_count,
        &runs,
        batched_steady_s,
        deterministic,
        &kb_stats,
        &snapshot,
        metrics_deterministic,
        metrics_off_seconds,
        metrics_overhead,
        &alloc_stages,
    );
    let path = "BENCH_throughput.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let memory_json = kb_memory_json(&kb_stats);
    let memory_path = "BENCH_kb_memory.json";
    match std::fs::write(memory_path, &memory_json) {
        Ok(()) => println!("wrote {memory_path}"),
        Err(e) => eprintln!("could not write {memory_path}: {e}"),
    }
    let metrics_path = "metrics.json";
    match std::fs::write(metrics_path, snapshot.to_json()) {
        Ok(()) => println!("wrote {metrics_path}"),
        Err(e) => eprintln!("could not write {metrics_path}: {e}"),
    }
}

/// The `FrozenKbStats` section breakdown as a JSON object body (shared by
/// both benchmark reports).
fn kb_stats_json(s: &FrozenKbStats, indent: &str) -> String {
    let mut out = String::new();
    let mut field = |name: &str, value: usize| {
        out.push_str(&format!("{indent}\"{name}\": {value},\n"));
    };
    field("entity_count", s.entity_count);
    field("entity_bytes", s.entity_bytes);
    field("dictionary_surfaces", s.dictionary_surfaces);
    field("dictionary_pairs", s.dictionary_pairs);
    field("dictionary_bytes", s.dictionary_bytes);
    field("link_edges", s.link_edges);
    field("link_bytes", s.link_bytes);
    field("word_count", s.word_count);
    field("phrase_count", s.phrase_count);
    field("keyphrase_entries", s.keyphrase_entries);
    field("keyphrase_bytes", s.keyphrase_bytes);
    field("weight_bytes", s.weight_bytes);
    field("phrase_run_bytes", s.phrase_run_bytes);
    field("transient_index_bytes", s.transient_index_bytes);
    out.push_str(&format!("{indent}\"total_bytes\": {}\n", s.total_bytes));
    out
}

/// Renders `BENCH_kb_memory.json`: the frozen KB's per-section footprint.
fn kb_memory_json(s: &FrozenKbStats) -> String {
    let mut out = String::from("{\n  \"frozen_kb\": {\n");
    out.push_str(&kb_stats_json(s, "    "));
    out.push_str("  }\n}\n");
    out
}

/// The counters of a metrics snapshot as a JSON object body.
fn metrics_counters_json(snapshot: &MetricsSnapshot, indent: &str) -> String {
    let mut out = String::new();
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        let sep = if i + 1 < snapshot.counters.len() { "," } else { "" };
        out.push_str(&format!("{indent}\"{name}\": {value}{sep}\n"));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    doc_count: usize,
    mention_count: usize,
    runs: &[Run],
    batched_seconds: f64,
    deterministic: bool,
    kb_stats: &FrozenKbStats,
    snapshot: &MetricsSnapshot,
    metrics_deterministic: bool,
    metrics_off_seconds: f64,
    metrics_overhead: f64,
    alloc_stages: &[StageAlloc],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"corpus\": \"conll-like\",\n");
    out.push_str(&format!("  \"docs\": {doc_count},\n"));
    out.push_str(&format!("  \"mentions\": {mention_count},\n"));
    out.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"seconds\": {:.6}, \"docs_per_sec\": {:.3}, \
             \"mentions_per_sec\": {:.3}, \"speedup_vs_1_thread\": {:.3}, \
             \"cache_hit_rate\": {:.4}, \"failed_docs\": {}, \"degraded_docs\": {}, \
             \"alloc_events\": {}, \"allocs_per_doc\": {:.1}}}{}\n",
            r.threads,
            r.seconds,
            r.docs_per_sec,
            r.mentions_per_sec,
            r.speedup,
            r.cache_hit_rate,
            r.failed_docs,
            r.degraded_docs,
            r.alloc_events,
            r.allocs_per_doc,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"keyphrase_index\": {{\"batched_seconds\": {batched_seconds:.6}}},\n"
    ));
    out.push_str("  \"allocations\": {\n    \"stages\": [\n");
    for (i, s) in alloc_stages.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"stage\": \"{}\", \"alloc_events\": {}, \"unit\": \"{}\", \
             \"per_unit\": {:.4}}}{}\n",
            s.stage,
            s.alloc_events,
            s.unit,
            s.per_unit,
            if i + 1 < alloc_stages.len() { "," } else { "" }
        ));
    }
    let steady = alloc_stages
        .iter()
        .find(|s| s.stage == "sim_batched_steady")
        .map_or(0.0, |s| s.per_unit);
    out.push_str("    ],\n");
    out.push_str(&format!(
        "    \"steady_state_sim_allocs_per_mention\": {steady:.4}\n  }},\n"
    ));
    out.push_str("  \"frozen_kb\": {\n");
    out.push_str(&kb_stats_json(kb_stats, "    "));
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"metrics_overhead\": {{\"on_seconds\": {:.6}, \"off_seconds\": \
         {metrics_off_seconds:.6}, \"ratio\": {metrics_overhead:.3}}},\n",
        runs.first().map_or(0.0, |r| r.seconds)
    ));
    out.push_str("  \"metrics\": {\n");
    out.push_str(&metrics_counters_json(snapshot, "    "));
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"metrics_deterministic_across_thread_counts\": {metrics_deterministic},\n"
    ));
    out.push_str(&format!("  \"deterministic_across_thread_counts\": {deterministic}\n"));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_enough() {
        let runs = vec![
            Run {
                threads: 1,
                seconds: 2.0,
                docs_per_sec: 10.0,
                mentions_per_sec: 50.0,
                speedup: 1.0,
                cache_hit_rate: 0.5,
                failed_docs: 2,
                degraded_docs: 1,
                alloc_events: 4000,
                allocs_per_doc: 200.0,
            },
            Run {
                threads: 4,
                seconds: 1.0,
                docs_per_sec: 20.0,
                mentions_per_sec: 100.0,
                speedup: 2.0,
                cache_hit_rate: 0.5,
                failed_docs: 2,
                degraded_docs: 1,
                alloc_events: 4400,
                allocs_per_doc: 220.0,
            },
        ];
        let stats = FrozenKbStats { entity_count: 7, total_bytes: 4096, ..Default::default() };
        let metrics = Metrics::new();
        metrics.counter("aida_docs").add(20);
        metrics.counter("doc_status_ok").add(18);
        let snapshot = metrics.snapshot();
        let stages = [
            StageAlloc {
                stage: "pipeline_1_thread",
                alloc_events: 4000,
                unit: "doc",
                per_unit: 200.0,
            },
            StageAlloc {
                stage: "sim_batched_steady",
                alloc_events: 0,
                unit: "mention",
                per_unit: 0.0,
            },
        ];
        let json =
            render_json(20, 100, &runs, 0.5, true, &stats, &snapshot, true, 1.9, 1.05, &stages);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"failed_docs\": 2"));
        assert!(json.contains("\"degraded_docs\": 1"));
        assert!(json.contains("\"allocs_per_doc\": 200.0"));
        assert!(json.contains("\"entity_count\": 7"));
        assert!(json.contains("\"phrase_run_bytes\": 0"));
        assert!(json.contains("\"total_bytes\": 4096"));
        assert!(json.contains("\"deterministic_across_thread_counts\": true"));
        assert!(json.contains("\"metrics_deterministic_across_thread_counts\": true"));
        assert!(json.contains("\"aida_docs\": 20"));
        assert!(json.contains("\"doc_status_ok\": 18"));
        assert!(json.contains("\"off_seconds\": 1.900000"));
        assert!(!json.contains("pinned_baseline"));
        assert!(json.contains("\"batched_seconds\": 0.500000"));
        assert!(json.contains("\"stage\": \"sim_batched_steady\""));
        assert!(json.contains("\"steady_state_sim_allocs_per_mention\": 0.0000"));
        // No trailing comma at the end of the embedded counters object.
        assert!(!json.contains(",\n  }"));
    }

    #[test]
    fn alloc_events_is_monotone_and_counting() {
        let before = alloc_events();
        let v: Vec<u64> = (0..256).collect();
        std::hint::black_box(&v);
        let after = alloc_events();
        assert!(after > before, "the counting allocator is installed and counting");
    }

    #[test]
    fn kb_memory_json_is_well_formed() {
        let stats = FrozenKbStats {
            entity_count: 3,
            dictionary_pairs: 9,
            total_bytes: 1234,
            ..Default::default()
        };
        let json = kb_memory_json(&stats);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"frozen_kb\""));
        assert!(json.contains("\"dictionary_pairs\": 9"));
        assert!(json.contains("\"total_bytes\": 1234"));
        // No trailing comma before the closing brace.
        assert!(!json.contains(",\n  }"));
    }
}
