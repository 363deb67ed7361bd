//! Streaming incremental-KB benchmark: discover → promote → re-annotate.
//!
//! Drives the simulated news stream (Ch. 5 world) through the full
//! incremental-KB loop and writes every round to `BENCH_streaming.json`:
//!
//! 1. **Discover** — each stream day is annotated with NED-EE over the
//!    *currently published* KB epoch; mentions labeled out-of-KB feed the
//!    promotion tracker.
//! 2. **Promote** — surfaces meeting the support + confidence policy are
//!    promoted: their mutation sequences are appended to a real on-disk
//!    WAL and merged into a fresh [`DeltaKb`] epoch, published by an
//!    atomic [`KbHandle`] epoch swap (exactly what a serving deployment
//!    does between requests).
//! 3. **Re-annotate** — a fixed evaluation set (every stream document with
//!    a gold emerging mention) is re-annotated under the new epoch;
//!    *emerging-entity linked accuracy* is the fraction of gold-EE
//!    mentions now resolved to their promoted entity. It starts at 0 (no
//!    emerging entity exists in the KB) and must improve as promotions
//!    land — the headline claim of the incremental KB.
//!
//! The run also asserts the subsystem's integrity contracts in-bench:
//! replaying the WAL reproduces the accumulated mutation list exactly, and
//! compacting the final delta epoch yields a [`FrozenKb`] whose
//! re-annotation of the evaluation set is bit-identical to the epoch's. The
//! whole
//! benchmark is pure computation over fixed seeds and is executed twice;
//! the two runs must serialize to byte-identical JSON
//! (`virtual_deterministic`). The `streaming_check` binary re-validates
//! the JSON in CI.

use std::sync::Arc;

use ned_aida::{AidaConfig, Disambiguator, NedMethod};
use ned_emerging::confidence::{ConfAssessor, ConfidenceMethod};
use ned_emerging::discover::{EeConfig, EeDiscovery};
use ned_emerging::ee_model::{EeModelConfig, NameModels};
use ned_emerging::policy::{PromotionPolicy, PromotionTracker};
use ned_eval::gold::GoldDoc;
use ned_kb::{DeltaKb, FrozenKb, KbEpoch, KbHandle, KbMutation, KbView, Wal};
use ned_obs::{names, Metrics, MetricsSnapshot};
use ned_relatedness::MilneWitten;

use crate::setup::{Env, Scale};

/// EE gamma for discovery (mid-grid, as in fig5_4).
const GAMMA: f64 = 0.5;

/// Harvest window: name models are built from the last `WINDOW_DAYS` days
/// up to and including the current one.
const WINDOW_DAYS: u32 = 3;

/// One discover→promote→re-annotate round (one stream day).
#[derive(Debug, Clone, PartialEq)]
struct RoundRow {
    day: u32,
    docs: usize,
    gold_ee_mentions: usize,
    discovered_ee: usize,
    promotions: usize,
    promoted_total: usize,
    delta_entities: usize,
    generation: u64,
    eval_linked: usize,
    eval_total: usize,
    ee_linked_accuracy: f64,
}

/// Everything one full benchmark run produces (compared bitwise across the
/// two invocations).
#[derive(Debug, Clone, PartialEq)]
struct RunOutput {
    rows: Vec<RoundRow>,
    wal_replay_consistent: bool,
    compaction_equivalent: bool,
    snapshot: MetricsSnapshot,
}

/// Annotates the evaluation set under `kb` and counts gold-EE mentions
/// resolved to the entity their surface was promoted as.
fn eval_linked<K: KbView + Clone>(
    kb: K,
    eval_docs: &[GoldDoc],
    tracker: &PromotionTracker,
) -> (usize, usize) {
    let aida = Disambiguator::new(kb.clone(), MilneWitten::new(kb.clone()), AidaConfig::sim_only());
    let mut linked = 0;
    let mut total = 0;
    for doc in eval_docs {
        let mentions = doc.bare_mentions();
        let result = aida.disambiguate(&doc.tokens, &mentions);
        for (labeled, assignment) in doc.mentions.iter().zip(&result.assignments) {
            if labeled.label.is_some() {
                continue; // in-KB mention; not part of the EE metric
            }
            total += 1;
            let Some(promoted_name) = tracker.promoted_as(&labeled.mention.surface) else {
                continue;
            };
            if let Some(entity) = assignment.entity {
                if kb.entity(entity).canonical_name == promoted_name {
                    linked += 1;
                }
            }
        }
    }
    (linked, total)
}

/// Disambiguates the evaluation set and returns the flat assignment list
/// (entity + score bits) — the payload compared for compaction
/// equivalence.
fn assignments_fingerprint<K: KbView + Clone>(
    kb: K,
    eval_docs: &[GoldDoc],
) -> Vec<(usize, Option<u32>, u64)> {
    let aida = Disambiguator::new(kb.clone(), MilneWitten::new(kb), AidaConfig::sim_only());
    let mut out = Vec::new();
    for (d, doc) in eval_docs.iter().enumerate() {
        let mentions = doc.bare_mentions();
        let result = aida.disambiguate(&doc.tokens, &mentions);
        for a in &result.assignments {
            out.push((d, a.entity.map(|e| e.0), a.score.to_bits()));
        }
    }
    out
}

/// One full benchmark run over the stream. Pure over its inputs plus the
/// WAL file at `wal_path` (created fresh; caller cleans up).
fn run_once(env: &Env, stream_docs: &[GoldDoc], n_days: u32, wal_path: &std::path::Path) -> RunOutput {
    let _ = std::fs::remove_file(wal_path);
    let metrics = Metrics::new();
    let (mut wal, _replay) = Wal::open_observed(wal_path, &metrics)
        .unwrap_or_else(|e| panic!("fresh WAL opens: {e}"));

    let handle = Arc::new(KbHandle::observed(
        KbEpoch::Frozen(Arc::clone(&env.frozen)),
        &metrics,
    ));
    let policy = PromotionPolicy::default();
    let mut tracker = PromotionTracker::new();
    let mut accumulated: Vec<KbMutation> = Vec::new();

    // Fixed evaluation set: every stream document containing a gold
    // emerging mention.
    let eval_docs: Vec<GoldDoc> =
        stream_docs.iter().filter(|d| d.out_of_kb_count() > 0).cloned().collect();

    let mut rows = Vec::new();
    for day in 0..n_days {
        let day_docs: Vec<&GoldDoc> =
            stream_docs.iter().filter(|d| d.day == day).collect();
        let (_, epoch) = handle.current();

        // --- discover over the current epoch -----------------------------
        let from = day.saturating_sub(WINDOW_DAYS - 1);
        let window: Vec<&GoldDoc> =
            stream_docs.iter().filter(|d| d.day >= from && d.day <= day).collect();
        let models = NameModels::build(&epoch, &window, 2, &EeModelConfig::default());
        let aida =
            Disambiguator::new(&epoch, MilneWitten::new(&epoch), AidaConfig::sim_only());
        let config = EeConfig {
            gamma: GAMMA,
            assessor: ConfAssessor::new(ConfidenceMethod::Normalized),
            ..EeConfig::default()
        };
        let discovery = EeDiscovery::new(&aida, &models, config);
        let mut discovered_ee = 0;
        for doc in &day_docs {
            let mentions = doc.bare_mentions();
            let (labels, _) = discovery.discover(&doc.tokens, &mentions);
            for (mention, label) in mentions.iter().zip(&labels) {
                if label.is_none() {
                    discovered_ee += 1;
                    // Discovery already thresholded by CONF; each EE label
                    // is one fully-confident support observation.
                    tracker.observe_ee(&mention.surface, 1.0);
                }
            }
        }

        // --- promote: WAL append + delta rebuild + epoch swap ------------
        let promotions = tracker.drain_promotions(&policy, &models, &epoch, &metrics);
        for promotion in &promotions {
            for mutation in &promotion.mutations {
                wal.append(mutation).unwrap_or_else(|e| panic!("WAL append: {e}"));
                accumulated.push(mutation.clone());
            }
        }
        if !promotions.is_empty() {
            let delta = DeltaKb::build_observed(
                Arc::clone(&env.frozen),
                accumulated.clone(),
                &metrics,
            )
            .unwrap_or_else(|e| panic!("promotion mutations apply: {e}"));
            handle.swap(KbEpoch::Delta(Arc::new(delta)));
        }

        // --- re-annotate the fixed evaluation set under the new epoch ----
        let (_, epoch_now) = handle.current();
        let (eval_linked, eval_total) = eval_linked(&epoch_now, &eval_docs, &tracker);
        rows.push(RoundRow {
            day,
            docs: day_docs.len(),
            gold_ee_mentions: day_docs.iter().map(|d| d.out_of_kb_count()).sum(),
            discovered_ee,
            promotions: promotions.len(),
            promoted_total: tracker.promoted_count(),
            delta_entities: epoch_now.delta_entity_count(),
            generation: handle.generation(),
            eval_linked,
            eval_total,
            ee_linked_accuracy: if eval_total == 0 {
                0.0
            } else {
                eval_linked as f64 / eval_total as f64
            },
        });
    }

    // --- integrity: WAL replay reproduces the mutation list -------------
    let bytes = std::fs::read(wal_path).unwrap_or_else(|e| panic!("read WAL back: {e}"));
    let replay =
        ned_kb::wal::replay(&bytes).unwrap_or_else(|e| panic!("clean WAL replays: {e}"));
    let wal_replay_consistent = replay.mutations == accumulated;

    // --- integrity: compaction is observationally equivalent -------------
    let (_, final_epoch) = handle.current();
    let compaction_equivalent = match final_epoch.as_ref() {
        KbEpoch::Frozen(_) => accumulated.is_empty(),
        KbEpoch::Delta(delta) => {
            let compacted: Arc<FrozenKb> = Arc::new(
                delta.compact().unwrap_or_else(|e| panic!("compaction succeeds: {e}")),
            );
            assignments_fingerprint(&final_epoch, &eval_docs)
                == assignments_fingerprint(&compacted, &eval_docs)
        }
    };

    RunOutput { rows, wal_replay_consistent, compaction_equivalent, snapshot: metrics.snapshot() }
}

fn render_json(output: &RunOutput, virtual_deterministic: bool) -> String {
    let mut out = String::from("{\n");
    let accuracy_monotone = output
        .rows
        .windows(2)
        .all(|w| w[1].ee_linked_accuracy >= w[0].ee_linked_accuracy);
    let improved = match (output.rows.first(), output.rows.last()) {
        (Some(first), Some(last)) => last.ee_linked_accuracy > first.ee_linked_accuracy
            || (first.promotions > 0 && last.ee_linked_accuracy > 0.0),
        _ => false,
    };
    out.push_str(&format!("  \"virtual_deterministic\": {virtual_deterministic},\n"));
    out.push_str(&format!("  \"accuracy_monotone\": {accuracy_monotone},\n"));
    out.push_str(&format!("  \"accuracy_improved\": {improved},\n"));
    out.push_str(&format!(
        "  \"wal_replay_consistent\": {},\n",
        output.wal_replay_consistent
    ));
    out.push_str(&format!(
        "  \"compaction_equivalent\": {},\n",
        output.compaction_equivalent
    ));
    out.push_str("  \"rounds\": [\n");
    for (i, r) in output.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"day\": {}, \"docs\": {}, \"gold_ee_mentions\": {}, \"discovered_ee\": {}, \
             \"promotions\": {}, \"promoted_total\": {}, \"delta_entities\": {}, \
             \"generation\": {}, \"eval_linked\": {}, \"eval_total\": {}, \
             \"ee_linked_accuracy\": {:.6}}}{}\n",
            r.day,
            r.docs,
            r.gold_ee_mentions,
            r.discovered_ee,
            r.promotions,
            r.promoted_total,
            r.delta_entities,
            r.generation,
            r.eval_linked,
            r.eval_total,
            r.ee_linked_accuracy,
            if i + 1 < output.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"kb_metrics\": {\n");
    let kb_counters = [
        names::KB_WAL_RECORDS,
        names::KB_WAL_REPLAYS,
        names::KB_EPOCH_SWAPS,
        names::EE_PROMOTED,
    ];
    for name in kb_counters {
        out.push_str(&format!("    \"{name}\": {},\n", output.snapshot.counter(name)));
    }
    out.push_str(&format!(
        "    \"{}\": {}\n",
        names::KB_DELTA_ENTITIES,
        output.snapshot.gauge(names::KB_DELTA_ENTITIES)
    ));
    out.push_str("  }\n}\n");
    out
}

/// Runs the streaming incremental-KB benchmark.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let stream = env.news(scale);
    let tmp = std::env::temp_dir().join("ned-bench-streaming");
    std::fs::create_dir_all(&tmp).unwrap_or_else(|e| panic!("temp dir: {e}"));

    // The benchmark is pure computation over fixed seeds: two runs must
    // agree bitwise (the determinism contract for virtual-time runs).
    let path_a = tmp.join("wal-a.log");
    let path_b = tmp.join("wal-b.log");
    let first = run_once(&env, &stream.docs, stream.n_days, &path_a);
    let second = run_once(&env, &stream.docs, stream.n_days, &path_b);
    let virtual_deterministic = first == second;
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
    assert!(virtual_deterministic, "streaming runs diverged across invocations");
    assert!(first.wal_replay_consistent, "WAL replay must reproduce the mutation list");
    assert!(first.compaction_equivalent, "compaction must be observationally equivalent");

    let mut table = ned_eval::report::Table::new(
        "Streaming — incremental KB over the news stream",
        &[
            "day", "docs", "gold EE", "discovered", "promoted", "total", "delta", "gen",
            "linked", "of", "EE linked acc",
        ],
    );
    for r in &first.rows {
        table.add_row(vec![
            r.day.to_string(),
            r.docs.to_string(),
            r.gold_ee_mentions.to_string(),
            r.discovered_ee.to_string(),
            r.promotions.to_string(),
            r.promoted_total.to_string(),
            r.delta_entities.to_string(),
            r.generation.to_string(),
            r.eval_linked.to_string(),
            r.eval_total.to_string(),
            format!("{:.4}", r.ee_linked_accuracy),
        ]);
    }
    print!("{}", table.render());
    println!("two runs bit-identical: {virtual_deterministic}");

    let json = render_json(&first, virtual_deterministic);
    let path = "BENCH_streaming.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_output() -> RunOutput {
        RunOutput {
            rows: vec![
                RoundRow {
                    day: 0,
                    docs: 10,
                    gold_ee_mentions: 5,
                    discovered_ee: 4,
                    promotions: 0,
                    promoted_total: 0,
                    delta_entities: 0,
                    generation: 0,
                    eval_linked: 0,
                    eval_total: 20,
                    ee_linked_accuracy: 0.0,
                },
                RoundRow {
                    day: 1,
                    docs: 10,
                    gold_ee_mentions: 6,
                    discovered_ee: 5,
                    promotions: 2,
                    promoted_total: 2,
                    delta_entities: 2,
                    generation: 1,
                    eval_linked: 8,
                    eval_total: 20,
                    ee_linked_accuracy: 0.4,
                },
            ],
            wal_replay_consistent: true,
            compaction_equivalent: true,
            snapshot: Metrics::new().snapshot(),
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = render_json(&sample_output(), true);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"virtual_deterministic\": true"));
        assert!(json.contains("\"accuracy_monotone\": true"));
        assert!(json.contains("\"accuracy_improved\": true"));
        assert!(json.contains("\"ee_linked_accuracy\": 0.400000"));
        assert!(json.contains("\"kb_wal_records\": 0"));
        assert!(!json.contains(",\n  }"));
    }

    #[test]
    fn non_improving_run_is_flagged() {
        let mut output = sample_output();
        output.rows[1].eval_linked = 0;
        output.rows[1].ee_linked_accuracy = 0.0;
        output.rows[1].promotions = 0;
        let json = render_json(&output, true);
        assert!(json.contains("\"accuracy_improved\": false"));
    }

    #[test]
    fn accuracy_regression_breaks_monotone_flag() {
        let mut output = sample_output();
        output.rows.push(RoundRow {
            day: 2,
            ee_linked_accuracy: 0.2,
            eval_linked: 4,
            ..output.rows[1].clone()
        });
        let json = render_json(&output, true);
        assert!(json.contains("\"accuracy_monotone\": false"));
    }
}
