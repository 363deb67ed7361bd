//! The library's one keyphrase-similarity path against the reference
//! scorers of `common/oracle.rs`, bit for bit: the Eq. 3.4 kernel
//! (`phrase_score_run` vs `phrase_score`), the cover scan
//! (`shortest_cover_into` vs `shortest_cover`), and Eq. 3.6 over every
//! candidate of a mention (`simscores_batch_into` vs `simscore_exhaustive`)
//! under both matching-phrase plans.

#![allow(clippy::unwrap_used, clippy::expect_used)]

#[path = "common/oracle.rs"]
mod oracle;

use aida_ned::aida::context::DocumentContext;
use aida_ned::aida::cover::{shortest_cover_into, CoverScratch};
use aida_ned::aida::similarity::{phrase_score_run, simscores_batch_into};
use aida_ned::aida::{KeywordWeighting, SimObs};
use aida_ned::kb::{EntityId, EntityKind, FrozenKb, KbBuilder, WordId};
use aida_ned::obs::Metrics;
use aida_ned::text::tokenize;
use oracle::{phrase_score, production_simscores, shortest_cover, simscore_exhaustive};

/// Jimmy Page vs Larry Page with distinctive keyphrases.
fn kb() -> (FrozenKb, EntityId, EntityId) {
    let mut b = KbBuilder::new();
    let jimmy = b.add_entity("Jimmy Page", EntityKind::Person);
    let larry = b.add_entity("Larry Page", EntityKind::Person);
    b.add_keyphrase(jimmy, "Gibson guitar", 2);
    b.add_keyphrase(jimmy, "hard rock chords", 3);
    b.add_keyphrase(jimmy, "Grammy Award winner", 1);
    b.add_keyphrase(larry, "search engine", 3);
    b.add_keyphrase(larry, "Stanford university", 2);
    (FrozenKb::freeze(&b.build()), jimmy, larry)
}

fn context_of(kb: &FrozenKb, text: &str) -> Vec<(usize, WordId)> {
    DocumentContext::build(kb, &tokenize(text)).words
}

#[test]
fn indexed_simscore_matches_exhaustive_bitwise() {
    let (kb, jimmy, larry) = kb();
    for text in [
        "played unusual chords on his Gibson guitar",
        "search engine built at Stanford university",
        "hard rock guitar award",
        "nothing in common with anyone",
        "",
    ] {
        let ctx = context_of(&kb, text);
        for e in [jimmy, larry] {
            for weighting in [KeywordWeighting::Npmi, KeywordWeighting::Idf] {
                let fast = production_simscores(&kb, &[e], &ctx, weighting)[0];
                let slow = simscore_exhaustive(&kb, e, &ctx, weighting);
                assert_eq!(fast.to_bits(), slow.to_bits(), "{text:?}");
            }
        }
    }
}

/// The run-based fast path must reproduce the reference `phrase_score`
/// bit for bit — for own phrases (precomputed NPMI mass), foreign
/// phrases (fallback recomputation), and both weightings.
#[test]
fn run_phrase_score_matches_reference_bitwise() {
    let (kb, jimmy, larry) = kb();
    let mut cover = CoverScratch::new();
    for text in [
        "played unusual chords on his Gibson guitar",
        "Grammy winner at Stanford university",
        "hard rock guitar award",
        "",
    ] {
        let ctx = context_of(&kb, text);
        for e in [jimmy, larry] {
            for scored in [jimmy, larry] {
                for ep in kb.keyphrases(scored) {
                    for weighting in [KeywordWeighting::Npmi, KeywordWeighting::Idf] {
                        let reference =
                            phrase_score(&kb, e, kb.phrase_words(ep.phrase), &ctx, weighting);
                        let fast = phrase_score_run(&kb, e, ep.phrase, &ctx, weighting, &mut cover);
                        assert_eq!(
                            reference.to_bits(),
                            fast.to_bits(),
                            "{text:?} e={e:?} phrase={:?}",
                            ep.phrase
                        );
                    }
                }
            }
        }
    }
}

/// One scratch reused across every case must reproduce the reference
/// exactly — shape, words, and the `z` bits. The reference takes the raw
/// phrase word list, the scratch scan its sorted-deduplicated set.
#[test]
fn scratch_cover_matches_reference_across_reuse() {
    fn w(i: u32) -> WordId {
        WordId(i)
    }
    type Case = (Vec<(usize, WordId)>, Vec<WordId>);
    let cases: Vec<Case> = vec![
        (vec![(0, w(1)), (3, w(10)), (6, w(2))], vec![w(2), w(3), w(1)]),
        (vec![(4, w(1)), (5, w(2)), (6, w(3))], vec![w(1), w(2), w(3)]),
        (vec![(0, w(1)), (10, w(1)), (12, w(2))], vec![w(1), w(2)]),
        (vec![(0, w(5)), (1, w(6))], vec![w(1)]),
        (vec![], vec![w(1)]),
        (vec![(7, w(3))], vec![w(3), w(4)]),
        (vec![(0, w(1)), (1, w(1)), (2, w(1))], vec![w(1), w(2)]),
        (vec![(0, w(2)), (1, w(9)), (2, w(2)), (3, w(4)), (9, w(4))], vec![w(4), w(2)]),
        (vec![(0, w(7)), (2, w(8)), (5, w(7))], vec![w(8), w(7), w(8)]),
    ];
    let mut scratch = CoverScratch::new();
    for (context, phrase) in &cases {
        let reference = shortest_cover(context, phrase);
        let mut sorted = phrase.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let via_scratch = shortest_cover_into(context, &sorted, &mut scratch);
        match (&reference, &via_scratch) {
            (None, None) => {}
            (Some(c), Some(s)) => {
                assert_eq!(c.matched_words, s.matched_words);
                assert_eq!(c.length, s.length);
                assert_eq!(c.words, scratch.cover_words());
                assert_eq!(c.z().to_bits(), s.z().to_bits());
            }
            other => panic!("reference and scratch disagree: {other:?}"),
        }
    }
}

/// Every candidate of a mention, scored in one pass, equals the exhaustive
/// reference bitwise under both weightings — including duplicate
/// candidates, and contexts that send candidates down both plans: the
/// entity-side scan of KP(e) and the word-side inverted-index probe. The
/// plan counters prove both plans actually ran, so word-side coverage
/// cannot silently vanish.
#[test]
fn batched_simscores_match_exhaustive_on_both_plans() {
    let (kb, jimmy, larry) = kb();
    let metrics = Metrics::new();
    let obs = SimObs::new(&metrics);
    let mut out = Vec::new();
    let mut candidates_scored = 0u64;
    for text in [
        // Three context words: Jimmy's three phrases scan entity-side.
        "played unusual chords on his Gibson guitar",
        // Two context words: Jimmy (three phrases) probes word-side,
        // Larry (two phrases) scans entity-side.
        "Gibson guitar",
        "search engine",
        "hard rock guitar award winner at a search engine",
        "nothing in common with anyone",
        "",
    ] {
        let ctx = context_of(&kb, text);
        for entities in [
            vec![jimmy, larry],
            vec![larry, jimmy],
            vec![jimmy],
            vec![jimmy, larry, jimmy],
            vec![larry, larry],
        ] {
            for weighting in [KeywordWeighting::Npmi, KeywordWeighting::Idf] {
                // Run twice: the second pass reuses the arena the first
                // one dirtied.
                for _ in 0..2 {
                    simscores_batch_into(&kb, &entities, &ctx, weighting, &obs, &mut out);
                    candidates_scored += entities.len() as u64;
                    assert_eq!(out.len(), entities.len());
                    for (&e, s) in entities.iter().zip(&out) {
                        let reference = simscore_exhaustive(&kb, e, &ctx, weighting);
                        assert_eq!(
                            s.to_bits(),
                            reference.to_bits(),
                            "{text:?} {entities:?} {e:?}: {s} vs {reference}"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(obs.evaluations.value(), candidates_scored);
    assert_eq!(
        obs.plan_entity_side.value() + obs.plan_word_side.value(),
        candidates_scored,
        "every evaluation takes exactly one plan"
    );
    assert!(obs.plan_entity_side.value() > 0, "no candidate took the entity-side plan");
    assert!(obs.plan_word_side.value() > 0, "no candidate took the word-side plan");
    assert!(obs.postings_scanned.value() > 0, "the word-side plan scanned no postings");
}
