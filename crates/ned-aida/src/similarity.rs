//! Keyphrase-based mention–entity similarity (§3.3.4, Eqs. 3.4–3.6).
//!
//! For a mention `m` and candidate entity `e`:
//!
//! `simscore(m, e) = Σ_{q ∈ KP(e)} score(q)` where
//! `score(q) = z · (Σ_{w ∈ cover} weight(w) / Σ_{w ∈ q} weight(w))²`
//! and `z = #matching words / cover length`.
//!
//! `weight(w)` is either the entity-specific NPMI or the global IDF,
//! selected by [`KeywordWeighting`].
//!
//! There is one scoring path: [`phrase_score_run`] evaluates Eq. 3.4 and
//! [`simscores_batch_into`] sums it (Eq. 3.6) for every candidate of a
//! mention. The allocating reference scorers that re-derive everything per
//! call live in the test oracle (`tests/common/oracle.rs`), which checks
//! this path against them bit for bit.

use ned_kb::{EntityId, KbView, PhraseId, WordId};

use crate::config::KeywordWeighting;
use crate::cover::{shortest_cover_into, CoverScratch};
use crate::obs::SimObs;
use crate::scratch::{with_scratch, ScoringScratch};

/// Computes `score(q)` (Eq. 3.4) for the interned keyphrase `p` of `e`
/// against a mention context given as position-sorted `(pos, word)` pairs,
/// reading the precomputed deduplicated word run and weight masses from the
/// KB's [`PhraseRuns`](ned_kb::PhraseRuns) and reusing the caller's cover
/// buffers. Bit-identical to the reference that re-derives the phrase word
/// set and its mass on every call:
///
/// - the precomputed masses were summed with the exact reference expression
///   over the exact reference word order (sorted, deduplicated);
/// - the scratch cover scan finds the same window and word set (membership
///   over the sorted run is set-equivalent to `contains` on the raw words);
/// - the cover mass is accumulated in the same ascending-word-id order. The
///   accumulator starts at `+0.0` where `Iterator::sum` starts at `-0.0`,
///   which can only differ when every term is a signed zero — and then both
///   paths take the `cover_mass <= 0.0` early return.
// ned-lint: hot
pub fn phrase_score_run<K: KbView + ?Sized>(
    kb: &K,
    e: EntityId,
    p: PhraseId,
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
    cover: &mut CoverScratch,
) -> f64 {
    let runs = kb.phrase_runs();
    let run = runs.run(p);
    let phrase_mass = match weighting {
        KeywordWeighting::Npmi => runs.npmi_mass(e, p).unwrap_or_else(|| {
            // Not an own phrase of `e` (no precomputed row entry): fall back
            // to the reference expression over the run.
            run.iter().map(|&w| kb.weights().keyword_npmi(e, w)).sum()
        }),
        KeywordWeighting::Idf => runs.idf_mass(p),
    };
    if phrase_mass <= 0.0 {
        return 0.0;
    }
    let Some(shape) = shortest_cover_into(context, run, cover) else {
        return 0.0;
    };
    // Iterator-free indexed fold over the cover words so the compiler can
    // keep the weight lookups in a tight loop.
    let cw = cover.cover_words();
    let mut cover_mass = 0.0f64;
    let mut i = 0usize;
    while i < cw.len() {
        let w = cw[i]; // ned-lint: allow(p1) — i < len by loop bound
        cover_mass += match weighting {
            KeywordWeighting::Npmi => kb.weights().keyword_npmi(e, w),
            KeywordWeighting::Idf => kb.weights().word_idf(w),
        };
        i += 1;
    }
    if cover_mass <= 0.0 {
        return 0.0;
    }
    let ratio = (cover_mass / phrase_mass).min(1.0);
    shape.z() * ratio * ratio
}

/// `simscore(m, e)` (Eq. 3.6) for every entity of `entities` against the
/// same mention context, written into a caller-owned buffer (cleared first)
/// in input order. With a warmed per-thread arena and a reused `out` buffer,
/// a steady-state call performs zero heap allocations — this is the entry
/// point the bench harness uses to certify the allocation-free hot path.
// ned-lint: hot
pub fn simscores_batch_into<K: KbView + ?Sized>(
    kb: &K,
    entities: &[EntityId],
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
    obs: &SimObs,
    out: &mut Vec<f64>,
) {
    with_scratch(|scratch| {
        simscores_batch_arena(
            kb,
            entities.len(),
            |i| entities[i], // ned-lint: allow(p1) — i < entities.len() by construction
            context,
            weighting,
            obs,
            scratch,
        );
        out.clear();
        out.extend_from_slice(&scratch.sims);
    });
}

/// [`simscores_batch_into`] against an explicit scoring arena, for callers
/// that already hold one; leaves the scores in `scratch.sims`, in candidate
/// order.
///
/// Only phrases sharing at least one word with the context are scored. The
/// pruning is exact: a phrase with no context word has no shortest cover
/// and scores exactly 0.0, and adding a +0.0 term never changes an IEEE sum
/// of non-negative terms. Each candidate enumerates its matching phrases
/// from whichever side is smaller — scan KP(e), testing each phrase run
/// against the sorted context word set (entity side), or probe the
/// keyphrase inverted index per context word (word side). Both yield the
/// same phrases in ascending phrase-id order, so the score is bitwise
/// independent of the plan.
// ned-lint: hot
pub(crate) fn simscores_batch_arena<K: KbView + ?Sized>(
    kb: &K,
    n: usize,
    entity_at: impl Fn(usize) -> EntityId,
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
    obs: &SimObs,
    scratch: &mut ScoringScratch,
) {
    let ScoringScratch { cover, context_words, matching, sims } = scratch;
    // One index query set for all candidates of this mention.
    context_words.clear();
    context_words.extend(context.iter().map(|&(_, w)| w));
    context_words.sort_unstable();
    context_words.dedup();
    let context_words: &[WordId] = context_words;
    sims.clear();
    let runs = kb.phrase_runs();
    for i in 0..n {
        let e = entity_at(i);
        obs.evaluations.inc();
        let kp = kb.keyphrases(e);
        if kp.len() <= context_words.len() {
            obs.plan_entity_side.inc();
            matching.clear();
            // The precomputed run is the deduplicated word set of the phrase;
            // `any` over it decides exactly like `any` over the raw word list.
            matching.extend(
                kp.iter()
                    .filter(|ep| {
                        runs.run(ep.phrase)
                            .iter()
                            .any(|w| context_words.binary_search(w).is_ok())
                    })
                    .map(|ep| ep.phrase),
            );
        } else {
            obs.plan_word_side.inc();
            let scanned = kb.keyphrase_index().matching_phrases_into(e, context_words, matching);
            obs.postings_scanned.add(scanned);
        }
        obs.phrases_matched.add(matching.len() as u64);
        // fold(0.0) rather than sum(): Iterator::sum's identity is -0.0, which
        // would make an empty phrase set differ in sign bit from an exhaustive
        // sum of zeros.
        sims.push(
            matching
                .iter()
                .fold(0.0, |acc, &p| acc + phrase_score_run(kb, e, p, context, weighting, cover)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DocumentContext;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_text::tokenize;

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

    /// `simscore(m, e)` of one candidate through the production path.
    fn sim(
        kb: &FrozenKb,
        e: EntityId,
        context: &[(usize, WordId)],
        weighting: KeywordWeighting,
    ) -> f64 {
        let mut out = Vec::new();
        simscores_batch_into(kb, &[e], context, weighting, &SimObs::default(), &mut out);
        out[0]
    }

    /// `score(q)` of the keyphrase of `e` with the given surface.
    fn score_of_phrase(
        kb: &FrozenKb,
        e: EntityId,
        surface: &str,
        context: &[(usize, WordId)],
    ) -> f64 {
        let p = kb
            .keyphrases(e)
            .iter()
            .map(|ep| ep.phrase)
            .find(|&p| kb.phrase_surface(p) == surface)
            .unwrap();
        phrase_score_run(kb, e, p, context, KeywordWeighting::Npmi, &mut CoverScratch::new())
    }

    #[test]
    fn matching_context_scores_higher() {
        let (kb, jimmy, larry) = kb();
        let ctx = context_of(&kb, "played unusual chords on his Gibson guitar");
        let sj = sim(&kb, jimmy, &ctx, KeywordWeighting::Npmi);
        let sl = sim(&kb, larry, &ctx, KeywordWeighting::Npmi);
        assert!(sj > 0.0);
        assert_eq!(sl, 0.0);
    }

    #[test]
    fn full_adjacent_match_beats_scattered_match() {
        let (kb, jimmy, _) = kb();
        let adjacent = context_of(&kb, "a Gibson guitar sound");
        let scattered = context_of(&kb, "a Gibson sound with heavy amplifier feedback guitar");
        let s_adj = score_of_phrase(&kb, jimmy, "Gibson guitar", &adjacent);
        let s_scat = score_of_phrase(&kb, jimmy, "Gibson guitar", &scattered);
        assert!(s_adj > s_scat, "{s_adj} vs {s_scat}");
        assert!(s_scat > 0.0);
    }

    #[test]
    fn partial_match_is_superlinearly_reduced() {
        let (kb, jimmy, _) = kb();
        let full = context_of(&kb, "Grammy Award winner");
        let partial = context_of(&kb, "Grammy winner");
        let s_full = score_of_phrase(&kb, jimmy, "Grammy Award winner", &full);
        let s_partial = score_of_phrase(&kb, jimmy, "Grammy Award winner", &partial);
        assert!(s_full > s_partial);
        assert!(s_partial > 0.0);
        // Squared ratio: partial (2/3 of weight mass, z = 1) is below
        // (2/3)² + ε of the full score even before the z factor.
        assert!(s_partial < s_full * 0.6);
    }

    #[test]
    fn empty_context_scores_zero() {
        let (kb, jimmy, _) = kb();
        assert_eq!(sim(&kb, jimmy, &[], KeywordWeighting::Npmi), 0.0);
    }

    #[test]
    fn idf_weighting_also_works() {
        let (kb, jimmy, _) = kb();
        let ctx = context_of(&kb, "hard rock chords everywhere");
        assert!(sim(&kb, jimmy, &ctx, KeywordWeighting::Idf) > 0.0);
    }

    #[test]
    fn score_is_nonnegative_and_bounded_per_phrase() {
        let (kb, jimmy, _) = kb();
        let ctx = context_of(&kb, "Gibson guitar Gibson guitar chords rock hard");
        let mut cover = CoverScratch::new();
        for ep in kb.keyphrases(jimmy) {
            let s =
                phrase_score_run(&kb, jimmy, ep.phrase, &ctx, KeywordWeighting::Npmi, &mut cover);
            assert!((0.0..=1.0).contains(&s), "{s}");
        }
    }
}
