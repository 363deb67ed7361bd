//! The reference keyphrase-similarity scorers (§3.3.4, Eqs. 3.4–3.6): the
//! differential oracle for the library's one scoring path.
//!
//! These re-derive everything on every call — the deduplicated phrase word
//! set, its weight mass, a fresh occurrence list and counts map per cover —
//! and scan all of KP(e) without the keyphrase inverted index. The library
//! path (`phrase_score_run`, `simscores_batch_into`, `shortest_cover_into`)
//! must reproduce them bit for bit.
//!
//! Include with `#[path = "common/oracle.rs"] mod oracle;`.

#![allow(dead_code)]

use aida_ned::aida::KeywordWeighting;
use aida_ned::kb::fx::FxHashMap;
use aida_ned::kb::{EntityId, KbView, WordId};

/// The cover of a phrase in a document context.
#[derive(Debug, Clone, PartialEq)]
pub struct Cover {
    /// Number of distinct phrase words inside the cover (the maximum
    /// achievable in the context).
    pub matched_words: usize,
    /// Window length in tokens (last position − first position + 1).
    pub length: usize,
    /// The distinct matched word ids.
    pub words: Vec<WordId>,
}

impl Cover {
    /// The proximity factor `z = matched words / cover length`.
    pub fn z(&self) -> f64 {
        if self.length == 0 {
            return 0.0;
        }
        self.matched_words as f64 / self.length as f64
    }
}

/// Finds the shortest window over `context` (position-sorted `(pos, word)`
/// pairs) containing a maximal number of distinct words of `phrase_words`.
///
/// Returns `None` when no phrase word occurs in the context.
///
/// This is the reference implementation, allocating its buffers per call;
/// the hot path uses [`shortest_cover_into`] with a reusable
/// [`CoverScratch`] and is verified bit-identical against it.
pub fn shortest_cover(context: &[(usize, WordId)], phrase_words: &[WordId]) -> Option<Cover> {
    // Occurrences of phrase words in the context, in position order.
    let occurrences: Vec<(usize, WordId)> = context
        .iter()
        .copied()
        .filter(|(_, w)| phrase_words.contains(w))
        .collect();
    if occurrences.is_empty() {
        return None;
    }
    let distinct_total = {
        let mut ws: Vec<WordId> = occurrences.iter().map(|&(_, w)| w).collect();
        ws.sort_unstable();
        ws.dedup();
        ws.len()
    };

    // Two-pointer sliding window over the occurrence list, maximizing the
    // distinct count (which is `distinct_total`, always achievable) and
    // minimizing window length in token positions.
    let mut counts: FxHashMap<WordId, u32> = FxHashMap::default();
    let mut distinct = 0usize;
    let mut best: Option<Cover> = None;
    let mut left = 0usize;
    for right in 0..occurrences.len() {
        let (_, w) = occurrences[right];
        let c = counts.entry(w).or_insert(0);
        if *c == 0 {
            distinct += 1;
        }
        *c += 1;
        while distinct == distinct_total {
            let (lpos, lw) = occurrences[left];
            let (rpos, _) = occurrences[right];
            let length = rpos - lpos + 1;
            let better = match &best {
                None => true,
                Some(b) => length < b.length,
            };
            if better {
                let mut words: Vec<WordId> =
                    occurrences[left..=right].iter().map(|&(_, w)| w).collect();
                words.sort_unstable();
                words.dedup();
                best = Some(Cover { matched_words: distinct_total, length, words });
            }
            // Shrink from the left.
            if let Some(lc) = counts.get_mut(&lw) {
                *lc -= 1;
                if *lc == 0 {
                    distinct -= 1;
                }
            }
            left += 1;
        }
    }
    best
}

/// Computes `score(q)` (Eq. 3.4) for one keyphrase of `e` against a mention
/// context given as position-sorted `(pos, word)` pairs.
///
/// This is the reference implementation: it re-derives the deduplicated
/// phrase word set and its weight mass on every call. The hot path uses
/// [`phrase_score_run`], which reads both from the KB's precomputed
/// [`PhraseRuns`](ned_kb::PhraseRuns) and is verified bit-identical.
pub fn phrase_score<K: KbView + ?Sized>(
    kb: &K,
    e: EntityId,
    phrase_words: &[WordId],
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
) -> f64 {
    let weight = |w: WordId| -> f64 {
        match weighting {
            KeywordWeighting::Npmi => kb.weights().keyword_npmi(e, w),
            KeywordWeighting::Idf => kb.weights().word_idf(w),
        }
    };
    let phrase_mass: f64 = {
        let mut ws: Vec<WordId> = phrase_words.to_vec();
        ws.sort_unstable();
        ws.dedup();
        ws.iter().map(|&w| weight(w)).sum()
    };
    if phrase_mass <= 0.0 {
        return 0.0;
    }
    let Some(cover) = shortest_cover(context, phrase_words) else {
        return 0.0;
    };
    let cover_mass: f64 = cover.words.iter().map(|&w| weight(w)).sum();
    if cover_mass <= 0.0 {
        return 0.0;
    }
    let ratio = (cover_mass / phrase_mass).min(1.0);
    cover.z() * ratio * ratio
}

/// Reference implementation of `simscore(m, e)` scanning all of KP(e)
/// without the inverted index. Kept for tests asserting the index prunes
/// exactly.
pub fn simscore_exhaustive<K: KbView + ?Sized>(
    kb: &K,
    e: EntityId,
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
) -> f64 {
    kb.keyphrases(e)
        .iter()
        .map(|ep| phrase_score(kb, e, kb.phrase_words(ep.phrase), context, weighting))
        .fold(0.0, |acc, s| acc + s)
}

/// The library's scores for `entities` against one context, through its one
/// scoring path (`simscores_batch_into`) with disabled counters — what the
/// oracle above is compared against.
pub fn production_simscores<K: KbView + ?Sized>(
    kb: &K,
    entities: &[EntityId],
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
) -> Vec<f64> {
    let mut out = Vec::new();
    aida_ned::aida::similarity::simscores_batch_into(
        kb,
        entities,
        context,
        weighting,
        &aida_ned::aida::SimObs::default(),
        &mut out,
    );
    out
}
