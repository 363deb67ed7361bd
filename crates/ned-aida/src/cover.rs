//! Shortest-cover computation for partial keyphrase matches (§3.3.4).
//!
//! A keyphrase may occur only partially in the input ("Grammy Award winner"
//! matched by "winner of many prizes including the Grammy"). The *cover* of
//! a phrase is the shortest token window containing a maximal number of the
//! phrase's distinct words. `score(q)` (Eq. 3.4) then rewards proximity via
//! `z = #matching words / cover length` and weight mass via the squared
//! weight ratio.

use ned_kb::fx::FxHashMap;
use ned_kb::WordId;

/// The shape of a cover without its word list: enough to compute `z`.
///
/// Produced by [`shortest_cover_into`], which leaves the distinct matched
/// words in the [`CoverScratch`] instead of allocating a fresh vector per
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverShape {
    /// Number of distinct phrase words inside the cover.
    pub matched_words: usize,
    /// Window length in tokens.
    pub length: usize,
}

impl CoverShape {
    /// The proximity factor `z = matched words / cover length`.
    pub fn z(&self) -> f64 {
        if self.length == 0 {
            return 0.0;
        }
        self.matched_words as f64 / self.length as f64
    }
}

/// Reusable buffers for the scratch-based shortest-cover computation.
///
/// One scratch serves any number of calls; every buffer is cleared (not
/// freed) per call, so steady-state cover computation performs zero heap
/// allocations. The scratch never influences results — only where the
/// intermediates live.
#[derive(Debug, Default)]
pub struct CoverScratch {
    /// Phrase-word occurrences in the context, position order.
    occurrences: Vec<(usize, WordId)>,
    /// Sliding-window multiplicity of each phrase word.
    counts: FxHashMap<WordId, u32>,
    /// Distinct words of the last cover found (sorted, deduplicated).
    words: Vec<WordId>,
}

impl CoverScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sorted, deduplicated word ids of the most recent cover — valid
    /// after a [`shortest_cover_into`] call that returned `Some`.
    pub fn cover_words(&self) -> &[WordId] {
        &self.words
    }
}

/// Finds the shortest window over `context` (position-sorted `(pos, word)`
/// pairs) containing a maximal number of distinct words of `phrase_words`,
/// or `None` when no phrase word occurs in the context.
///
/// `phrase_words` must be sorted and deduplicated (a precomputed phrase run
/// or an emerging-entity phrase). On success the cover's distinct words are
/// left in the scratch ([`CoverScratch::cover_words`]); steady-state calls
/// perform zero heap allocations.
///
/// The test oracle keeps the allocating reference scan, which tests
/// membership with a linear `contains` and materializes the word list on
/// every improving window. This scan is bit-identical to it: membership by
/// binary search over the sorted set is the same set test, improving
/// windows are recorded as `(left, right, length)` indices, and the word
/// list is materialized once, for the final best window.
// ned-lint: hot
pub fn shortest_cover_into(
    context: &[(usize, WordId)],
    phrase_words: &[WordId],
    scratch: &mut CoverScratch,
) -> Option<CoverShape> {
    debug_assert!(
        phrase_words.windows(2).all(|p| p[0] < p[1]), // ned-lint: allow(p1) — windows(2) pairs
        "phrase_words must be sorted and deduplicated"
    );
    let CoverScratch { occurrences, counts, words } = scratch;
    occurrences.clear();
    occurrences.extend(
        context.iter().copied().filter(|(_, w)| phrase_words.binary_search(w).is_ok()),
    );
    if occurrences.is_empty() {
        return None;
    }
    // Distinct occurrence words via the reusable counts map (the reference
    // sorts a fresh vector; the count of distinct keys is the same).
    counts.clear();
    for &(_, w) in occurrences.iter() {
        *counts.entry(w).or_insert(0) += 1;
    }
    let distinct_total = counts.len();
    counts.clear();

    let mut distinct = 0usize;
    let mut best: Option<(usize, usize, usize)> = None; // (left, right, length)
    let mut left = 0usize;
    for right in 0..occurrences.len() {
        let (_, w) = occurrences[right]; // ned-lint: allow(p1) — right < len by loop bound
        let c = counts.entry(w).or_insert(0);
        if *c == 0 {
            distinct += 1;
        }
        *c += 1;
        while distinct == distinct_total {
            let (lpos, lw) = occurrences[left]; // ned-lint: allow(p1) — left ≤ right < len
            let (rpos, _) = occurrences[right]; // ned-lint: allow(p1) — right < len by loop bound
            let length = rpos - lpos + 1;
            let better = match best {
                None => true,
                Some((_, _, b)) => length < b,
            };
            if better {
                best = Some((left, right, length));
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
    let (bl, br, length) = best?;
    words.clear();
    words.extend(occurrences[bl..=br].iter().map(|&(_, w)| w)); // ned-lint: allow(p1) — window bounds from the scan
    words.sort_unstable();
    words.dedup();
    Some(CoverShape { matched_words: distinct_total, length })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: u32) -> WordId {
        WordId(i)
    }

    /// The cover of a sorted phrase word set, with its distinct words.
    fn cover(context: &[(usize, WordId)], phrase: &[WordId]) -> Option<(CoverShape, Vec<WordId>)> {
        let mut scratch = CoverScratch::new();
        let shape = shortest_cover_into(context, phrase, &mut scratch)?;
        Some((shape, scratch.cover_words().to_vec()))
    }

    /// Context "winner of many prizes including the Grammy" with phrase
    /// {winner, grammy, award}: positions of winner=0, grammy=6.
    #[test]
    fn partial_match_cover() {
        let context = vec![(0, w(1)), (3, w(10)), (6, w(2))];
        let phrase = vec![w(1), w(2), w(3)]; // winner, grammy, award
        let (shape, words) = cover(&context, &phrase).unwrap();
        assert_eq!(shape.matched_words, 2);
        assert_eq!(shape.length, 7); // positions 0..=6
        assert_eq!(words, vec![w(1), w(2)]);
        assert!((shape.z() - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn adjacent_full_match_has_z_one() {
        let context = vec![(4, w(1)), (5, w(2)), (6, w(3))];
        let phrase = vec![w(1), w(2), w(3)];
        let (shape, _) = cover(&context, &phrase).unwrap();
        assert_eq!(shape.matched_words, 3);
        assert_eq!(shape.length, 3);
        assert!((shape.z() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn picks_shortest_among_maximal_windows() {
        // Word 1 at 0 and 10, word 2 at 12: best window is [10, 12].
        let context = vec![(0, w(1)), (10, w(1)), (12, w(2))];
        let phrase = vec![w(1), w(2)];
        let (shape, _) = cover(&context, &phrase).unwrap();
        assert_eq!(shape.length, 3);
        assert_eq!(shape.matched_words, 2);
    }

    #[test]
    fn no_match_returns_none() {
        let context = vec![(0, w(5)), (1, w(6))];
        assert!(cover(&context, &[w(1)]).is_none());
        assert!(cover(&[], &[w(1)]).is_none());
    }

    #[test]
    fn single_word_match() {
        let context = vec![(7, w(3))];
        let (shape, words) = cover(&context, &[w(3), w(4)]).unwrap();
        assert_eq!(shape.matched_words, 1);
        assert_eq!(shape.length, 1);
        assert_eq!(words, vec![w(3)]);
    }

    #[test]
    fn repeated_words_do_not_inflate_distinct_count() {
        let context = vec![(0, w(1)), (1, w(1)), (2, w(1))];
        let (shape, _) = cover(&context, &[w(1), w(2)]).unwrap();
        assert_eq!(shape.matched_words, 1);
        assert_eq!(shape.length, 1);
    }
}
