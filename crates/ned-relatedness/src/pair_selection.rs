//! Selection of entity pairs needing coherence computation (§4.6.4).
//!
//! AIDA computes coherence weights only between candidate entities that can
//! co-occur in a solution: entities that are candidates of *different*
//! mentions. Two entities that share only a single common mention are
//! mutually exclusive alternatives and never need a coherence edge. The
//! number of selected pairs is the "comparisons" column of Table 4.4.

use ned_kb::fx::FxHashSet;
use ned_kb::EntityId;

/// Computes the unordered entity pairs that require a relatedness value,
/// given the candidate list of every mention. Pairs are deduplicated and
/// returned sorted with `a < b`.
///
/// Runs sequentially on the calling thread: one document's candidate space
/// is small, and parallelism splits at the document (or request) grain.
pub fn coherence_pairs(candidates_per_mention: &[Vec<EntityId>]) -> Vec<(EntityId, EntityId)> {
    let mut pairs: FxHashSet<(EntityId, EntityId)> = FxHashSet::default();
    for (mi, cands) in candidates_per_mention.iter().enumerate() {
        for other_cands in &candidates_per_mention[mi + 1..] {
            for &a in cands {
                for &b in other_cands {
                    if a != b {
                        pairs.insert(if a < b { (a, b) } else { (b, a) });
                    }
                }
            }
        }
    }
    let mut out: Vec<(EntityId, EntityId)> = pairs.into_iter().collect();
    out.sort_unstable();
    out
}

/// Number of coherence pairs without materializing them (cheap counting for
/// large candidate spaces).
pub fn coherence_pair_count(candidates_per_mention: &[Vec<EntityId>]) -> usize {
    coherence_pairs(candidates_per_mention).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn pairs_span_different_mentions_only() {
        // Mention 0: {1, 2}; mention 1: {3}.
        let pairs = coherence_pairs(&[vec![e(1), e(2)], vec![e(3)]]);
        assert_eq!(pairs, vec![(e(1), e(3)), (e(2), e(3))]);
    }

    #[test]
    fn mutually_exclusive_candidates_have_no_pair() {
        // Entities 1 and 2 are candidates of the same single mention.
        let pairs = coherence_pairs(&[vec![e(1), e(2)]]);
        assert!(pairs.is_empty());
    }

    #[test]
    fn shared_candidate_across_mentions() {
        // Entity 1 is a candidate of both mentions: pairs with the other
        // mention's candidates exist, but never a self pair.
        let pairs = coherence_pairs(&[vec![e(1), e(2)], vec![e(1), e(3)]]);
        assert!(pairs.contains(&(e(1), e(3))));
        assert!(pairs.contains(&(e(1), e(2))));
        assert!(pairs.contains(&(e(2), e(3))));
        assert!(!pairs.iter().any(|&(a, b)| a == b));
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn count_matches_pairs() {
        let cands = vec![vec![e(1), e(2), e(3)], vec![e(4), e(5)], vec![e(6)]];
        assert_eq!(coherence_pair_count(&cands), coherence_pairs(&cands).len());
        // 3·2 + 3·1 + 2·1 = 11 distinct cross-mention pairs.
        assert_eq!(coherence_pair_count(&cands), 11);
    }

    #[test]
    fn empty_input() {
        assert!(coherence_pairs(&[]).is_empty());
        assert!(coherence_pairs(&[vec![]]).is_empty());
    }
}
