//! Reusable per-worker scoring arenas.
//!
//! The candidate-scoring hot path (context word set → matching-phrase
//! enumeration → shortest covers → weight masses) used to allocate a handful
//! of short-lived vectors per mention–candidate pair. [`ScoringScratch`]
//! bundles every one of those buffers into a single arena that is cleared
//! (never freed) between uses, so steady-state scoring performs zero heap
//! allocations per mention.
//!
//! # Ownership rules
//!
//! - One arena per worker thread, owned by a thread-local and handed out by
//!   [`with_scratch`]. A document never fans out, so one arena serves all
//!   its mentions. The batch runner's scoped rayon workers each reuse
//!   theirs across a whole chunk of documents, and a `ned-serve` worker
//!   keeps its arena across requests.
//! - Re-entrant [`with_scratch`] calls (the arena already borrowed further
//!   up the stack) fall back to a fresh arena. This is safe because the
//!   arena never influences *values* — only where intermediates live — so
//!   results are bit-identical either way.
//! - Buffers hold plain ids and floats; nothing borrows from the KB, so an
//!   arena outlives any particular knowledge base and can serve several.

use std::cell::RefCell;

use ned_kb::{PhraseId, WordId};

use crate::cover::CoverScratch;

/// All buffers of the scoring hot path, reusable across mentions.
#[derive(Debug, Default)]
pub struct ScoringScratch {
    /// Shortest-cover buffers (occurrences, window counts, cover words).
    pub cover: CoverScratch,
    /// Sorted-deduplicated context word set of the current mention.
    pub(crate) context_words: Vec<WordId>,
    /// Matching phrase ids of the candidate currently being scored.
    pub(crate) matching: Vec<PhraseId>,
    /// Similarity scores of the current mention, in candidate order.
    pub(crate) sims: Vec<f64>,
}

impl ScoringScratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static SCRATCH: RefCell<ScoringScratch> = RefCell::new(ScoringScratch::new());
}

/// Runs `f` with this worker thread's scoring arena.
///
/// The arena is process-lifetime per thread: the first use on a thread pays
/// the buffer growth, every later use on that thread reuses the capacity.
/// If the arena is already borrowed (a re-entrant scoring call further up
/// the stack), `f` gets a fresh arena instead — bit-identical results, just
/// without the reuse.
pub fn with_scratch<R>(f: impl FnOnce(&mut ScoringScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut ScoringScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_scratch_reuses_capacity_across_calls() {
        with_scratch(|s| {
            s.context_words.clear();
            s.context_words.extend((0u32..64).map(WordId));
        });
        let cap = with_scratch(|s| s.context_words.capacity());
        assert!(cap >= 64, "thread-local arena should retain capacity, got {cap}");
    }

    #[test]
    fn reentrant_with_scratch_falls_back_to_fresh_arena() {
        with_scratch(|outer| {
            outer.sims.push(1.0);
            let inner_len = with_scratch(|inner| {
                inner.sims.push(2.0);
                inner.sims.len()
            });
            // The inner call must have seen a fresh arena, not ours.
            assert_eq!(inner_len, 1);
            assert_eq!(outer.sims.last().copied(), Some(1.0));
        });
    }
}
