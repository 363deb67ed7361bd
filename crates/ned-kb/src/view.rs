//! The read-side boundary of the knowledge base: [`KbView`].
//!
//! Every consumer of the KB — the disambiguator, the relatedness measures,
//! the emerging-entity pipeline, the applications — only ever *reads*. This
//! trait captures that read API once. There is one runtime representation
//! behind it: the flat columnar [`FrozenKb`] (produced by
//! [`FrozenKb::freeze`] from a built [`KnowledgeBase`](crate::KnowledgeBase),
//! or decoded from a snapshot). A [`DeltaKb`] is a frozen KB with the
//! mutations merged in, and the published-epoch handle
//! [`KbEpoch`](crate::KbEpoch) holds one of the two; both delegate every
//! read to their frozen KB. Blanket impls for `&K` and `Arc<K>` mean call
//! sites can keep passing borrows while services hold one `Arc<FrozenKb>`
//! across threads.
//!
//! The dictionary and link-graph accessors return [`DictView`] and
//! [`LinksView`], aliases of `&FrozenDictionary` and `&FrozenLinks`.

use std::sync::Arc;

use crate::delta::DeltaKb;
use crate::dictionary::Candidate;
use crate::entity::Entity;
use crate::frozen::{FrozenDictionary, FrozenKb, FrozenLinks};
use crate::ids::{EntityId, PhraseId, WordId};
use crate::keyphrase::EntityPhrase;
use crate::kp_index::KeyphraseIndex;
use crate::phrase_runs::PhraseRuns;
use crate::weights::WeightModel;

/// Read-only view of a knowledge base.
///
/// Implemented by [`FrozenKb`] and [`DeltaKb`], plus blanket impls for
/// `&K` and `Arc<K>` so both borrowed and shared-handle call styles work.
/// `Send + Sync` is a supertrait: every view must be shareable across the
/// rayon workers of the parallel engine.
pub trait KbView: Send + Sync {
    /// Number of entities N in the repository.
    fn entity_count(&self) -> usize;

    /// The entity record for `e`.
    fn entity(&self, e: EntityId) -> &Entity;

    /// Looks up an entity by its canonical name.
    fn entity_by_name(&self, canonical_name: &str) -> Option<EntityId>;

    /// Candidate entities for a mention surface (dictionary lookup with the
    /// §3.3.2 case rules). Empty when the surface is out-of-dictionary.
    fn candidates(&self, surface: &str) -> &[Candidate];

    /// Popularity prior p(e | surface) (§3.3.3).
    fn prior(&self, surface: &str, e: EntityId) -> f64;

    /// The name dictionary.
    fn dictionary(&self) -> DictView<'_>;

    /// The link graph.
    fn links(&self) -> LinksView<'_>;

    /// The keyphrase set KP(e), sorted by phrase id.
    fn keyphrases(&self, e: EntityId) -> &[EntityPhrase];

    /// The keyphrase inverted index (keyword → (entity, phrase) postings).
    fn keyphrase_index(&self) -> &KeyphraseIndex;

    /// Word-id sequence of a keyphrase.
    fn phrase_words(&self, p: PhraseId) -> &[WordId];

    /// Display surface of a keyphrase.
    fn phrase_surface(&self, p: PhraseId) -> &str;

    /// Lowercased text of a keyword.
    fn word_text(&self, w: WordId) -> &str;

    /// Looks up an interned keyword by text.
    fn word_id(&self, text: &str) -> Option<WordId>;

    /// Number of distinct keywords.
    fn word_count(&self) -> usize;

    /// Number of distinct keyphrases.
    fn phrase_count(&self) -> usize;

    /// The precomputed weight model.
    fn weights(&self) -> &WeightModel;

    /// Precomputed deduplicated phrase runs and weight masses (the
    /// similarity hot path reads these instead of re-sorting per call).
    fn phrase_runs(&self) -> &PhraseRuns;

    /// Iterates over all entity ids.
    fn entity_ids(&self) -> EntityIds {
        EntityIds(0..self.entity_count())
    }
}

/// Iterator over all entity ids of a view (dense `0..N`).
#[derive(Debug, Clone)]
pub struct EntityIds(std::ops::Range<usize>);

impl Iterator for EntityIds {
    type Item = EntityId;

    fn next(&mut self) -> Option<EntityId> {
        self.0.next().map(EntityId::from_index)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for EntityIds {
    fn next_back(&mut self) -> Option<EntityId> {
        self.0.next_back().map(EntityId::from_index)
    }
}

impl ExactSizeIterator for EntityIds {}

macro_rules! delegate_kb_view {
    ($self_:ident => $inner:expr) => {
        fn entity_count(&$self_) -> usize {
            $inner.entity_count()
        }
        fn entity(&$self_, e: EntityId) -> &Entity {
            $inner.entity(e)
        }
        fn entity_by_name(&$self_, canonical_name: &str) -> Option<EntityId> {
            $inner.entity_by_name(canonical_name)
        }
        fn candidates(&$self_, surface: &str) -> &[Candidate] {
            $inner.candidates(surface)
        }
        fn prior(&$self_, surface: &str, e: EntityId) -> f64 {
            $inner.prior(surface, e)
        }
        fn dictionary(&$self_) -> DictView<'_> {
            $inner.dictionary()
        }
        fn links(&$self_) -> LinksView<'_> {
            $inner.links()
        }
        fn keyphrases(&$self_, e: EntityId) -> &[EntityPhrase] {
            $inner.keyphrases(e)
        }
        fn keyphrase_index(&$self_) -> &KeyphraseIndex {
            $inner.keyphrase_index()
        }
        fn phrase_words(&$self_, p: PhraseId) -> &[WordId] {
            $inner.phrase_words(p)
        }
        fn phrase_surface(&$self_, p: PhraseId) -> &str {
            $inner.phrase_surface(p)
        }
        fn word_text(&$self_, w: WordId) -> &str {
            $inner.word_text(w)
        }
        fn word_id(&$self_, text: &str) -> Option<WordId> {
            $inner.word_id(text)
        }
        fn word_count(&$self_) -> usize {
            $inner.word_count()
        }
        fn phrase_count(&$self_) -> usize {
            $inner.phrase_count()
        }
        fn weights(&$self_) -> &WeightModel {
            $inner.weights()
        }
        fn phrase_runs(&$self_) -> &PhraseRuns {
            $inner.phrase_runs()
        }
    };
}
pub(crate) use delegate_kb_view;

impl<K: KbView + ?Sized> KbView for &K {
    delegate_kb_view!(self => (**self));
}

impl<K: KbView + ?Sized> KbView for Arc<K> {
    delegate_kb_view!(self => (**self));
}

impl KbView for FrozenKb {
    fn entity_count(&self) -> usize {
        FrozenKb::entity_count(self)
    }
    fn entity(&self, e: EntityId) -> &Entity {
        FrozenKb::entity(self, e)
    }
    fn entity_by_name(&self, canonical_name: &str) -> Option<EntityId> {
        FrozenKb::entity_by_name(self, canonical_name)
    }
    fn candidates(&self, surface: &str) -> &[Candidate] {
        FrozenKb::candidates(self, surface)
    }
    fn prior(&self, surface: &str, e: EntityId) -> f64 {
        FrozenKb::prior(self, surface, e)
    }
    fn dictionary(&self) -> DictView<'_> {
        FrozenKb::dictionary(self)
    }
    fn links(&self) -> LinksView<'_> {
        FrozenKb::links(self)
    }
    fn keyphrases(&self, e: EntityId) -> &[EntityPhrase] {
        FrozenKb::keyphrases(self, e)
    }
    fn keyphrase_index(&self) -> &KeyphraseIndex {
        FrozenKb::keyphrase_index(self)
    }
    fn phrase_words(&self, p: PhraseId) -> &[WordId] {
        FrozenKb::phrase_words(self, p)
    }
    fn phrase_surface(&self, p: PhraseId) -> &str {
        FrozenKb::phrase_surface(self, p)
    }
    fn word_text(&self, w: WordId) -> &str {
        FrozenKb::word_text(self, w)
    }
    fn word_id(&self, text: &str) -> Option<WordId> {
        FrozenKb::word_id(self, text)
    }
    fn word_count(&self) -> usize {
        FrozenKb::word_count(self)
    }
    fn phrase_count(&self) -> usize {
        FrozenKb::phrase_count(self)
    }
    fn weights(&self) -> &WeightModel {
        FrozenKb::weights(self)
    }
    fn phrase_runs(&self) -> &PhraseRuns {
        FrozenKb::phrase_runs(self)
    }
}

/// The link graph of a view.
pub type LinksView<'a> = &'a FrozenLinks;

/// The name dictionary of a view.
pub type DictView<'a> = &'a FrozenDictionary;

impl KbView for DeltaKb {
    delegate_kb_view!(self => self.frozen());
}
