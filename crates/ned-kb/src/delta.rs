//! The knowledge base after a mutation sequence: [`DeltaKb`].
//!
//! The paper's NED-EE loop (Ch. 5) needs the KB to *grow* while readers
//! keep annotating. [`DeltaKb`] is the read side of that growth: the effect
//! of a [`KbMutation`] sequence on a frozen base, itself frozen, readable
//! through [`crate::view::KbView`] so every consumer — disambiguator,
//! relatedness, serving — works against it unchanged.
//!
//! ## Semantics
//!
//! Building a delta **thaws** the frozen base back into a build-time
//! [`KnowledgeBase`] (id-preserving: entity `i` stays entity `i`, phrase
//! `p` stays phrase `p`), applies the mutations exactly as
//! [`crate::builder::KbBuilder`] would have at build time, recomputes the
//! [`WeightModel`] over the merged KB (IDF and the superdocument model
//! depend on the global entity count, so they cannot be patched row-wise),
//! and freezes the result with [`FrozenKb::freeze`]. A delta therefore *is*
//! a complete [`FrozenKb`]: reads cost exactly what they cost on the base,
//! and each live delta epoch holds one full frozen KB of its own (it shares
//! no rows with the base).
//!
//! [`DeltaKb::compact`] hands out a copy of that frozen KB, which is
//! bitwise-identical to freezing a from-scratch build of the merged KB.

use std::sync::Arc;

use ned_core::NedError;
use ned_obs::{names, Metrics};

use crate::dictionary::Dictionary;
use crate::entity::Entity;
use crate::frozen::FrozenKb;
use crate::ids::{EntityId, PhraseId, WordId};
use crate::keyphrase::KeyphraseStore;
use crate::links::LinkGraph;
use crate::mutation::KbMutation;
use crate::store::KnowledgeBase;
use crate::vocab::{PhraseInterner, WordInterner};
use crate::weights::WeightModel;

/// Reconstructs the build-time representation of a frozen KB, id-preserving:
/// every entity, word, and phrase keeps its dense id, so mutations applied
/// to the thawed KB mean the same thing they would have meant at build
/// time.
fn thaw(base: &FrozenKb) -> KnowledgeBase {
    let n = base.entity_count();
    let entities: Vec<Entity> =
        (0..n).map(|i| base.entity(EntityId::from_index(i)).clone()).collect();
    let words = WordInterner::from_words(
        (0..base.word_count())
            .map(|i| base.word_text(WordId::from_index(i)).to_string())
            .collect(),
    );
    let phrases = PhraseInterner::from_parts(
        (0..base.phrase_count())
            .map(|i| base.phrase_words(PhraseId::from_index(i)).to_vec())
            .collect(),
        (0..base.phrase_count())
            .map(|i| base.phrase_surface(PhraseId::from_index(i)).to_string())
            .collect(),
    );
    let mut dictionary = Dictionary::new();
    for (key, cands) in base.dictionary().iter() {
        // Frozen keys are already match-key normalized; insert them raw.
        dictionary.insert_row(key.to_string(), cands.to_vec());
    }
    let frozen_links = base.links();
    let links = LinkGraph::from_rows(
        (0..n).map(|i| frozen_links.inlinks(EntityId::from_index(i)).to_vec()).collect(),
        (0..n).map(|i| frozen_links.outlinks(EntityId::from_index(i)).to_vec()).collect(),
        frozen_links.edge_count(),
    );
    let keyphrases = KeyphraseStore::from_rows(
        (0..n).map(|i| base.keyphrases(EntityId::from_index(i)).to_vec()).collect(),
        base.total_phrase_observations(),
    );
    let by_name = entities
        .iter()
        .enumerate()
        .map(|(i, e)| (e.canonical_name.clone(), EntityId::from_index(i)))
        .collect();
    KnowledgeBase {
        entities,
        words,
        phrases,
        dictionary,
        links,
        keyphrases,
        weights: WeightModel::default(),
        by_name,
    }
}

/// Resolves a canonical name against the merged-so-far KB.
fn resolve(kb: &KnowledgeBase, name: &str) -> Result<EntityId, NedError> {
    kb.by_name
        .get(name)
        .copied()
        .ok_or_else(|| NedError::Lookup { what: "entity name", key: name.to_string() })
}

/// Applies one mutation to the thawed KB, mirroring the corresponding
/// [`crate::builder::KbBuilder`] operation.
fn apply(kb: &mut KnowledgeBase, m: &KbMutation) -> Result<(), NedError> {
    match m {
        KbMutation::AddEntity { canonical_name, kind } => {
            if kb.by_name.contains_key(canonical_name) {
                return Err(NedError::Config {
                    what: "kb mutation",
                    message: format!("add_entity: canonical name already taken: {canonical_name}"),
                });
            }
            let id = EntityId::from_index(kb.entities.len());
            kb.entities.push(Entity::new(canonical_name.clone(), *kind));
            kb.by_name.insert(canonical_name.clone(), id);
            kb.links.grow_to(kb.entities.len());
            kb.keyphrases.grow_to(kb.entities.len());
            // The builder registers the title itself as a name observation.
            kb.dictionary.add(canonical_name, id, 1);
        }
        KbMutation::AddLink { src, dst } => {
            let s = resolve(kb, src)?;
            let d = resolve(kb, dst)?;
            kb.links.add_link(s, d);
        }
        KbMutation::AddKeyphrase { entity, surface, count } => {
            let e = resolve(kb, entity)?;
            if surface.split_whitespace().next().is_none() {
                return Err(NedError::Config {
                    what: "kb mutation",
                    message: format!("add_keyphrase: empty keyphrase for {entity}"),
                });
            }
            let p = kb.phrases.intern(surface, &mut kb.words);
            kb.keyphrases.add(e, p, *count);
        }
        KbMutation::ReweightKeyphrase { entity, surface, delta } => {
            let e = resolve(kb, entity)?;
            let p = kb.phrases.get(surface, &kb.words).ok_or_else(|| NedError::Lookup {
                what: "keyphrase",
                key: surface.clone(),
            })?;
            kb.keyphrases.reweight(e, p, *delta).ok_or_else(|| NedError::Lookup {
                what: "entity keyphrase",
                key: format!("{entity} / {surface}"),
            })?;
        }
        KbMutation::AddDictionarySurface { entity, surface, count } => {
            let e = resolve(kb, entity)?;
            kb.dictionary.add(surface, e, *count);
        }
    }
    Ok(())
}

/// Thaws `base`, applies `mutations` in order, and finalizes into a fully
/// consistent [`KnowledgeBase`] — exactly the KB a from-scratch build of
/// base-ops + mutations would have produced.
fn merge(base: &FrozenKb, mutations: &[KbMutation]) -> Result<KnowledgeBase, NedError> {
    let mut kb = thaw(base);
    for m in mutations {
        apply(&mut kb, m)?;
    }
    // Finalize is idempotent on untouched rows: the frozen arrays were
    // stored in exactly the order these sorts produce.
    kb.dictionary.finalize();
    kb.links.finalize();
    kb.keyphrases.finalize();
    kb.weights = WeightModel::compute(&kb.keyphrases, &kb.links, &kb.phrases, kb.words.len());
    Ok(kb)
}

/// An immutable KB version: a frozen base plus the effect of a mutation
/// sequence, merged and frozen, readable through [`crate::view::KbView`].
#[derive(Debug)]
pub struct DeltaKb {
    kb: FrozenKb,
    base_entity_count: usize,
}

impl DeltaKb {
    /// Builds the merged KB for `mutations` over `base`.
    ///
    /// Cost is one thaw + merge + freeze (linear in the base) at build
    /// time; reads afterwards are plain [`FrozenKb`] reads. Name-resolution
    /// failures and duplicate entities surface as typed errors.
    pub fn build(base: Arc<FrozenKb>, mutations: Vec<KbMutation>) -> Result<DeltaKb, NedError> {
        Self::build_observed(base, mutations, &Metrics::disabled())
    }

    /// [`DeltaKb::build`], metered: sets the `kb_delta_entities` gauge to
    /// the number of entities the mutations add.
    pub fn build_observed(
        base: Arc<FrozenKb>,
        mutations: Vec<KbMutation>,
        metrics: &Metrics,
    ) -> Result<DeltaKb, NedError> {
        let kb = FrozenKb::freeze(&merge(&base, &mutations)?);
        let delta = DeltaKb { kb, base_entity_count: base.entity_count() };
        metrics.gauge(names::KB_DELTA_ENTITIES).set(delta.delta_entity_count() as u64);
        Ok(delta)
    }

    /// Number of entities the mutations add on top of the base.
    pub fn delta_entity_count(&self) -> usize {
        self.kb.entity_count() - self.base_entity_count
    }

    /// The merged KB as a standalone [`FrozenKb`] — bitwise-identical to
    /// freezing a from-scratch build of the merged KB, the compaction
    /// invariant the equivalence suite pins down.
    pub fn compact(&self) -> Result<FrozenKb, NedError> {
        Ok(self.kb.clone())
    }

    /// The merged frozen KB every read goes to.
    pub(crate) fn frozen(&self) -> &FrozenKb {
        &self.kb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::example_kb;
    use crate::dictionary::Candidate;
    use crate::entity::EntityKind;
    use crate::view::KbView;

    fn sample_mutations() -> Vec<KbMutation> {
        vec![
            KbMutation::AddEntity {
                canonical_name: "Black Dog (song)".into(),
                kind: EntityKind::Work,
            },
            KbMutation::AddDictionarySurface {
                entity: "Black Dog (song)".into(),
                surface: "Black Dog".into(),
                count: 4,
            },
            KbMutation::AddKeyphrase {
                entity: "Black Dog (song)".into(),
                surface: "hard rock song".into(),
                count: 3,
            },
            KbMutation::AddLink { src: "Black Dog (song)".into(), dst: "Jimmy Page".into() },
            KbMutation::AddLink { src: "Jimmy Page".into(), dst: "Black Dog (song)".into() },
            KbMutation::AddKeyphrase {
                entity: "Jimmy Page".into(),
                surface: "hard rock song".into(),
                count: 1,
            },
            KbMutation::ReweightKeyphrase {
                entity: "Jimmy Page".into(),
                surface: "hard rock song".into(),
                delta: 2,
            },
            KbMutation::AddDictionarySurface {
                entity: "Kashmir (song)".into(),
                surface: "Kashmir".into(),
                count: 10,
            },
        ]
    }

    fn fixture() -> (Arc<FrozenKb>, DeltaKb, KnowledgeBase) {
        let base = Arc::new(FrozenKb::freeze(&example_kb()));
        let muts = sample_mutations();
        let merged = merge(&base, &muts).unwrap();
        let delta = DeltaKb::build(Arc::clone(&base), muts).unwrap();
        (base, delta, merged)
    }

    #[test]
    fn delta_reads_match_merged_kb() {
        let (_, delta, merged) = fixture();
        let kb = delta.frozen();
        assert_eq!(kb.entity_count(), merged.entity_count());
        assert_eq!(kb.word_count(), merged.word_interner().len());
        assert_eq!(kb.phrase_count(), merged.phrase_interner().len());
        assert_eq!(kb.dictionary().name_count(), merged.dictionary().name_count());
        assert_eq!(kb.dictionary().pair_count(), merged.dictionary().pair_count());
        assert_eq!(kb.links().edge_count(), merged.links().edge_count());
        assert_eq!(
            kb.total_phrase_observations(),
            merged.keyphrase_store().total_observations()
        );
        for e in merged.entity_ids() {
            assert_eq!(kb.entity(e), merged.entity(e));
            assert_eq!(kb.keyphrases(e), merged.keyphrases(e));
            assert_eq!(kb.links().inlinks(e), merged.links().inlinks(e));
            assert_eq!(kb.links().outlinks(e), merged.links().outlinks(e));
        }
        for surface in ["Black Dog", "Kashmir", "Jimmy Page", "Page", "Unknown Name"] {
            assert_eq!(kb.candidates(surface), merged.candidates(surface));
            assert_eq!(kb.dictionary().prior_distribution(surface), {
                let cands = merged.candidates(surface);
                let total: u64 = cands.iter().map(|c| c.count).sum();
                if total == 0 {
                    Vec::new()
                } else {
                    cands.iter().map(|c| (c.entity, c.count as f64 / total as f64)).collect()
                }
            });
        }
    }

    #[test]
    fn new_entity_is_visible_through_kb_view() {
        let (base, delta, _) = fixture();
        let id = delta.entity_by_name("Black Dog (song)").unwrap();
        assert!(id.index() >= base.entity_count());
        let view: &dyn KbView = &delta;
        assert_eq!(view.entity(id).kind, EntityKind::Work);
        assert!(view.candidates("Black Dog").iter().any(|c| c.entity == id));
        assert!(view.prior("Black Dog", id) > 0.0);
        assert!(!view.keyphrases(id).is_empty());
        let links = view.links();
        assert!(links.directly_linked(id, base.entity_by_name("Jimmy Page").unwrap()));
    }

    #[test]
    fn dict_iteration_matches_merged_kb_in_key_order() {
        let (_, delta, merged) = fixture();
        let view: &dyn KbView = &delta;
        let got: Vec<(String, Vec<Candidate>)> =
            view.dictionary().iter().map(|(k, c)| (k.to_string(), c.to_vec())).collect();
        let want: Vec<(String, Vec<Candidate>)> =
            merged.dictionary().iter().map(|(k, c)| (k.to_string(), c.to_vec())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn weights_are_recomputed_over_merged_kb() {
        let (_, delta, merged) = fixture();
        let bytes_delta = crate::snapshot::encode(KbView::weights(&delta)).unwrap();
        let bytes_merged = crate::snapshot::encode(merged.weights()).unwrap();
        assert_eq!(bytes_delta, bytes_merged);
    }

    #[test]
    fn compact_equals_freezing_the_merged_kb() {
        let (_, delta, merged) = fixture();
        let compacted = delta.compact().unwrap();
        let direct = FrozenKb::freeze(&merged);
        let mut a = Vec::new();
        let mut b = Vec::new();
        crate::snapshot::write_frozen_snapshot(&compacted, &mut a).unwrap();
        crate::snapshot::write_frozen_snapshot(&direct, &mut b).unwrap();
        assert_eq!(a, b, "compacted snapshot must be bitwise-identical to from-scratch");
    }

    #[test]
    fn unknown_name_and_duplicate_entity_are_typed_errors() {
        let base = Arc::new(FrozenKb::freeze(&example_kb()));
        let err = DeltaKb::build(
            Arc::clone(&base),
            vec![KbMutation::AddLink { src: "Nobody".into(), dst: "Jimmy Page".into() }],
        )
        .unwrap_err();
        assert!(matches!(err, NedError::Lookup { what: "entity name", .. }), "{err}");
        let err = DeltaKb::build(
            Arc::clone(&base),
            vec![KbMutation::AddEntity {
                canonical_name: "Jimmy Page".into(),
                kind: EntityKind::Person,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, NedError::Config { what: "kb mutation", .. }), "{err}");
        let err = DeltaKb::build(
            Arc::clone(&base),
            vec![KbMutation::ReweightKeyphrase {
                entity: "Jimmy Page".into(),
                surface: "no such phrase ever".into(),
                delta: 1,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, NedError::Lookup { .. }), "{err}");
    }

    #[test]
    fn build_observed_sets_delta_gauge() {
        let base = Arc::new(FrozenKb::freeze(&example_kb()));
        let metrics = Metrics::new();
        let delta = DeltaKb::build_observed(
            base,
            vec![KbMutation::AddEntity {
                canonical_name: "Black Dog (song)".into(),
                kind: EntityKind::Work,
            }],
            &metrics,
        )
        .unwrap();
        assert_eq!(delta.delta_entity_count(), 1);
        assert_eq!(metrics.snapshot().gauge(names::KB_DELTA_ENTITIES), 1);
    }
}
