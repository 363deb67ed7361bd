//! Property-based equivalence of a built KB and its frozen columnar form.
//!
//! [`FrozenKb::freeze`] is a pure re-layout of the [`KnowledgeBase`] a
//! [`KbBuilder`] produces: every read answer — candidate lists, priors,
//! link neighborhoods, keyphrase sets, interner lookups, weights — must be
//! *identical* to the build-time accessors, down to the bit pattern of every
//! float. The similarity and disambiguation properties then run on the
//! frozen KB (and on an empty [`DeltaKb`] over it, the delta read path),
//! with the reference scorers `phrase_score` and
//! `simscore_exhaustive` of `common/oracle.rs` as the oracle. These properties drive randomly
//! built worlds through both sides.

#![allow(clippy::unwrap_used, clippy::expect_used)]

#[path = "common/oracle.rs"]
mod oracle;

use std::sync::Arc;

use aida_ned::aida::context::DocumentContext;
use aida_ned::aida::cover::CoverScratch;
use aida_ned::aida::similarity::{phrase_score_run, simscores_batch_into};
use aida_ned::aida::{AidaConfig, Disambiguator, KeywordWeighting, NedMethod, SimObs};
use aida_ned::kb::snapshot::{encode, read_frozen_snapshot, write_frozen_snapshot};
use aida_ned::kb::{
    DeltaKb, EntityKind, FrozenKb, KbBuilder, KbView, KnowledgeBase, PhraseId, WordId,
};
use aida_ned::obs::Metrics;
use aida_ned::relatedness::MilneWitten;
use aida_ned::text::{tokenize, Mention};
use oracle::{phrase_score, production_simscores, simscore_exhaustive};
use proptest::prelude::*;

/// (surface, anchor/occurrence count) pairs of one entity.
type WeightedSurfaces = Vec<(String, u64)>;

/// A randomly generated world, small enough to disambiguate in
/// milliseconds but rich enough to cover ambiguity, links, and keyphrases.
#[derive(Debug, Clone)]
struct WorldSpec {
    /// Per entity: (names with counts, keyphrases with counts).
    entities: Vec<(WeightedSurfaces, WeightedSurfaces)>,
    /// Directed links as index pairs (taken modulo the entity count).
    links: Vec<(usize, usize)>,
    /// Document context words.
    context: Vec<String>,
    /// Indexes into the name pool, selecting mention surfaces.
    mention_picks: Vec<usize>,
}

fn world_strategy() -> impl Strategy<Value = WorldSpec> {
    let name = "[a-d]{1,3}";
    let phrase = proptest::collection::vec("[a-e]{1,4}", 1..4);
    let entity = (
        proptest::collection::vec((name, 1u64..100), 1..3),
        proptest::collection::vec((phrase, 1u64..6), 0..4),
    )
        .prop_map(|(names, phrases)| {
            let phrases =
                phrases.into_iter().map(|(ws, c)| (ws.join(" "), c)).collect::<Vec<_>>();
            (names, phrases)
        });
    (
        proptest::collection::vec(entity, 1..10),
        proptest::collection::vec((0usize..64, 0usize..64), 0..30),
        proptest::collection::vec("[a-g]{1,4}", 0..25),
        proptest::collection::vec(0usize..64, 0..5),
    )
        .prop_map(|(entities, links, context, mention_picks)| WorldSpec {
            entities,
            links,
            context,
            mention_picks,
        })
}

/// Builds the KB from a spec; returns the KB and its name pool.
fn build_world(spec: &WorldSpec) -> (KnowledgeBase, Vec<String>) {
    let mut builder = KbBuilder::new();
    let mut ids = Vec::new();
    let mut name_pool = Vec::new();
    for (i, (names, phrases)) in spec.entities.iter().enumerate() {
        let e = builder.add_entity(&format!("Entity {i}"), EntityKind::Other);
        for (name, count) in names {
            builder.add_name(e, name, *count);
            name_pool.push(name.clone());
        }
        for (surface, count) in phrases {
            builder.add_keyphrase(e, surface, *count);
        }
        ids.push(e);
    }
    for &(a, b) in &spec.links {
        let (src, dst) = (ids[a % ids.len()], ids[b % ids.len()]);
        if src != dst {
            builder.add_link(src, dst);
        }
    }
    (builder.build(), name_pool)
}

/// The frozen KB and an empty delta epoch over it: the two epoch types.
fn backends(kb: &KnowledgeBase) -> (Arc<FrozenKb>, DeltaKb) {
    let frozen = Arc::new(FrozenKb::freeze(kb));
    let delta = DeltaKb::build(Arc::clone(&frozen), Vec::new()).unwrap();
    (frozen, delta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every primitive read answer of the frozen KB agrees with the
    /// build-time accessors: entities, dictionary (candidates + priors +
    /// iteration order), link neighborhoods, keyphrase sets, interners, and
    /// the weight model.
    #[test]
    fn frozen_reads_match_build(spec in world_strategy()) {
        let (kb, name_pool) = build_world(&spec);
        let frozen = FrozenKb::freeze(&kb);

        // Entity table and canonical-name index.
        prop_assert_eq!(frozen.entity_count(), kb.entity_count());
        for e in kb.entity_ids() {
            prop_assert_eq!(frozen.entity(e), kb.entity(e));
            let name = &kb.entity(e).canonical_name;
            prop_assert_eq!(frozen.entity_by_name(name), kb.entity_by_name(name));
        }

        // Dictionary: candidates and priors per surface (known and unknown),
        // and the full iteration in ascending key order.
        for surface in name_pool.iter().map(String::as_str).chain(["zz", "Qx"]) {
            prop_assert_eq!(frozen.candidates(surface), kb.candidates(surface));
            for e in kb.entity_ids() {
                let fp = frozen.prior(surface, e);
                let bp = kb.prior(surface, e);
                prop_assert_eq!(fp.to_bits(), bp.to_bits(), "prior({}, {:?})", surface, e);
            }
        }
        let frozen_entries: Vec<_> = frozen.dictionary().iter().collect();
        let built_entries: Vec<_> = kb.dictionary().iter().collect();
        prop_assert_eq!(frozen_entries, built_entries);

        // Link neighborhoods, sorted slices on both sides.
        prop_assert_eq!(frozen.links().edge_count(), kb.links().edge_count());
        for e in kb.entity_ids() {
            prop_assert_eq!(frozen.links().inlinks(e), kb.links().inlinks(e));
            prop_assert_eq!(frozen.links().outlinks(e), kb.links().outlinks(e));
        }

        // Keyphrase sets, phrase decompositions, and interners.
        prop_assert_eq!(frozen.word_count(), kb.word_interner().len());
        prop_assert_eq!(frozen.phrase_count(), kb.phrase_interner().len());
        for wi in 0..kb.word_interner().len() {
            let w = WordId::from_index(wi);
            prop_assert_eq!(frozen.word_text(w), kb.word_text(w));
            prop_assert_eq!(frozen.word_id(kb.word_text(w)), kb.word_id(kb.word_text(w)));
        }
        for e in kb.entity_ids() {
            prop_assert_eq!(frozen.keyphrases(e), kb.keyphrases(e));
        }
        for pi in 0..kb.phrase_interner().len() {
            let p = PhraseId::from_index(pi);
            prop_assert_eq!(frozen.phrase_words(p), kb.phrase_words(p));
            prop_assert_eq!(frozen.phrase_surface(p), kb.phrase_surface(p));
        }

        // The weight model survives freezing bit for bit.
        prop_assert_eq!(encode(frozen.weights()).unwrap(), encode(kb.weights()).unwrap());

        // Similarity through the kp-index agrees with the exhaustive oracle.
        let tokens = tokenize(&spec.context.join(" "));
        let ctx = DocumentContext::build(&frozen, &tokens).words;
        for e in kb.entity_ids() {
            for weighting in [KeywordWeighting::Npmi, KeywordWeighting::Idf] {
                let f = production_simscores(&frozen, &[e], &ctx, weighting)[0];
                let o = simscore_exhaustive(&frozen, e, &ctx, weighting);
                prop_assert_eq!(f.to_bits(), o.to_bits(), "simscore({:?}) {} vs {}", e, f, o);
            }
        }
    }

    /// The precomputed phrase runs (similarity hot path) are pure re-derivations:
    /// on both read backends, every run is the sorted-deduplicated word set
    /// of the built phrase, and the precomputed IDF / per-entity NPMI masses
    /// equal the reference sums over the built weights bit for bit.
    #[test]
    fn phrase_runs_match_reference_across_backends(spec in world_strategy()) {
        let (kb, _) = build_world(&spec);
        let (frozen, delta) = backends(&kb);
        let runs = [frozen.phrase_runs(), delta.phrase_runs()];
        for r in runs {
            prop_assert_eq!(r.phrase_count(), kb.phrase_interner().len());
        }
        for e in kb.entity_ids() {
            for ep in kb.keyphrases(e) {
                let p = ep.phrase;
                let mut reference: Vec<WordId> = kb.phrase_words(p).to_vec();
                reference.sort_unstable();
                reference.dedup();
                let idf_ref: f64 =
                    reference.iter().map(|&w| kb.weights().word_idf(w)).sum();
                let npmi_ref: f64 =
                    reference.iter().map(|&w| kb.weights().keyword_npmi(e, w)).sum();
                for r in runs {
                    prop_assert_eq!(r.run(p), reference.as_slice());
                    prop_assert_eq!(r.idf_mass(p).to_bits(), idf_ref.to_bits());
                    prop_assert_eq!(r.npmi_mass(e, p).map(f64::to_bits), Some(npmi_ref.to_bits()));
                }
            }
        }
    }

    /// Scratch-arena reuse and batching change nothing: scoring through the
    /// reused per-thread arena (run-based phrase scores, batched candidate
    /// scoring — including a second pass over buffers the first call
    /// dirtied, and across both read backends) is bit-identical to the
    /// fresh-allocation reference implementations.
    #[test]
    fn scratch_reuse_and_batching_match_fresh_scoring(spec in world_strategy()) {
        let (kb, _) = build_world(&spec);
        let (frozen, delta) = backends(&kb);
        let tokens = tokenize(&spec.context.join(" "));
        let ctx = DocumentContext::build(&frozen, &tokens).words;
        let entities: Vec<_> = frozen.entity_ids().collect();
        let metrics = Metrics::new();
        let obs = SimObs::new(&metrics);
        // One cover scratch reused across every phrase, entity, weighting,
        // and backend below — maximally dirty between calls. The batch path
        // reuses the thread-local arena, which also persists across
        // proptest cases in this thread.
        let mut cover = CoverScratch::new();
        let mut batched = Vec::new();
        for weighting in [KeywordWeighting::Npmi, KeywordWeighting::Idf] {
            let reference: Vec<f64> = entities
                .iter()
                .map(|&e| simscore_exhaustive(&frozen, e, &ctx, weighting))
                .collect();
            for pass in 0..2 {
                simscores_batch_into(&frozen, &entities, &ctx, weighting, &obs, &mut batched);
                prop_assert_eq!(batched.len(), reference.len());
                for (i, (b, r)) in batched.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        b.to_bits(), r.to_bits(),
                        "batched pass {} entity #{}: {} vs {}", pass, i, b, r
                    );
                }
            }
            simscores_batch_into(&delta, &entities, &ctx, weighting, &obs, &mut batched);
            for (b, r) in batched.iter().zip(&reference) {
                prop_assert_eq!(b.to_bits(), r.to_bits());
            }
            for &e in &entities {
                for ep in frozen.keyphrases(e) {
                    let fresh =
                        phrase_score(&frozen, e, frozen.phrase_words(ep.phrase), &ctx, weighting);
                    let run_frozen =
                        phrase_score_run(&frozen, e, ep.phrase, &ctx, weighting, &mut cover);
                    let run_delta =
                        phrase_score_run(&delta, e, ep.phrase, &ctx, weighting, &mut cover);
                    prop_assert_eq!(run_frozen.to_bits(), fresh.to_bits());
                    prop_assert_eq!(run_delta.to_bits(), fresh.to_bits());
                }
            }
        }
    }

    /// Full joint disambiguation through an `Arc<FrozenKb>` service handle
    /// decoded from a snapshot is byte-identical to the borrowed, freshly
    /// frozen KB: same entity choices, same score bits, same per-candidate
    /// score lists, same degradation.
    #[test]
    fn frozen_disambiguation_is_byte_identical(spec in world_strategy()) {
        let (kb, name_pool) = build_world(&spec);
        let frozen = FrozenKb::freeze(&kb);
        let mut bytes = Vec::new();
        write_frozen_snapshot(&frozen, &mut bytes).unwrap();
        let loaded = Arc::new(read_frozen_snapshot(bytes.as_slice()).unwrap());

        // Compose a document: the context words followed by the mention
        // surfaces (single-token by construction), each mention spanning its
        // own token. Always at least one mention, so the joint solver runs.
        let mut words = spec.context.clone();
        let mut mentions = Vec::new();
        for &pick in spec.mention_picks.iter().chain([&0usize]) {
            let surface = &name_pool[pick % name_pool.len()];
            mentions.push(Mention::new(surface.clone(), words.len(), words.len() + 1));
            words.push(surface.clone());
        }
        let tokens = tokenize(&words.join(" "));

        let fresh_aida =
            Disambiguator::new(&frozen, MilneWitten::new(&frozen), AidaConfig::full());
        let loaded_aida =
            Disambiguator::new(loaded.clone(), MilneWitten::new(loaded.clone()), AidaConfig::full());
        let fresh = fresh_aida.disambiguate(&tokens, &mentions);
        let loaded_result = loaded_aida.disambiguate(&tokens, &mentions);

        prop_assert_eq!(loaded_result.degradation, fresh.degradation);
        prop_assert_eq!(loaded_result.assignments.len(), fresh.assignments.len());
        for (la, fa) in loaded_result.assignments.iter().zip(&fresh.assignments) {
            prop_assert_eq!(la.mention_index, fa.mention_index);
            prop_assert_eq!(la.entity, fa.entity);
            prop_assert_eq!(la.score.to_bits(), fa.score.to_bits());
            prop_assert_eq!(la.candidate_scores.len(), fa.candidate_scores.len());
            for (&(le, ls), &(fe, fs)) in la.candidate_scores.iter().zip(&fa.candidate_scores) {
                prop_assert_eq!(le, fe);
                prop_assert_eq!(ls.to_bits(), fs.to_bits());
            }
        }
    }
}
