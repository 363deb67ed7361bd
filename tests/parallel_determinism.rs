//! The parallel engine must be a pure speedup: running the disambiguator
//! over a corpus with any thread count produces byte-identical outcomes,
//! and the keyphrase inverted index prunes the similarity scan without
//! changing a single bit of any score. This must hold on the degraded
//! rungs of the fault-tolerance ladder too: a solver budget that forces
//! fallbacks fires at deterministic algorithmic points, so degraded runs
//! are just as reproducible. The `DeltaKb` read path is held to the same
//! bar: an empty `DeltaKb` behind an `Arc` service handle must
//! reproduce the borrowed `FrozenKb` outcomes bit for bit at every thread
//! count. Documents (and `ned-serve` requests) are the only parallel
//! grain: one document's disambiguation never leaves the calling thread,
//! even when it runs inside a thread pool.

#![allow(clippy::unwrap_used, clippy::expect_used)]

#[path = "common/oracle.rs"]
mod oracle;

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use aida_ned::aida::context::DocumentContext;
use aida_ned::aida::{
    AidaConfig, DisambiguationResult, Disambiguator, KeywordWeighting, NedMethod,
};
use aida_ned::kb::{DeltaKb, EntityId, EntityKind, FrozenKb, KbBuilder};
use aida_ned::relatedness::{CachedRelatedness, MilneWitten, Relatedness};
use aida_ned::text::tokenize;
use aida_ned::wikigen::config::WorldConfig;
use aida_ned::wikigen::corpus::{conll_like, conll_profile};
use aida_ned::wikigen::docgen::{DocGenerator, DocProfile};
use aida_ned::wikigen::{ExportedKb, World};
use ned_bench::runner::{run_method_with_threads, Evaluation};
use oracle::{production_simscores, simscore_exhaustive};
use proptest::prelude::*;

/// Outcomes are equal down to the sign bit of every confidence value.
fn assert_identical(a: &Evaluation, b: &Evaluation, threads: usize) {
    assert_eq!(a.docs.len(), b.docs.len());
    for (da, db) in a.docs.iter().zip(&b.docs) {
        assert_eq!(da.gold, db.gold);
        assert_eq!(da.predicted, db.predicted, "labels diverge at {threads} threads");
        assert_eq!(da.status, db.status, "statuses diverge at {threads} threads");
        assert_eq!(da.confidence.len(), db.confidence.len());
        for (ca, cb) in da.confidence.iter().zip(&db.confidence) {
            assert_eq!(
                ca.to_bits(),
                cb.to_bits(),
                "confidence diverges at {threads} threads: {ca} vs {cb}"
            );
        }
    }
}

#[test]
fn thread_count_does_not_change_outcomes() {
    let world = World::generate(WorldConfig {
        entities_per_topic: 120,
        ..WorldConfig::default()
    });
    let exported = ExportedKb::build(&world);
    let corpus = conll_like(&world, &exported, 11, 16);
    let kb = &FrozenKb::freeze(&exported.kb);

    let cached = CachedRelatedness::new(MilneWitten::new(kb));
    let method = Disambiguator::new(kb, &cached, AidaConfig::full());

    let baseline = run_method_with_threads(&method, &corpus.docs, 1).expect("thread pool");
    assert!(!baseline.docs.is_empty());
    for threads in [2usize, 4, 8] {
        let parallel =
            run_method_with_threads(&method, &corpus.docs, threads).expect("thread pool");
        assert_identical(&baseline, &parallel, threads);
    }
}

#[test]
fn delta_kb_path_is_byte_identical_to_frozen_at_every_thread_count() {
    let world = World::generate(WorldConfig {
        entities_per_topic: 120,
        ..WorldConfig::default()
    });
    let exported = ExportedKb::build(&world);
    let corpus = conll_like(&world, &exported, 11, 16);
    let frozen = Arc::new(FrozenKb::freeze(&exported.kb));

    // The borrowed frozen KB on one thread is the reference.
    let kb = &*frozen;
    let cached = CachedRelatedness::new(MilneWitten::new(kb));
    let method = Disambiguator::new(kb, &cached, AidaConfig::full());
    let baseline = run_method_with_threads(&method, &corpus.docs, 1).expect("thread pool");
    assert!(!baseline.docs.is_empty());

    // The delta read path: an empty delta epoch over the same frozen base
    // behind a shared Arc handle, fanned out across rayon workers. Same
    // labels, same statuses, same confidence bits, for any thread count.
    let delta = Arc::new(DeltaKb::build(Arc::clone(&frozen), Vec::new()).expect("empty batch"));
    let delta_cached = CachedRelatedness::new(MilneWitten::new(delta.clone()));
    let delta_method = Disambiguator::new(delta.clone(), &delta_cached, AidaConfig::full());
    for threads in [1usize, 2, 4, 8] {
        let run =
            run_method_with_threads(&delta_method, &corpus.docs, threads).expect("thread pool");
        assert_identical(&baseline, &run, threads);
    }
}

#[test]
fn degraded_runs_are_deterministic_across_thread_counts() {
    let world = World::generate(WorldConfig {
        entities_per_topic: 120,
        ..WorldConfig::default()
    });
    let exported = ExportedKb::build(&world);
    let corpus = conll_like(&world, &exported, 11, 16);
    let kb = &FrozenKb::freeze(&exported.kb);

    // A solver budget this tight exhausts on every nontrivial document,
    // forcing the no-coherence fallback. The budget is charged at
    // deterministic algorithmic points, so the degraded outcomes — labels,
    // confidences, and degradation tags — must still be byte-identical
    // for any thread count.
    let config = AidaConfig { solver_max_iterations: 8, ..AidaConfig::full() };
    let cached = CachedRelatedness::new(MilneWitten::new(kb));
    let method = Disambiguator::new(kb, &cached, config);

    let baseline = run_method_with_threads(&method, &corpus.docs, 1).expect("thread pool");
    assert!(!baseline.docs.is_empty());
    assert!(
        baseline.degraded_count() > 0,
        "a tight solver budget must force degraded documents"
    );
    assert_eq!(baseline.failed_count(), 0, "degradation is not failure");
    for threads in [2usize, 4, 8] {
        let parallel =
            run_method_with_threads(&method, &corpus.docs, threads).expect("thread pool");
        assert_identical(&baseline, &parallel, threads);
    }
}

/// Wraps a measure and records the thread of every call.
struct ThreadRecording<R> {
    inner: R,
    threads: Mutex<Vec<ThreadId>>,
}

impl<R: Relatedness> Relatedness for ThreadRecording<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        self.threads.lock().unwrap().push(std::thread::current().id());
        self.inner.relatedness(a, b)
    }
}

/// One assignment's label, score bits and candidate score bits.
type AssignmentBits = (Option<EntityId>, u64, Vec<(EntityId, u64)>);

/// Every bit of a result: labels, scores and candidate lists.
fn result_bits(result: &DisambiguationResult) -> Vec<AssignmentBits> {
    result
        .assignments
        .iter()
        .map(|a| {
            let candidates = a.candidate_scores.iter().map(|&(e, s)| (e, s.to_bits())).collect();
            (a.entity, a.score.to_bits(), candidates)
        })
        .collect()
}

#[test]
fn disambiguation_never_leaves_the_calling_thread() {
    let world = World::generate(WorldConfig {
        entities_per_topic: 120,
        ..WorldConfig::default()
    });
    let exported = ExportedKb::build(&world);
    let corpus = conll_like(&world, &exported, 11, 4);
    let kb = &FrozenKb::freeze(&exported.kb);
    let recording =
        ThreadRecording { inner: MilneWitten::new(kb), threads: Mutex::new(Vec::new()) };
    let method = Disambiguator::new(kb, &recording, AidaConfig::full());

    // A `ned-serve` worker calls the disambiguator inside a pool it is not
    // a worker of, so nothing marks the call as nested.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let caller = std::thread::current().id();
    for doc in corpus.docs.iter().filter(|d| d.mentions.len() >= 2) {
        pool.install(|| method.disambiguate(&doc.tokens, &doc.bare_mentions()));
    }
    let threads = recording.threads.lock().unwrap();
    assert!(!threads.is_empty(), "coherence must query the measure");
    assert!(
        threads.iter().all(|&t| t == caller),
        "{} of {} relatedness calls ran off the calling thread",
        threads.iter().filter(|&&t| t != caller).count(),
        threads.len()
    );
    drop(threads);

    // A mention-heavy document gives the same bits inside and outside the
    // pool.
    let profile = DocProfile { mentions: (64, 80), ..conll_profile() };
    let big = DocGenerator::new(&world, &exported, 5).generate(&profile, 0);
    let mentions = big.bare_mentions();
    assert!(mentions.len() >= 64);
    let outside = method.disambiguate(&big.tokens, &mentions);
    let inside = pool.install(|| method.disambiguate(&big.tokens, &mentions));
    assert_eq!(outside.degradation, inside.degradation);
    assert_eq!(result_bits(&outside), result_bits(&inside));
}

proptest! {
    /// The inverted index only skips keyphrases whose score is exactly
    /// 0.0 (no word in context ⇒ no shortest cover), so the indexed and
    /// exhaustive similarity scores agree bitwise.
    #[test]
    fn indexed_similarity_matches_exhaustive(
        phrases in proptest::collection::vec(
            proptest::collection::vec("[a-e]{1,4}", 1..4),
            1..8,
        ),
        context in proptest::collection::vec("[a-g]{1,4}", 0..20),
    ) {
        let mut builder = KbBuilder::new();
        let mut entities = Vec::new();
        for (i, words) in phrases.iter().enumerate() {
            let e = builder.add_entity(&format!("E{i}"), EntityKind::Other);
            builder.add_name(e, &format!("E{i}"), 1);
            builder.add_keyphrase(e, &words.join(" "), (i % 5 + 1) as u64);
            entities.push(e);
        }
        let kb = FrozenKb::freeze(&builder.build());

        let tokens = tokenize(&context.join(" "));
        let ctx = DocumentContext::build(&kb, &tokens);
        let window = ctx.words.clone();
        for &e in &entities {
            for weighting in [KeywordWeighting::Npmi, KeywordWeighting::Idf] {
                let fast = production_simscores(&kb, &[e], &window, weighting)[0];
                let slow = simscore_exhaustive(&kb, e, &window, weighting);
                prop_assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "indexed {} vs exhaustive {}",
                    fast,
                    slow
                );
            }
        }
    }
}
