//! The observability layer's determinism contract: a metrics snapshot is a
//! pure function of the workload. Counter totals are u64 atomic additions,
//! which commute, so the snapshot must be bit-identical across thread
//! counts; the registry is keyed by a `BTreeMap`, so snapshot ordering is
//! lexicographic and stable; and under the default null clock the stage
//! histograms are interleaving-independent too. The same snapshot must also
//! come out of both KB epoch types (the frozen columnar `FrozenKb` and an
//! empty `DeltaKb` over it) — the read path must not move a single
//! counter. Finally, the zero-overhead contract: attaching a registry must
//! not change one bit of annotation output.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Arc, OnceLock};

use aida_ned::aida::{AidaConfig, Disambiguator};
use aida_ned::kb::{DeltaKb, FrozenKb};
use aida_ned::obs::{Metrics, MetricsSnapshot};
use aida_ned::relatedness::{CachedRelatedness, MilneWitten};
use aida_ned::wikigen::config::WorldConfig;
use aida_ned::wikigen::corpus::conll_like;
use aida_ned::wikigen::{ExportedKb, World};
use ned_bench::runner::{run_method_with_threads, Evaluation};
use ned_eval::gold::GoldDoc;
use proptest::prelude::*;

/// One world, built once per test binary: the corpus seeds vary per test,
/// the KB does not need to.
fn world() -> &'static (World, ExportedKb, Arc<FrozenKb>) {
    static WORLD: OnceLock<(World, ExportedKb, Arc<FrozenKb>)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let world =
            World::generate(WorldConfig { entities_per_topic: 100, ..WorldConfig::default() });
        let exported = ExportedKb::build(&world);
        let frozen = Arc::new(FrozenKb::freeze(&exported.kb));
        (world, exported, frozen)
    })
}

fn corpus(seed: u64, docs: usize) -> Vec<GoldDoc> {
    let (world, exported, _) = world();
    conll_like(world, exported, seed, docs).docs
}

/// Runs the full pipeline (cached relatedness + disambiguator, both
/// instrumented) over `docs` through the frozen KB path and returns the
/// outcomes plus the complete metrics snapshot.
fn run_frozen(docs: &[GoldDoc], threads: usize) -> (Evaluation, MetricsSnapshot) {
    let (_, _, frozen) = world();
    let metrics = Metrics::new();
    let cached = CachedRelatedness::with_metrics(MilneWitten::new(frozen.clone()), &metrics);
    let aida =
        Disambiguator::new(frozen.clone(), &cached, AidaConfig::full()).with_metrics(&metrics);
    let eval = run_method_with_threads(&aida, docs, threads).expect("thread pool");
    eval.record_metrics(&metrics);
    (eval, metrics.snapshot())
}

/// Same pipeline over an empty `DeltaKb` on the frozen KB.
fn run_delta(docs: &[GoldDoc], threads: usize) -> (Evaluation, MetricsSnapshot) {
    let (_, _, frozen) = world();
    let kb = Arc::new(DeltaKb::build(frozen.clone(), Vec::new()).expect("empty batch"));
    let metrics = Metrics::new();
    let cached = CachedRelatedness::with_metrics(MilneWitten::new(kb.clone()), &metrics);
    let aida = Disambiguator::new(kb, &cached, AidaConfig::full()).with_metrics(&metrics);
    let eval = run_method_with_threads(&aida, docs, threads).expect("thread pool");
    eval.record_metrics(&metrics);
    (eval, metrics.snapshot())
}

/// Bitwise outcome equality (confidences compared by bits).
fn assert_identical(a: &Evaluation, b: &Evaluation) {
    assert_eq!(a.docs.len(), b.docs.len());
    for (da, db) in a.docs.iter().zip(&b.docs) {
        assert_eq!(da.gold, db.gold);
        assert_eq!(da.predicted, db.predicted);
        assert_eq!(da.status, db.status);
        assert_eq!(da.confidence.len(), db.confidence.len());
        for (ca, cb) in da.confidence.iter().zip(&db.confidence) {
            assert_eq!(ca.to_bits(), cb.to_bits());
        }
    }
}

#[test]
fn snapshot_is_identical_across_thread_counts() {
    // 1/2/4/8 threads: with the per-worker scratch arenas live (PR 6),
    // every thread count must still produce the same outcomes and the same
    // snapshot — arena reuse is invisible to both.
    let docs = corpus(17, 12);
    let (eval1, snap1) = run_frozen(&docs, 1);
    assert!(snap1.counter("aida_docs") > 0, "the run must record work");
    for threads in [2usize, 4, 8] {
        let (eval, snap) = run_frozen(&docs, threads);
        assert_identical(&eval1, &eval);
        assert_eq!(snap1, snap, "metrics snapshot diverged at {threads} threads");
    }
}

#[test]
fn snapshot_is_identical_across_kb_backends() {
    let docs = corpus(23, 10);
    let (frozen_eval, frozen_snap) = run_frozen(&docs, 2);
    let (delta_eval, delta_snap) = run_delta(&docs, 2);
    assert_identical(&frozen_eval, &delta_eval);
    assert_eq!(
        frozen_snap, delta_snap,
        "the read backend moved a counter: frozen vs delta snapshots differ"
    );
}

#[test]
fn attaching_metrics_does_not_change_outcomes() {
    let (_, _, frozen) = world();
    let docs = corpus(29, 10);

    // Metrics off: the default disabled registry — every counter is a
    // no-op handle and the pipeline must behave identically.
    let cached = CachedRelatedness::new(MilneWitten::new(frozen.clone()));
    let aida = Disambiguator::new(frozen.clone(), &cached, AidaConfig::full());
    let off = run_method_with_threads(&aida, &docs, 1).expect("thread pool");

    let (on, snap) = run_frozen(&docs, 1);
    assert_identical(&off, &on);
    assert!(snap.counter("aida_mentions") > 0);
}

/// Trace replay through the unbounded memo: the counters depend only on
/// which distinct pairs each generation touches, so splitting the trace
/// over 1, 2, 4, or 8 racing threads must produce bit-identical snapshots
/// and occupancy, with the conservation laws exact.
#[test]
fn cache_snapshots_are_bit_identical_across_1_2_4_8_threads() {
    use aida_ned::kb::EntityId;
    use aida_ned::obs::names;
    use aida_ned::relatedness::Relatedness;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A symmetric measure whose value encodes the generation it was
    /// computed under.
    struct ByGeneration(AtomicU64);
    impl Relatedness for ByGeneration {
        fn name(&self) -> &'static str {
            "by-generation"
        }
        fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let generation = self.0.load(Ordering::Acquire);
            f64::from(lo.0) * 31.0 + f64::from(hi.0) + generation as f64 * 0.5
        }
    }

    // A deterministic trace over a universe wide enough to touch every
    // shard and hot enough that threads race on the same pairs. Two phases
    // separated by a generation advance.
    let trace: Vec<(EntityId, EntityId)> = {
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..6000)
            .map(|_| {
                // Zipf-ish: half the draws from a hot set of 8 entities.
                let span = if step() % 2 == 0 { 8 } else { 64 };
                (EntityId((step() % span) as u32), EntityId((step() % span) as u32))
            })
            .collect()
    };
    let distinct: BTreeSet<(EntityId, EntityId)> =
        trace.iter().map(|&(a, b)| if a <= b { (a, b) } else { (b, a) }).collect();

    let replay = |threads: usize| {
        let metrics = Metrics::new();
        let cache = CachedRelatedness::with_metrics(ByGeneration(AtomicU64::new(0)), &metrics);
        for generation in [0u64, 1] {
            cache.inner().0.store(generation, Ordering::Release);
            cache.advance_generation(generation);
            let expected = ByGeneration(AtomicU64::new(generation));
            std::thread::scope(|s| {
                for t in 0..threads {
                    let (cache, trace, expected) = (&cache, &trace, &expected);
                    s.spawn(move || {
                        for &(a, b) in trace.iter().skip(t).step_by(threads) {
                            assert_eq!(
                                cache.relatedness(a, b).to_bits(),
                                expected.relatedness(a, b).to_bits()
                            );
                        }
                    });
                }
            });
        }
        (metrics.snapshot(), cache.len())
    };

    let (snap1, len1) = replay(1);
    let c = |name: &str| snap1.counter(name);
    let lookups = 2 * trace.len() as u64;
    assert_eq!(c(names::RELATEDNESS_CACHE_HITS) + c(names::RELATEDNESS_CACHE_MISSES), lookups);
    assert_eq!(c(names::RELATEDNESS_CACHE_MISSES), 2 * distinct.len() as u64);
    assert_eq!(
        c(names::RELATEDNESS_CACHE_MISSES),
        c(names::RELATEDNESS_CACHE_INSERTS) + c(names::RELATEDNESS_CACHE_STALE_DISCARDS)
    );
    assert_eq!(c(names::RELATEDNESS_CACHE_EVICTIONS), distinct.len() as u64);
    assert_eq!(len1, distinct.len());
    for threads in [2usize, 4, 8] {
        let (snap, len) = replay(threads);
        assert_eq!(snap1, snap, "cache snapshot diverged at {threads} threads");
        assert_eq!(len1, len, "memo occupancy diverged at {threads} threads");
    }
}

#[test]
fn disabled_registry_snapshot_is_empty() {
    let m = Metrics::default();
    assert!(!m.is_enabled());
    m.counter("anything").add(7);
    let snap = m.snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Over arbitrary corpora (and a starved solver on odd seeds, so the
    /// degraded rungs of the ladder are exercised too), one thread and
    /// four threads produce the same snapshot.
    #[test]
    fn snapshot_determinism_over_arbitrary_corpora(
        seed in 0u64..1000,
        n_docs in 2usize..8,
    ) {
        let (_, _, frozen) = world();
        let docs = corpus(seed, n_docs);
        let config = if seed % 2 == 1 {
            AidaConfig { solver_max_iterations: 8, ..AidaConfig::full() }
        } else {
            AidaConfig::full()
        };
        let run = |threads: usize| {
            let metrics = Metrics::new();
            let cached =
                CachedRelatedness::with_metrics(MilneWitten::new(frozen.clone()), &metrics);
            let aida = Disambiguator::new(frozen.clone(), &cached, config.clone())
                .with_metrics(&metrics);
            let eval = run_method_with_threads(&aida, &docs, threads).expect("thread pool");
            eval.record_metrics(&metrics);
            metrics.snapshot()
        };
        let one = run(1);
        let four = run(4);
        prop_assert_eq!(one, four);
    }
}
