//! Criterion benches for the parallel engine: corpus throughput at several
//! thread counts and keyphrase similarity over every mention's candidates.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ned_aida::context::DocumentContext;
use ned_aida::similarity::simscores_batch_into;
use ned_aida::{AidaConfig, Disambiguator, KeywordWeighting, SimObs};
use ned_bench::runner::run_method_with_threads;
use ned_eval::gold::GoldDoc;
use ned_kb::FrozenKb;
use ned_relatedness::MilneWitten;
use ned_wikigen::config::WorldConfig;
use ned_wikigen::corpus::conll_like;
use ned_wikigen::{ExportedKb, World};

fn setup() -> (FrozenKb, Vec<GoldDoc>) {
    let world = World::generate(WorldConfig {
        entities_per_topic: 150,
        ..WorldConfig::default()
    });
    let exported = ExportedKb::build(&world);
    let corpus = conll_like(&world, &exported, 7, 24);
    (FrozenKb::freeze(&exported.kb), corpus.docs)
}

fn bench_thread_scaling(c: &mut Criterion) {
    let (frozen, docs) = setup();
    let kb = &frozen;

    let mut group = c.benchmark_group("throughput_24_docs");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("aida_full_mw", threads),
            &threads,
            |b, &threads| {
                let m = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::full());
                b.iter(|| {
                    black_box(
                        run_method_with_threads(&m, &docs, threads)
                            .expect("thread pool")
                            .docs
                            .len(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_similarity_index(c: &mut Criterion) {
    let (frozen, docs) = setup();
    let kb = &frozen;
    // Every mention context with its candidate entities.
    let cases: Vec<_> = docs
        .iter()
        .flat_map(|d| {
            let ctx = DocumentContext::build(kb, &d.tokens);
            d.mentions
                .iter()
                .map(|m| {
                    let cands: Vec<_> =
                        kb.candidates(&m.mention.surface).iter().map(|c| c.entity).collect();
                    (ctx.for_mention(&m.mention), cands)
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let mut group = c.benchmark_group("simscore_corpus");
    group.sample_size(10);
    let obs = SimObs::default();
    let mut out = Vec::new();
    group.bench_function("batched", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (ctx, cands) in &cases {
                simscores_batch_into(kb, cands, ctx, KeywordWeighting::Npmi, &obs, &mut out);
                acc = out.iter().fold(acc, |a, &s| a + s);
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_thread_scaling, bench_similarity_index);
criterion_main!(benches);
