//! The closed-loop batch workloads `conll_mw` and `kore50_kore`.
//!
//! A pass disambiguates the whole corpus on a rayon pool of `nproc`
//! threads with a fresh relatedness cache, timing each document's
//! `disambiguate` call. Passes repeat until the measuring window is over;
//! every pass's per-document fingerprints (labels and score bits) must
//! equal those of a one-thread reference pass.

use std::sync::Arc;
use std::time::Instant;

use ned_aida::{AidaConfig, Disambiguator, NedMethod};
use ned_eval::gold::{GoldDoc, Label};
use ned_kb::{FrozenKb, KbView};
use ned_obs::{Clock, Metrics};
use ned_relatedness::{CachedRelatedness, Kore, MilneWitten, Relatedness};
use ned_text::Mention;
use ned_wikigen::corpus::{conll_like, kore50_like};
use rayon::prelude::*;
use rayon::ThreadPool;

use crate::common::{build_kb, per, Ctx, Fp, Outcome, Setups};
use crate::json::Json;
use crate::probes::{CountingKb, RelRole, TimedRel};
use crate::stats::{add_repetition, item_percentile, tail_percentile, Summary};
use crate::trace::{breakdown, Layer, SpanBuf, TraceClock};

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ConllMw,
    Kore50Kore,
}

struct Inputs {
    frozen: Arc<FrozenKb>,
    docs: Vec<GoldDoc>,
    mentions: Vec<Vec<Mention>>,
    kore: Option<Kore>,
}

fn setup(ctx: &Ctx, kind: Kind) -> Inputs {
    let kb = build_kb(ctx);
    let n = ctx.usize("docs");
    // Several corpora of the stated size, so one run's figures do not hang
    // on the few largest documents of a single corpus.
    let mut docs = Vec::new();
    for k in 0..ctx.usize("corpora") as u64 {
        let seed = ctx.input_seed().wrapping_add(k.wrapping_mul(0x9e37_79b9));
        let corpus = match kind {
            Kind::ConllMw => conll_like(&kb.world, &kb.exported, seed, n),
            Kind::Kore50Kore => kore50_like(&kb.world, &kb.exported, seed, n),
        };
        docs.extend(corpus.docs);
    }
    let kore = (kind == Kind::Kore50Kore).then(|| Kore::new(&kb.frozen));
    let mentions = docs.iter().map(GoldDoc::bare_mentions).collect();
    Inputs {
        frozen: kb.frozen,
        docs,
        mentions,
        kore,
    }
}

/// One document's outcome in a pass.
#[derive(Debug, Clone, Copy)]
struct DocOut {
    ns: u64,
    fp: Fp,
    labels: Fp,
    correct: usize,
    total: usize,
}

fn score(gold: &GoldDoc, labels: &[Label]) -> (usize, usize) {
    let correct = gold
        .mentions
        .iter()
        .zip(labels)
        .filter(|(m, l)| m.label == **l)
        .count();
    (correct, gold.mentions.len())
}

/// One untraced pass: `disambiguate` per doc, timed around the call.
fn pass<K: KbView, R: Relatedness>(
    pool: &ThreadPool,
    aida: &Disambiguator<K, R>,
    inputs: &Inputs,
) -> (Vec<DocOut>, f64) {
    let idx: Vec<usize> = (0..inputs.docs.len()).collect();
    let start = Instant::now();
    let out = pool.install(|| {
        idx.par_iter()
            .map(|&i| {
                let doc = &inputs.docs[i];
                let t = Instant::now();
                let result = aida.disambiguate(&doc.tokens, &inputs.mentions[i]);
                let ns = t.elapsed().as_nanos() as u64;
                let (correct, total) = score(doc, &result.labels());
                DocOut {
                    ns,
                    fp: Fp::default().result(&result),
                    labels: label_fp(&result),
                    correct,
                    total,
                }
            })
            .collect::<Vec<_>>()
    });
    (out, start.elapsed().as_secs_f64())
}

/// One traced pass: `features` and `disambiguate_features` as child spans
/// of a per-doc span, on the probed KB and relatedness handles.
fn traced_pass<K: KbView, R: Relatedness>(
    pool: &ThreadPool,
    aida: &Disambiguator<K, R>,
    inputs: &Inputs,
    clock: TraceClock,
) -> (Vec<DocOut>, SpanBuf, f64, [u64; 2]) {
    let idx: Vec<usize> = (0..inputs.docs.len()).collect();
    let start = Instant::now();
    let out = pool.install(|| {
        idx.par_iter()
            .map(|&i| {
                let doc = &inputs.docs[i];
                let mut buf = SpanBuf::new(clock);
                let t = Instant::now();
                buf.enter("doc", Layer::Runner, i as u64);
                let features = buf.time("features", Layer::AidaFeatures, i as u64, || {
                    aida.features(&doc.tokens, &inputs.mentions[i])
                });
                let t_mid = t.elapsed().as_nanos() as u64;
                let result = buf.time("disambiguate", Layer::AidaSolve, i as u64, || {
                    aida.disambiguate_features(&features)
                });
                buf.exit();
                let ns = t.elapsed().as_nanos() as u64;
                let (correct, total) = score(doc, &result.labels());
                (
                    DocOut {
                        ns,
                        fp: Fp::default().result(&result),
                        labels: label_fp(&result),
                        correct,
                        total,
                    },
                    buf,
                    [t_mid, ns - t_mid],
                )
            })
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut spans = SpanBuf::new(clock);
    let mut docs = Vec::with_capacity(out.len());
    let mut call_ns = [0u64; 2];
    for (d, buf, calls) in out {
        docs.push(d);
        spans.absorb(buf);
        call_ns[0] += calls[0];
        call_ns[1] += calls[1];
    }
    (docs, spans, wall, call_ns)
}

/// Labels alone, to tell a changed answer from a changed score.
fn label_fp(r: &ned_aida::DisambiguationResult) -> Fp {
    r.labels().iter().fold(Fp::default(), |f, l| {
        f.word(l.map_or(u64::MAX, |e| u64::from(e.0)))
    })
}

/// Docs whose fingerprint differs from the reference, and how many of
/// those also changed a label.
fn mismatches(reference: &[DocOut], got: &[DocOut]) -> (u64, u64) {
    let missing = reference.len().abs_diff(got.len()) as u64;
    let pairs = || reference.iter().zip(got);
    let docs = pairs().filter(|(a, b)| a.fp != b.fp).count() as u64;
    let labels = pairs().filter(|(a, b)| a.labels != b.labels).count() as u64;
    (docs + missing, labels + missing)
}

fn pool(threads: usize) -> ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
}

/// Runs one batch pass with the workload's production measure.
fn run_pass(pool: &ThreadPool, inputs: &Inputs) -> (Vec<DocOut>, f64) {
    let frozen = Arc::clone(&inputs.frozen);
    match &inputs.kore {
        Some(kore) => {
            let cached = CachedRelatedness::new(kore);
            pass(
                pool,
                &Disambiguator::new(frozen, &cached, AidaConfig::full()),
                inputs,
            )
        }
        None => {
            let cached = CachedRelatedness::new(MilneWitten::new(Arc::clone(&frozen)));
            pass(
                pool,
                &Disambiguator::new(frozen, &cached, AidaConfig::full()),
                inputs,
            )
        }
    }
}

pub fn run(ctx: &Ctx, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, mut setups) = Setups::first(ctx.setup_repeats(), || setup(ctx, kind));

    // Reference pass on one thread: the outputs every later pass must match.
    let (reference, _) = run_pass(&pool(1), &inputs);
    let fp = reference.iter().fold(Fp::default(), |f, d| f.word(d.fp.0));
    out.fingerprint = format!("{:016x}", fp.0);
    let correct: usize = reference.iter().map(|d| d.correct).sum();
    let total: usize = reference.iter().map(|d| d.total).sum();
    let accuracy = per(correct as f64, total as f64);
    let docs = inputs.docs.len();
    assert!(
        tail_percentile(docs) >= Some(99.0),
        "a pass needs at least 1,000 docs so p99 has ten samples beyond it"
    );

    let pool = pool(ctx.nproc);
    let window = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut rates = Vec::new();
    let mut doc_ms: Vec<Vec<f64>> = Vec::new();
    let mut efficiency = Vec::new();
    let mut pass_walls = Vec::new();
    let (mut bad, mut bad_labels) = (0, 0);
    let start = Instant::now();
    while rates.is_empty() || start.elapsed().as_secs_f64() < window {
        let (got, wall) = run_pass(&pool, &inputs);
        let (docs_off, labels_off) = mismatches(&reference, &got);
        bad += docs_off;
        bad_labels += labels_off;
        let ms: Vec<f64> = got.iter().map(|d| d.ns as f64 / 1e6).collect();
        rates.push(docs as f64 / wall);
        efficiency.push(ms.iter().sum::<f64>() / 1e3 / (ctx.nproc as f64 * wall));
        add_repetition(&mut doc_ms, ms);
        pass_walls.push(wall);
        out.attempted += docs as u64;
        setups.between(start.elapsed().as_secs_f64() / window, || setup(ctx, kind));
    }
    setups.finish(&mut out, || setup(ctx, kind));
    out.check("passes_match_1thread_reference", bad == 0);
    out.failed += bad;
    out.detail
        .push(("mismatched_docs".into(), Json::Num(bad as f64)));
    out.detail
        .push(("mismatched_label_docs".into(), Json::Num(bad_labels as f64)));

    out.metric("docs_per_s", Summary::of(&rates));
    // Per-doc time is the doc's median over the passes; p50 and p99 are
    // taken over docs.
    out.metric("doc_p50_ms", item_percentile(&doc_ms, 50.0));
    out.metric("doc_p99_ms", item_percentile(&doc_ms, 99.0));
    out.metric("accuracy_micro", Summary::single(accuracy, total));
    out.detail
        .push(("passes".into(), Json::Num(rates.len() as f64)));
    out.detail
        .push(("docs_per_pass".into(), Json::Num(docs as f64)));
    out.detail
        .push(("mentions_per_pass".into(), Json::Num(total as f64)));

    if ctx.trace {
        traced(
            ctx,
            &inputs,
            &reference,
            &pool,
            &pass_walls,
            &efficiency,
            &mut out,
        );
    }
    out
}

/// The traced passes: per-layer metrics, spans and the tracing overhead.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    inputs: &Inputs,
    reference: &[DocOut],
    pool: &ThreadPool,
    untraced_walls: &[f64],
    efficiency: &[f64],
    out: &mut Outcome,
) {
    let metrics = Metrics::new().with_clock(Clock::system());
    let clock = TraceClock::new();
    let kb = CountingKb(Arc::clone(&inputs.frozen));
    let passes = untraced_walls.len().clamp(1, 2);
    let mut walls = Vec::new();
    let mut spans = SpanBuf::new(clock);
    let mut lane_ns = 0u64;
    let mut call_ns = [0u64; 2];
    let mut bad = 0;
    for _ in 0..passes {
        let (got, buf, wall, calls) = match &inputs.kore {
            Some(kore) => {
                let inner = TimedRel {
                    inner: kore,
                    role: RelRole::Compute,
                };
                let cached = CachedRelatedness::with_metrics(inner, &metrics);
                let handle = TimedRel {
                    inner: &cached,
                    role: RelRole::Handle,
                };
                let aida = Disambiguator::new(kb.clone(), handle, AidaConfig::full())
                    .with_metrics(&metrics);
                traced_pass(pool, &aida, inputs, clock)
            }
            None => {
                let inner = TimedRel {
                    inner: MilneWitten::new(Arc::clone(&inputs.frozen)),
                    role: RelRole::Compute,
                };
                let cached = CachedRelatedness::with_metrics(inner, &metrics);
                let handle = TimedRel {
                    inner: &cached,
                    role: RelRole::Handle,
                };
                let aida = Disambiguator::new(kb.clone(), handle, AidaConfig::full())
                    .with_metrics(&metrics);
                traced_pass(pool, &aida, inputs, clock)
            }
        };
        bad += mismatches(reference, &got).0;
        out.attempted += got.len() as u64;
        walls.push(wall);
        // Lane time: every pool thread for the whole pass.
        lane_ns += (wall * 1e9) as u64 * ctx.nproc as u64;
        call_ns[0] += calls[0];
        call_ns[1] += calls[1];
        spans.absorb(buf);
    }
    out.check("traced_passes_match_1thread_reference", bad == 0);
    out.failed += bad;

    let snap = metrics.snapshot();
    let n_docs = crate::common::counter(&snap, ned_obs::names::AIDA_DOCS);
    out.aida_layers(&snap);
    let stage_sum = crate::common::hist_sum(&snap, ned_obs::names::STAGE_FEATURES_NS)
        + crate::common::hist_sum(&snap, ned_obs::names::STAGE_GRAPH_NS)
        + crate::common::hist_sum(&snap, ned_obs::names::STAGE_SOLVER_NS);
    let timed = (call_ns[0] + call_ns[1]) as f64;
    out.layer("aida.features_ns", per(call_ns[0] as f64, n_docs));
    out.layer("aida.disambiguate_ns", per(call_ns[1] as f64, n_docs));
    out.layer("aida.unattributed_ns", per(timed - stage_sum, n_docs));
    out.check("aida_stage_sums_fit_inside_timed_calls", timed >= stage_sum);

    let b = breakdown(&spans.spans, Some(lane_ns));
    out.check("trace_spans_nest", b.nested);
    out.probe_layers(&b.agg, n_docs);
    out.layer(
        "batch.parallel_efficiency",
        crate::stats::median(efficiency),
    );
    let traced_mean = walls.iter().sum::<f64>() / walls.len() as f64;
    let untraced_mean = untraced_walls.iter().sum::<f64>() / untraced_walls.len() as f64;
    out.layer("trace.overhead_ratio", per(traced_mean, untraced_mean));
    out.breakdown = Some(b);
    out.spans = spans.spans;
}
