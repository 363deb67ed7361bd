//! The streaming workload `news_stream`: the Chapter 5 news stream with
//! emerging entities, one round per day, on a single thread.
//!
//! Each round builds the name models over the window, runs NED-EE
//! discovery on the day's documents over the current epoch, drains the
//! promotions, appends their mutations to a real WAL file, rebuilds the
//! `DeltaKb` overlay over all accumulated mutations, swaps it into the
//! `KbHandle`, and re-annotates the fixed emerging-entity evaluation set
//! through the new epoch. The whole stream repeats until the measuring
//! window is over; every repetition must produce the same outputs, the WAL
//! must replay to the accumulated mutations, and the compacted KB must
//! annotate the evaluation set exactly as the overlay does.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ned_aida::{AidaConfig, Disambiguator, NedMethod};
use ned_emerging::confidence::{ConfAssessor, ConfidenceMethod};
use ned_emerging::discover::{EeConfig, EeDiscovery};
use ned_emerging::ee_model::{EeModelConfig, NameModels};
use ned_emerging::policy::{PromotionPolicy, PromotionTracker};
use ned_eval::gold::{GoldDoc, Label};
use ned_kb::{DeltaKb, FrozenKb, KbEpoch, KbHandle, KbMutation, KbView, Wal};
use ned_obs::{names, Clock, Metrics};
use ned_relatedness::MilneWitten;
use ned_text::Mention;
use ned_wikigen::news::{generate_stream, NewsConfig};

use crate::common::{build_kb, counter, per, stage_ns_between, Ctx, Fp, Outcome, Setups};
use crate::json::Json;
use crate::probes::CountingKb;
use crate::stats::{add_repetition, item_percentile, median, Summary};
use crate::trace::{breakdown, Layer, SpanBuf, TraceClock};

struct Inputs {
    frozen: Arc<FrozenKb>,
    docs: Vec<GoldDoc>,
    mentions: Vec<Vec<Mention>>,
    n_days: u32,
    /// Indices of the evaluation set: every doc with a gold emerging mention.
    eval: Vec<usize>,
}

fn setup(ctx: &Ctx) -> Inputs {
    let kb = build_kb(ctx);
    let config = NewsConfig {
        n_days: ctx.usize("days") as u32,
        docs_per_day: ctx.usize("docs_per_day"),
        emerging_prob: ctx.num("emerging_prob"),
        burst_days: ctx.usize("burst_days") as u32,
    };
    let stream = generate_stream(&kb.world, &kb.exported, ctx.input_seed(), &config);
    let mentions = stream.docs.iter().map(GoldDoc::bare_mentions).collect();
    let eval = (0..stream.docs.len())
        .filter(|&i| stream.docs[i].out_of_kb_count() > 0)
        .collect();
    Inputs {
        frozen: kb.frozen,
        docs: stream.docs,
        mentions,
        n_days: stream.n_days,
        eval,
    }
}

/// Times `f`, as a span when tracing.
fn step<T>(
    buf: &mut Option<SpanBuf>,
    name: &'static str,
    layer: Layer,
    owner: u64,
    f: impl FnOnce() -> T,
) -> T {
    match buf {
        Some(b) => b.time(name, layer, owner, f),
        None => f(),
    }
}

/// What one pass over the stream produced.
#[derive(Debug, Default)]
struct StreamRun {
    wall_s: f64,
    docs_done: usize,
    fp: Fp,
    reannotate_ns: Vec<f64>,
    discover_ns: Vec<f64>,
    publish_ms: Vec<f64>,
    models_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    wal_append_ns: Vec<f64>,
    delta_build_ms: Vec<f64>,
    swap_us: Vec<f64>,
    ee_linked_accuracy: f64,
    final_accuracy: f64,
    final_mentions: usize,
    promoted: usize,
    wal_replay_ok: bool,
    handle: Option<Arc<KbHandle>>,
    spans: Option<SpanBuf>,
}

/// The evaluation set annotated through `kb`: the output fingerprint,
/// per-doc call times, and the final-round accuracies.
fn reannotate<K: KbView + Clone>(
    kb: K,
    inputs: &Inputs,
    tracker: &PromotionTracker,
    metrics: &Metrics,
    buf: &mut Option<SpanBuf>,
    times: &mut Vec<f64>,
) -> (Fp, f64, f64, usize) {
    let aida = Disambiguator::new(
        kb.clone(),
        MilneWitten::new(kb.clone()),
        AidaConfig::sim_only(),
    )
    .with_metrics(metrics);
    let mut fp = Fp::default();
    let (mut linked, mut ee_total, mut correct, mut total) = (0usize, 0usize, 0usize, 0usize);
    for &i in &inputs.eval {
        let doc = &inputs.docs[i];
        let t = Instant::now();
        let result = match buf {
            Some(b) => {
                b.enter("reannotate", Layer::Runner, i as u64);
                let features = b.time("features", Layer::AidaFeatures, i as u64, || {
                    aida.features(&doc.tokens, &inputs.mentions[i])
                });
                let r = b.time("disambiguate", Layer::AidaSolve, i as u64, || {
                    aida.disambiguate_features(&features)
                });
                b.exit();
                r
            }
            None => aida.disambiguate(&doc.tokens, &inputs.mentions[i]),
        };
        times.push(t.elapsed().as_nanos() as f64);
        fp = fp.result(&result);
        for (labeled, assignment) in doc.mentions.iter().zip(&result.assignments) {
            total += 1;
            let ok = match labeled.label {
                Some(gold) => assignment.entity == Some(gold),
                None => {
                    ee_total += 1;
                    let promoted = tracker.promoted_as(&labeled.mention.surface);
                    let hit = matches!((promoted, assignment.entity), (Some(name), Some(e)) if kb.entity(e).canonical_name == name);
                    linked += usize::from(hit);
                    hit
                }
            };
            correct += usize::from(ok);
        }
    }
    (
        fp,
        per(linked as f64, ee_total as f64),
        per(correct as f64, total as f64),
        total,
    )
}

/// NED-EE discovery of one day's docs over `kb`: each doc's labels
/// (`None` = emerging), with the per-doc `discover` time.
#[allow(clippy::too_many_arguments)]
fn discover_day<K: KbView + Clone>(
    kb: K,
    models: &NameModels,
    config: &EeConfig,
    metrics: &Metrics,
    inputs: &Inputs,
    day_docs: &[usize],
    buf: &mut Option<SpanBuf>,
    times: &mut Vec<f64>,
) -> Vec<(usize, Vec<Label>)> {
    let aida = Disambiguator::new(kb.clone(), MilneWitten::new(kb), AidaConfig::sim_only())
        .with_metrics(metrics);
    let discovery = EeDiscovery::new(&aida, models, config.clone()).with_metrics(metrics);
    day_docs
        .iter()
        .map(|&i| {
            let doc = &inputs.docs[i];
            let t = Instant::now();
            let (labels, _) = step(buf, "discover", Layer::Emerging, i as u64, || {
                discovery.discover(&doc.tokens, &inputs.mentions[i])
            });
            times.push(t.elapsed().as_nanos() as f64);
            (i, labels)
        })
        .collect()
}

/// One pass over the whole stream, writing its WAL at `wal_path`.
/// When tracing, `traced` carries the span clock, the registry for
/// discovery and the KB write path, and a separate registry for the
/// re-annotation disambiguator (so its stage times stand alone).
fn stream_run(
    ctx: &Ctx,
    inputs: &Inputs,
    wal_path: &Path,
    traced: Option<(TraceClock, &Metrics, &Metrics)>,
) -> StreamRun {
    let _ = std::fs::remove_file(wal_path);
    let disabled = Metrics::disabled();
    let metrics = traced.map_or(&disabled, |(_, m, _)| m);
    let reannot_metrics = traced.map_or(&disabled, |(_, _, m)| m);
    let mut buf = traced.map(|(clock, _, _)| SpanBuf::new(clock));
    let (mut wal, _) = Wal::open_observed(wal_path, metrics).expect("a fresh WAL opens");
    let handle = Arc::new(KbHandle::observed(
        KbEpoch::Frozen(Arc::clone(&inputs.frozen)),
        metrics,
    ));
    let policy = PromotionPolicy::default();
    let mut tracker = PromotionTracker::new();
    let mut accumulated: Vec<KbMutation> = Vec::new();
    let window_days = ctx.usize("window_days") as u32;
    let config = EeConfig {
        gamma: ctx.num("gamma"),
        assessor: ConfAssessor::new(ConfidenceMethod::Normalized),
        ..EeConfig::default()
    };
    let mut run = StreamRun::default();
    let start = Instant::now();
    for day in 0..inputs.n_days {
        if let Some(b) = buf.as_mut() {
            b.enter("round", Layer::Runner, u64::from(day));
        }
        let (_, epoch) = handle.current();
        let from = day.saturating_sub(window_days - 1);
        let window: Vec<&GoldDoc> = inputs
            .docs
            .iter()
            .filter(|d| d.day >= from && d.day <= day)
            .collect();
        let t = Instant::now();
        let models = step(&mut buf, "models", Layer::Emerging, u64::from(day), || {
            NameModels::build(&epoch, &window, 2, &EeModelConfig::default())
        });
        run.models_ms.push(t.elapsed().as_secs_f64() * 1e3);

        // Discovery over the current epoch (probed KB when tracing).
        let day_docs: Vec<usize> = (0..inputs.docs.len())
            .filter(|&i| inputs.docs[i].day == day)
            .collect();
        let labels_out = if traced.is_some() {
            discover_day(
                CountingKb(epoch.as_ref()),
                &models,
                &config,
                metrics,
                inputs,
                &day_docs,
                &mut buf,
                &mut run.discover_ns,
            )
        } else {
            discover_day(
                epoch.as_ref(),
                &models,
                &config,
                metrics,
                inputs,
                &day_docs,
                &mut buf,
                &mut run.discover_ns,
            )
        };
        for (i, labels) in &labels_out {
            for (mention, label) in inputs.mentions[*i].iter().zip(labels) {
                run.fp = run.fp.word(label.map_or(u64::MAX, |e| u64::from(e.0)));
                if label.is_none() {
                    tracker.observe_ee(&mention.surface, 1.0);
                }
            }
        }
        run.docs_done += day_docs.len();

        // Promote: drain, WAL append, overlay rebuild, epoch swap.
        let t = Instant::now();
        let promotions = step(&mut buf, "drain", Layer::Emerging, u64::from(day), || {
            tracker.drain_promotions(&policy, &models, epoch.as_ref(), metrics)
        });
        run.drain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let publish = Instant::now();
        for promotion in &promotions {
            run.fp = run.fp.word(promotion.canonical_name.len() as u64);
            for mutation in &promotion.mutations {
                let t = Instant::now();
                step(
                    &mut buf,
                    "wal_append",
                    Layer::KbWrite,
                    u64::from(day),
                    || wal.append(mutation),
                )
                .expect("WAL append succeeds");
                run.wal_append_ns.push(t.elapsed().as_nanos() as f64);
                accumulated.push(mutation.clone());
            }
        }
        if !promotions.is_empty() {
            let t = Instant::now();
            let delta = step(
                &mut buf,
                "delta_build",
                Layer::KbWrite,
                u64::from(day),
                || {
                    DeltaKb::build_observed(
                        Arc::clone(&inputs.frozen),
                        accumulated.clone(),
                        metrics,
                    )
                },
            )
            .expect("promotion mutations apply");
            run.delta_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            step(&mut buf, "swap", Layer::KbWrite, u64::from(day), || {
                handle.swap(KbEpoch::Delta(Arc::new(delta)))
            });
            run.swap_us.push(t.elapsed().as_secs_f64() * 1e6);
            run.publish_ms.push(publish.elapsed().as_secs_f64() * 1e3);
        }
        run.promoted += promotions.len();

        // Re-annotate the evaluation set through the new epoch.
        let (_, now) = handle.current();
        let (fp, ee_acc, acc, n) = if traced.is_some() {
            reannotate(
                CountingKb(now.as_ref()),
                inputs,
                &tracker,
                reannot_metrics,
                &mut buf,
                &mut run.reannotate_ns,
            )
        } else {
            reannotate(
                now.as_ref(),
                inputs,
                &tracker,
                reannot_metrics,
                &mut buf,
                &mut run.reannotate_ns,
            )
        };
        run.fp = run.fp.word(fp.0);
        run.ee_linked_accuracy = ee_acc;
        run.final_accuracy = acc;
        run.final_mentions = n;
        run.docs_done += inputs.eval.len();
        if let Some(b) = buf.as_mut() {
            b.exit();
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();

    let bytes = std::fs::read(wal_path).expect("the WAL reads back");
    run.wal_replay_ok = ned_kb::wal::replay(&bytes).is_ok_and(|r| r.mutations == accumulated);
    let _ = std::fs::remove_file(wal_path);
    run.handle = Some(handle);
    run.spans = buf;
    run
}

/// Re-annotation through the final overlay and through its compaction:
/// (outputs equal, overlay time / compacted time).
fn compaction_check(inputs: &Inputs, handle: &KbHandle) -> (bool, f64) {
    let (_, epoch) = handle.current();
    let KbEpoch::Delta(delta) = epoch.as_ref() else {
        return (true, 1.0);
    };
    let compacted = Arc::new(delta.compact().expect("compaction succeeds"));
    let tracker = PromotionTracker::new();
    let none = Metrics::disabled();
    let (mut overlay_s, mut frozen_s) = (Vec::new(), Vec::new());
    let mut equal = true;
    // Alternate the two read paths so drift affects both alike.
    for _ in 0..3 {
        let mut t = Vec::new();
        let (a, ..) = reannotate(epoch.as_ref(), inputs, &tracker, &none, &mut None, &mut t);
        overlay_s.push(t.iter().sum::<f64>());
        let mut t = Vec::new();
        let (b, ..) = reannotate(&compacted, inputs, &tracker, &none, &mut None, &mut t);
        frozen_s.push(t.iter().sum::<f64>());
        equal &= a == b;
    }
    (equal, per(median(&overlay_s), median(&frozen_s)))
}

fn wal_path(ctx: &Ctx) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("the output directory can be created");
    dir.join(format!(
        "news_stream-seed{}-{}.wal",
        ctx.seed,
        std::process::id()
    ))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, mut setups) = Setups::first(ctx.setup_repeats(), || setup(ctx));
    let wal = wal_path(ctx);

    // The first pass is the reference (and warm-up); its compaction check
    // runs once.
    let reference = stream_run(ctx, &inputs, &wal, None);
    let handle = reference.handle.as_ref().expect("a pass keeps its handle");
    let (compaction_ok, delta_read_ratio) = compaction_check(&inputs, handle);
    out.check("compacted_kb_matches_overlay", compaction_ok);
    out.fingerprint = format!("{:016x}", reference.fp.0);
    let mut bad = u64::from(!compaction_ok) + u64::from(!reference.wal_replay_ok);
    out.attempted += reference.docs_done as u64;

    let window = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut runs = Vec::new();
    let start = Instant::now();
    while runs.is_empty() || start.elapsed().as_secs_f64() < window {
        let mut run = stream_run(ctx, &inputs, &wal, None);
        // Keep no pass's KB alive past the pass, or memory grows with the
        // number of passes and slows the later ones.
        run.handle = None;
        bad += u64::from(run.fp != reference.fp) + u64::from(!run.wal_replay_ok);
        out.attempted += run.docs_done as u64;
        runs.push(run);
        setups.between(start.elapsed().as_secs_f64() / window, || setup(ctx));
    }
    setups.finish(&mut out, || setup(ctx));
    out.check(
        "wal_replay_equals_mutations",
        reference.wal_replay_ok && runs.iter().all(|r| r.wal_replay_ok),
    );
    out.check(
        "repeated_streams_match_reference",
        runs.iter().all(|r| r.fp == reference.fp),
    );

    let rates: Vec<f64> = runs.iter().map(|r| r.docs_done as f64 / r.wall_s).collect();
    out.metric("docs_per_s", Summary::of(&rates));
    // Each (round, doc) re-annotation's time is its median over the
    // passes; p50 and p99 are taken over those.
    let mut reannotate_ms = Vec::new();
    for r in &runs {
        add_repetition(
            &mut reannotate_ms,
            r.reannotate_ns.iter().map(|ns| ns / 1e6),
        );
    }
    out.metric("reannotate_p50_ms", item_percentile(&reannotate_ms, 50.0));
    out.metric("reannotate_p99_ms", item_percentile(&reannotate_ms, 99.0));
    let publish: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.publish_ms.iter().copied())
        .collect();
    out.metric("publish_p50_ms", Summary::of(&publish));
    out.metric(
        "ee_linked_accuracy",
        Summary::single(reference.ee_linked_accuracy, inputs.eval.len()),
    );
    out.metric(
        "final_accuracy_micro",
        Summary::single(reference.final_accuracy, reference.final_mentions),
    );
    out.failed = bad;
    out.detail
        .push(("stream_passes".into(), Json::Num(runs.len() as f64)));
    out.detail.push((
        "pass_walls_s".into(),
        Json::Arr(runs.iter().map(|r| Json::Num(r.wall_s)).collect()),
    ));
    out.detail
        .push(("days".into(), Json::Num(f64::from(inputs.n_days))));
    out.detail
        .push(("stream_docs".into(), Json::Num(inputs.docs.len() as f64)));
    out.detail
        .push(("eval_docs".into(), Json::Num(inputs.eval.len() as f64)));
    out.detail.push((
        "promotions_per_pass".into(),
        Json::Num(reference.promoted as f64),
    ));
    out.detail.push((
        "publish_rounds_per_pass".into(),
        Json::Num(reference.publish_ms.len() as f64),
    ));

    if ctx.trace {
        let metrics = Metrics::new().with_clock(Clock::system());
        let reannot_metrics = Metrics::new().with_clock(Clock::system());
        let clock = TraceClock::new();
        let traced = stream_run(
            ctx,
            &inputs,
            &wal,
            Some((clock, &metrics, &reannot_metrics)),
        );
        out.check("traced_stream_matches_reference", traced.fp == reference.fp);
        out.failed += u64::from(traced.fp != reference.fp);
        let untraced = median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        out.layer("trace.overhead_ratio", per(traced.wall_s, untraced));
        let spans = traced.spans.expect("a traced pass records spans");
        let snap = metrics.snapshot();
        // Discovery runs the pipeline inside `discover`; the stage time its
        // disambiguator measured moves from ned-emerging to ned-aida.
        let mut b = breakdown(&spans.spans, None);
        let (features_ns, solve_ns) = stage_ns_between(&ned_obs::MetricsSnapshot::default(), &snap);
        b.attribute(Layer::Emerging, Layer::AidaFeatures, features_ns);
        b.attribute(Layer::Emerging, Layer::AidaSolve, solve_ns);
        out.check("trace_spans_nest", b.nested);
        let reannot = reannot_metrics.snapshot();
        out.aida_layers(&reannot);
        let docs = counter(&reannot, names::AIDA_DOCS);
        let rounds = f64::from(inputs.n_days);
        let mean = |v: &[f64]| per(v.iter().sum(), v.len() as f64);
        let span_ns = |name: &str| -> f64 {
            spans
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64)
                .sum()
        };
        // KB reads and relatedness calls of the re-annotation docs only.
        let reannot_agg = spans
            .spans
            .iter()
            .filter(|s| s.name == "reannotate")
            .fold(crate::trace::Agg::default(), |a, s| a.plus(s.agg));
        out.probe_layers(&reannot_agg, docs);
        let (features, disambiguate) = (span_ns("features"), span_ns("disambiguate"));
        let stage_sum = crate::common::hist_sum(&reannot, names::STAGE_FEATURES_NS)
            + crate::common::hist_sum(&reannot, names::STAGE_GRAPH_NS)
            + crate::common::hist_sum(&reannot, names::STAGE_SOLVER_NS);
        out.layer("aida.features_ns", per(features, docs));
        out.layer("aida.disambiguate_ns", per(disambiguate, docs));
        out.layer(
            "aida.unattributed_ns",
            per(features + disambiguate - stage_sum, docs),
        );
        out.check(
            "aida_stage_sums_fit_inside_timed_calls",
            features + disambiguate >= stage_sum,
        );
        out.layer("kb.delta_read_ratio", delta_read_ratio);
        out.layer("kb.wal_append_us", mean(&traced.wal_append_ns) / 1e3);
        out.layer("kb.delta_build_ms", mean(&traced.delta_build_ms));
        out.layer("kb.swap_us", mean(&traced.swap_us));
        out.layer("kb_wal_records", counter(&snap, names::KB_WAL_RECORDS));
        out.layer(
            "kb_delta_entities",
            snap.gauge(names::KB_DELTA_ENTITIES) as f64,
        );
        out.layer("kb_epoch_swaps", counter(&snap, names::KB_EPOCH_SWAPS));
        out.layer("ee.models_ms", mean(&traced.models_ms));
        out.layer("ee.discover_ns", mean(&traced.discover_ns));
        out.layer("ee.drain_ms", mean(&traced.drain_ms));
        out.layer(
            "ee_mentions_emerging",
            counter(&snap, names::EE_MENTIONS_EMERGING) / rounds,
        );
        out.layer("ee_promoted", counter(&snap, names::EE_PROMOTED));
        out.attempted += traced.docs_done as u64;
        out.breakdown = Some(b);
        out.spans = spans.spans;
    }
    out
}
