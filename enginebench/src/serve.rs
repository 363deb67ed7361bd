//! The open-loop serving workload `serve_wp`.
//!
//! WP-like documents are rendered to raw text and sent as `ServeRequest`s
//! (with the per-request deadline) to a `ned_serve::Service` running an
//! `AidaHandler` over `Arc<FrozenKb>` and one shared, cached Milne–Witten
//! measure. One generator thread sends on a fixed-interval schedule
//! whatever the service does (an open loop); a collector thread waits for
//! the answers. Each request's latency counts from the time it was due to
//! be sent, so a generator stall is charged to every request it delayed.
//!
//! Phases: a `light` and a `heavy` rate, then a ladder of rates that gives
//! `max_rate_rps`. Every full-fidelity answer must equal a sequential
//! replay of the same text through the same handler.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use ned_aida::{AidaConfig, Annotation, DeadlinePlan, Disambiguator, JointConfig};
use ned_core::{DegradationLevel, ServeError, ServeRequest};
use ned_eval::gold::GoldDoc;
use ned_kb::FrozenKb;
use ned_obs::{names, Clock, Metrics};
use ned_relatedness::{CachedRelatedness, MilneWitten};
use ned_serve::{AidaHandler, AnnotateHandler, Service, ServiceConfig, Ticket};
use ned_text::tokenize;
use ned_wikigen::corpus::wp_like;

use crate::common::{build_kb, per, stage_ns_between, Ctx, Fp, Outcome, Setups};
use crate::json::{obj, Json};
use crate::probes::{CountingKb, HandlerTiming, RelRole, SharedHandler, TimedHandler, TimedRel};
use crate::stats::{
    generator_lags_ns, item_percentile, median, open_loop_latency_ns, percentile, schedule_ns,
    tail_percentile, Summary,
};
use crate::trace::{breakdown, Agg, Layer, SpanRec, TraceClock};

type Mw = MilneWitten<Arc<FrozenKb>>;
type ProdHandler = AidaHandler<Arc<FrozenKb>, Arc<CachedRelatedness<Mw>>>;
type TracedHandler = TimedHandler<
    AidaHandler<CountingKb<Arc<FrozenKb>>, TimedRel<Arc<CachedRelatedness<TimedRel<Mw>>>>>,
>;

struct Inputs {
    frozen: Arc<FrozenKb>,
    docs: Vec<GoldDoc>,
    texts: Vec<String>,
    handler: Arc<ProdHandler>,
}

/// Fixed serving parameters from `spec.json`.
#[derive(Debug, Clone, Copy)]
struct Params {
    workers: usize,
    queue_capacity: usize,
    deadline_ms: u64,
    limit_ns: u64,
    target: f64,
}

fn service_config(p: &Params) -> ServiceConfig {
    ServiceConfig {
        workers: p.workers,
        queue_capacity: p.queue_capacity,
        default_deadline_ms: None,
        shed_expired: false,
        clock: Clock::system(),
        ..ServiceConfig::default()
    }
}

fn setup(ctx: &Ctx, p: &Params) -> Inputs {
    let kb = build_kb(ctx);
    let corpus = wp_like(&kb.world, &kb.exported, ctx.input_seed(), ctx.usize("docs"));
    let texts: Vec<String> = corpus.docs.iter().map(GoldDoc::text).collect();
    let cache = Arc::new(CachedRelatedness::new(MilneWitten::new(Arc::clone(
        &kb.frozen,
    ))));
    let handler = AidaHandler::try_new(
        Arc::clone(&kb.frozen),
        cache,
        AidaConfig::full(),
        JointConfig::default(),
    )
    .expect("AidaConfig::full() is valid");
    let handler = Arc::new(handler);
    // Service start (and its drain) belongs to set-up.
    let service = Service::start(
        SharedHandler(Arc::clone(&handler)),
        service_config(p),
        &Metrics::disabled(),
    )
    .expect("service starts");
    service.shutdown();
    Inputs {
        frozen: kb.frozen,
        docs: corpus.docs,
        texts,
        handler,
    }
}

fn annotations_fp(annotations: &[Annotation]) -> Fp {
    annotations
        .iter()
        .fold(Fp::default().word(annotations.len() as u64), |f, a| {
            f.word(a.mention.token_start as u64)
                .word(a.mention.token_end as u64)
                .word(u64::from(a.entity.0))
                .word(a.confidence.to_bits())
        })
}

/// Gold mentions answered right: an in-KB mention needs an annotation on
/// its span with its entity; an out-of-KB one needs no annotation there.
fn score(doc: &GoldDoc, annotations: &[Annotation]) -> (usize, usize) {
    let correct = doc
        .mentions
        .iter()
        .filter(|m| {
            let on_span = annotations.iter().find(|a| {
                a.mention.token_start == m.mention.token_start
                    && a.mention.token_end == m.mention.token_end
            });
            match (m.label, on_span) {
                (Some(e), Some(a)) => a.entity == e,
                (None, None) => true,
                _ => false,
            }
        })
        .count();
    (correct, doc.mentions.len())
}

/// One sequential replay of every text through the handler at full
/// fidelity (a closed loop of one caller).
struct Replay {
    fps: Vec<Fp>,
    answers: Vec<Vec<Annotation>>,
    wall_s: f64,
}

fn replay<H: AnnotateHandler>(handler: &H, texts: &[String]) -> Replay {
    let start = std::time::Instant::now();
    let mut r = Replay {
        fps: Vec::new(),
        answers: Vec::new(),
        wall_s: 0.0,
    };
    for (i, text) in texts.iter().enumerate() {
        let out = handler.handle(
            &ServeRequest::new(i as u64, text.as_str()),
            &DeadlinePlan::Full,
        );
        r.fps.push(annotations_fp(&out.annotations));
        r.answers.push(out.annotations);
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

/// One request's fate.
#[derive(Debug, Clone, Copy)]
struct Rec {
    id: u64,
    due_ns: u64,
    sent_ns: u64,
    /// Submit-to-answer time reported by the service (0 if rejected).
    service_ns: u64,
    queue_wait_ns: u64,
    /// Answered at full fidelity.
    full: bool,
    degraded: bool,
    /// Rejected at admission, shed, or failed.
    failed: bool,
    mismatch: bool,
}

impl Rec {
    fn latency_ns(&self) -> u64 {
        open_loop_latency_ns(self.due_ns, self.sent_ns, self.service_ns)
    }

    /// Dequeue to answer: the worker's time on this request.
    fn handler_ns(&self) -> u64 {
        self.service_ns.saturating_sub(self.queue_wait_ns)
    }
}

#[derive(Debug)]
struct Phase {
    rate: f64,
    wall_s: f64,
    recs: Vec<Rec>,
    queue_depth_peak: u64,
}

impl Phase {
    fn offered(&self) -> usize {
        self.recs.len()
    }

    fn good(&self, limit_ns: u64) -> usize {
        self.recs
            .iter()
            .filter(|r| r.full && !r.mismatch && r.latency_ns() <= limit_ns)
            .count()
    }

    fn good_share(&self, limit_ns: u64) -> f64 {
        per(self.good(limit_ns) as f64, self.offered() as f64)
    }

    fn failed(&self) -> usize {
        self.recs.iter().filter(|r| r.failed).count()
    }

    fn mismatches(&self) -> usize {
        self.recs.iter().filter(|r| r.mismatch).count()
    }

    /// Latencies in ms; failed and refused requests count as missing any
    /// limit, so they enter as infinitely late.
    fn latencies_ms(&self) -> Vec<f64> {
        self.recs
            .iter()
            .map(|r| {
                if r.failed {
                    f64::INFINITY
                } else {
                    r.latency_ns() as f64 / 1e6
                }
            })
            .collect()
    }

    /// The backlog grows when the last fifth of requests waits clearly
    /// longer than the first fifth, or admission refused requests.
    fn backlog_growing(&self) -> bool {
        let lat = self.latencies_ms();
        let k = (lat.len() / 5).max(1);
        let first = median(&lat[..k.min(lat.len())]);
        let last = median(&lat[lat.len().saturating_sub(k)..]);
        self.failed() > 0 || last > 2.0 * first + 1.0
    }

    /// Per-window percentile `p` of latency, over consecutive windows of
    /// `per_window` requests (in send order), as a median with quartiles:
    /// one stall moves one window, not the phase's figure.
    fn windowed(&self, p: f64, per_window: usize) -> Summary {
        let lat = self.latencies_ms();
        let windows: Vec<f64> = lat
            .chunks_exact(per_window.max(1))
            .map(|w| percentile(w, p))
            .collect();
        let mut s = if windows.is_empty() {
            Summary::single(percentile(&lat, p), 0)
        } else {
            Summary::of(&windows)
        };
        s.n = lat.len();
        s
    }

    fn lags_ns(&self) -> Vec<f64> {
        let due: Vec<u64> = self.recs.iter().map(|r| r.due_ns).collect();
        let sent: Vec<u64> = self.recs.iter().map(|r| r.sent_ns).collect();
        generator_lags_ns(&due, &sent)
            .into_iter()
            .map(|ns| ns as f64)
            .collect()
    }
}

/// The text request `i` of a phase starting at id `first_id` carries: the
/// seeded corpus, cycled in order across all phases.
fn text_of(first_id: u64, i: usize, texts: usize) -> usize {
    (first_id as usize + i) % texts
}

/// Runs one open-loop phase against a fresh service.
#[allow(clippy::too_many_arguments)]
fn phase<H: AnnotateHandler + 'static>(
    handler: Arc<H>,
    p: &Params,
    rate: f64,
    seconds: f64,
    first_id: u64,
    texts: &[String],
    reference: &[Fp],
    metrics: &Metrics,
    clock: TraceClock,
) -> Phase {
    let count = ((rate * seconds).round() as usize).max(1);
    let due = schedule_ns(rate, count);
    let service =
        Service::start(SharedHandler(handler), service_config(p), metrics).expect("service starts");
    let (tx, rx) = mpsc::channel::<(usize, u64, Result<Ticket, ServeError>)>();
    let t0 = clock.now_ns();
    let recs = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut recs = Vec::with_capacity(count);
            for (i, sent_ns, submitted) in rx {
                let text = text_of(first_id, i, texts.len());
                let mut rec = Rec {
                    id: first_id + i as u64,
                    due_ns: due[i],
                    sent_ns,
                    service_ns: 0,
                    queue_wait_ns: 0,
                    full: false,
                    degraded: false,
                    failed: true,
                    mismatch: false,
                };
                if let Ok(ticket) = submitted {
                    let response = ticket.wait();
                    rec.service_ns = response.latency_ns;
                    rec.queue_wait_ns = response.queue_wait_ns;
                    if let Ok(annotations) = &response.result {
                        rec.failed = false;
                        rec.degraded = response.degradation != DegradationLevel::None;
                        rec.full = !rec.degraded;
                        rec.mismatch = rec.full && annotations_fp(annotations) != reference[text];
                    }
                }
                recs.push(rec);
            }
            recs
        });
        for (i, &offset) in due.iter().enumerate() {
            let now = clock.now_ns() - t0;
            if now < offset {
                std::thread::sleep(Duration::from_nanos(offset - now));
            }
            let sent = clock.now_ns() - t0;
            let text = &texts[text_of(first_id, i, texts.len())];
            let request = ServeRequest::new(first_id + i as u64, text.as_str())
                .with_deadline_ms(p.deadline_ms);
            if tx.send((i, sent, service.submit(request))).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("collector thread does not panic")
    });
    let wall_s = (clock.now_ns() - t0) as f64 / 1e9;
    let stats = service.shutdown();
    // Rebase the schedule onto the trace clock for span output.
    let recs = recs
        .into_iter()
        .map(|mut r| {
            r.due_ns += t0;
            r.sent_ns += t0;
            r
        })
        .collect();
    Phase {
        rate,
        wall_s,
        recs,
        queue_depth_peak: stats.queue_depth_peak,
    }
}

/// Runs every phase: light, heavy, then the ladder. `between` runs after
/// each phase, when the service is down, with the share of the phase time
/// done.
#[allow(clippy::too_many_arguments)]
fn all_phases<H: AnnotateHandler + 'static>(
    ctx: &Ctx,
    handler: &Arc<H>,
    p: &Params,
    inputs: &Inputs,
    reference: &[Fp],
    metrics: &Metrics,
    clock: TraceClock,
    between: &mut dyn FnMut(f64),
) -> (Phase, Phase, Vec<Phase>) {
    let shares = ctx
        .spec
        .get("phase_shares")
        .expect("spec.json phase_shares");
    let share = |k: &str| shares.num(k).expect("spec.json phase share");
    let ladder: Vec<f64> = ctx
        .spec
        .arr("ladder_rps")
        .expect("spec.json ladder_rps")
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let mut next_id = 0u64;
    let mut done = 0.0;
    let mut run = |rate: f64, share: f64| {
        let ph = phase(
            Arc::clone(handler),
            p,
            rate,
            ctx.seconds * share,
            next_id,
            &inputs.texts,
            reference,
            metrics,
            clock,
        );
        next_id += ph.recs.len() as u64;
        done += share;
        between(done);
        ph
    };
    // A short warm-up at the light rate starts threads and fills pages;
    // its requests are not reported.
    let _warm_up = run(ctx.num("light_rps"), share("warm_up"));
    let light = run(ctx.num("light_rps"), share("light"));
    let heavy = run(ctx.num("heavy_rps"), share("heavy"));
    let step = share("ladder") / ladder.len().max(1) as f64;
    let steps = ladder.iter().map(|&rate| run(rate, step)).collect();
    (light, heavy, steps)
}

fn phase_json(name: &str, ph: &Phase, limit_ns: u64) -> Json {
    let lat = ph.latencies_ms();
    obj([
        ("phase", Json::Str(name.into())),
        ("rate_rps", Json::Num(ph.rate)),
        ("offered", Json::Num(ph.offered() as f64)),
        (
            "full",
            Json::Num(ph.recs.iter().filter(|r| r.full).count() as f64),
        ),
        (
            "degraded",
            Json::Num(ph.recs.iter().filter(|r| r.degraded).count() as f64),
        ),
        ("failed", Json::Num(ph.failed() as f64)),
        ("mismatches", Json::Num(ph.mismatches() as f64)),
        ("good_share", Json::Num(ph.good_share(limit_ns))),
        ("p50_ms", Json::Num(percentile(&lat, 50.0))),
        ("p99_ms", Json::Num(percentile(&lat, 99.0))),
        (
            "tail_percentile",
            tail_percentile(lat.len()).map_or(Json::Null, Json::Num),
        ),
        ("backlog_growing", Json::Bool(ph.backlog_growing())),
        ("queue_depth_peak", Json::Num(ph.queue_depth_peak as f64)),
        ("wall_s", Json::Num(ph.wall_s)),
        (
            "generator_lag_p99_ms",
            Json::Num(percentile(&ph.lags_ns(), 99.0) / 1e6),
        ),
    ])
}

pub fn run(ctx: &Ctx) -> Outcome {
    let p = Params {
        workers: ctx.nproc.saturating_sub(1).max(1),
        queue_capacity: ctx.usize("queue_capacity"),
        deadline_ms: ctx.num("deadline_ms") as u64,
        limit_ns: (ctx.num("latency_limit_ms") * 1e6) as u64,
        target: ctx.num("good_share_target"),
    };
    let mut out = Outcome::default();
    let (inputs, mut setups) = Setups::first(ctx.setup_repeats(), || setup(ctx, &p));

    // Reference answers; the replay also fills the shared cache, as a
    // long-running service's cache would be.
    let first = replay(inputs.handler.as_ref(), &inputs.texts);
    let (reference, answers, replay_s) = (first.fps, first.answers, first.wall_s);
    let fp = reference.iter().fold(Fp::default(), |f, x| f.word(x.0));
    out.fingerprint = format!("{:016x}", fp.0);
    let (correct, total) = inputs
        .docs
        .iter()
        .zip(&answers)
        .map(|(d, a)| score(d, a))
        .fold((0, 0), |acc, (c, t)| (acc.0 + c, acc.1 + t));

    let clock = TraceClock::new();
    if ctx.trace {
        setups.finish(&mut out, || setup(ctx, &p));
        traced(ctx, &p, &inputs, &reference, replay_s, clock, &mut out);
        return out;
    }
    let (light, heavy, ladder) = all_phases(
        ctx,
        &inputs.handler,
        &p,
        &inputs,
        &reference,
        &Metrics::disabled(),
        clock,
        &mut |share| setups.between(share, || setup(ctx, &p)),
    );
    setups.finish(&mut out, || setup(ctx, &p));

    let mut phases_json = vec![
        phase_json("light", &light, p.limit_ns),
        phase_json("heavy", &heavy, p.limit_ns),
    ];
    for (i, ph) in ladder.iter().enumerate() {
        phases_json.push(phase_json(&format!("ladder{i}"), ph, p.limit_ns));
    }
    // Latency percentiles are taken per window of `window_requests`
    // (enough for ten samples beyond p99) and reported as medians.
    let per_window = ctx.usize("window_requests");
    assert!(
        tail_percentile(per_window) >= Some(99.0),
        "a latency window needs at least 1,000 requests so p99 has ten samples beyond it"
    );
    for (name, ph) in [("light", &light), ("heavy", &heavy)] {
        out.metric(&format!("req_p50_ms.{name}"), ph.windowed(50.0, per_window));
        out.metric(&format!("req_p99_ms.{name}"), ph.windowed(99.0, per_window));
    }
    out.metric(
        "good_share.heavy",
        Summary::single(heavy.good_share(p.limit_ns), heavy.offered()),
    );
    out.metric(
        "goodput_rps.heavy",
        Summary::single(
            heavy.good(p.limit_ns) as f64 / heavy.wall_s,
            heavy.offered(),
        ),
    );
    let max_rate = ladder
        .iter()
        .filter(|ph| ph.good_share(p.limit_ns) >= p.target && !ph.backlog_growing())
        .map(|ph| ph.rate)
        .fold(0.0, f64::max);
    out.metric("max_rate_rps", Summary::single(max_rate, ladder.len()));
    // Worker time per full-fidelity request at the fixed rates: each
    // text's median over its requests, percentiles over texts, and
    // requests per second of worker time with each request charged its
    // text's median, so a request preempted mid-handler counts at its
    // text's usual cost. Unlike open-loop latency these exclude queueing
    // and wake-up delays.
    let mut per_text: Vec<Vec<f64>> = vec![Vec::new(); inputs.texts.len()];
    for r in light.recs.iter().chain(&heavy.recs).filter(|r| r.full) {
        per_text[text_of(r.id, 0, inputs.texts.len())].push(r.handler_ns() as f64 / 1e6);
    }
    let served: usize = per_text.iter().map(Vec::len).sum();
    let busy_s: f64 = per_text
        .iter()
        .map(|t| t.len() as f64 * median(t) / 1e3)
        .sum();
    out.metric("handler_p50_ms", item_percentile(&per_text, 50.0));
    out.metric("handler_p99_ms", item_percentile(&per_text, 99.0));
    out.metric(
        "served_per_busy_s",
        Summary::single(per(served as f64, busy_s), served),
    );
    out.metric(
        "replay_accuracy_micro",
        Summary::single(per(correct as f64, total as f64), total),
    );

    // Failures count at the fixed rates; mismatches count everywhere.
    let mismatches: usize = [&light, &heavy]
        .into_iter()
        .chain(&ladder)
        .map(Phase::mismatches)
        .sum();
    let fixed_failed = light.failed() + heavy.failed();
    let checked: usize = ladder
        .iter()
        .map(|ph| ph.recs.iter().filter(|r| r.full).count())
        .sum();
    out.attempted = (light.offered() + heavy.offered() + checked) as u64;
    out.failed = (fixed_failed + mismatches) as u64;
    out.check("full_fidelity_answers_match_replay", mismatches == 0);
    out.check("no_failed_requests_at_fixed_rates", fixed_failed == 0);
    out.detail.push(("phases".into(), Json::Arr(phases_json)));
    out.detail
        .push(("workers".into(), Json::Num(p.workers as f64)));
    out
}

/// The traced run: every phase again through a probed handler, spans per
/// request, text-layer replay, and the tracing overhead on the replay.
fn traced(
    ctx: &Ctx,
    p: &Params,
    inputs: &Inputs,
    reference: &[Fp],
    replay_s: f64,
    clock: TraceClock,
    out: &mut Outcome,
) {
    let metrics = Metrics::new().with_clock(Clock::system());
    let inner = TimedRel {
        inner: MilneWitten::new(Arc::clone(&inputs.frozen)),
        role: RelRole::Compute,
    };
    let cache = Arc::new(CachedRelatedness::with_metrics(inner, &metrics));
    let handle = TimedRel {
        inner: cache,
        role: RelRole::Handle,
    };
    let aida = AidaHandler::try_new(
        CountingKb(Arc::clone(&inputs.frozen)),
        handle,
        AidaConfig::full(),
        JointConfig::default(),
    )
    .expect("AidaConfig::full() is valid")
    .with_metrics(&metrics);
    let handler: Arc<TracedHandler> = Arc::new(TimedHandler::new(aida, clock));

    let traced_replay = replay(handler.as_ref(), &inputs.texts);
    let traced_replay_s = traced_replay.wall_s;
    let replay_bad = traced_replay
        .fps
        .iter()
        .zip(reference)
        .filter(|(a, b)| a != b)
        .count();
    out.check("traced_replay_matches_replay", replay_bad == 0);
    let before_phases = metrics.snapshot();
    out.layer("trace.overhead_ratio", per(traced_replay_s, replay_s));
    // The replay's handler calls are not part of the served phases.
    handler.timings.lock().expect("timing log").clear();

    let (light, heavy, ladder) = all_phases(
        ctx,
        &handler,
        p,
        inputs,
        reference,
        &metrics,
        clock,
        &mut |_| {},
    );
    let phases: Vec<&Phase> = [&light, &heavy].into_iter().chain(&ladder).collect();
    let mismatches: usize = phases.iter().map(|ph| ph.mismatches()).sum();
    let fixed_failed = light.failed() + heavy.failed();
    out.attempted =
        phases.iter().map(|ph| ph.offered() as u64).sum::<u64>() + inputs.texts.len() as u64;
    out.failed = (mismatches + fixed_failed + replay_bad) as u64;
    out.check("full_fidelity_answers_match_replay", mismatches == 0);
    out.check("no_failed_requests_at_fixed_rates", fixed_failed == 0);

    // Spans: request → generator lag, queue wait, handler.
    let timings: std::collections::HashMap<u64, HandlerTiming> = handler
        .timings
        .lock()
        .expect("timing log")
        .iter()
        .copied()
        .collect();
    let mut spans: Vec<SpanRec> = Vec::new();
    let mut queue_waits = Vec::new();
    let mut handler_ns = Vec::new();
    let lags: Vec<f64> = phases.iter().flat_map(|ph| ph.lags_ns()).collect();
    for r in phases.iter().flat_map(|ph| &ph.recs) {
        if r.failed {
            continue;
        }
        let timing = timings.get(&r.id).copied();
        let root = spans.len();
        let agg = timing.map_or(Agg::default(), |t| t.agg);
        let span = |name, layer, start_ns, end_ns, parent, agg| SpanRec {
            name,
            layer,
            owner: r.id,
            start_ns,
            end_ns,
            parent,
            agg,
        };
        spans.push(span(
            "request",
            Layer::Runner,
            r.due_ns,
            r.due_ns + r.latency_ns(),
            None,
            agg,
        ));
        spans.push(span(
            "generator_lag",
            Layer::Runner,
            r.due_ns,
            r.sent_ns,
            Some(root),
            Agg::default(),
        ));
        spans.push(span(
            "queue_wait",
            Layer::Serve,
            r.sent_ns,
            r.sent_ns + r.queue_wait_ns,
            Some(root),
            Agg::default(),
        ));
        queue_waits.push(r.queue_wait_ns as f64);
        if let Some(t) = timing {
            spans.push(span(
                "handler",
                Layer::Serve,
                t.start_ns,
                t.end_ns,
                Some(root),
                t.agg,
            ));
            handler_ns.push((t.end_ns - t.start_ns) as f64);
        }
    }
    let snap = metrics.snapshot();
    // The handler span holds the engine's feature and graph/solver stages,
    // which its own timers measured; the rest of its self time is the
    // handler's text layer, final scoring and serving overhead.
    let mut b = breakdown(&spans, None);
    let (features_ns, solve_ns) = stage_ns_between(&before_phases, &snap);
    b.attribute(Layer::Serve, Layer::AidaFeatures, features_ns);
    b.attribute(Layer::Serve, Layer::AidaSolve, solve_ns);
    out.check("trace_spans_nest", b.nested);

    out.aida_layers(&snap);
    out.probe_layers(&b.agg, crate::common::counter(&snap, names::AIDA_DOCS));
    out.layer("serve.queue_wait_p50_ns", percentile(&queue_waits, 50.0));
    out.layer("serve.queue_wait_p99_ns", percentile(&queue_waits, 99.0));
    out.layer("serve.handler_p50_ns", percentile(&handler_ns, 50.0));
    out.layer("serve.handler_p99_ns", percentile(&handler_ns, 99.0));
    let busy = handler_ns.iter().sum::<f64>() / 1e9;
    let wall: f64 = phases.iter().map(|ph| ph.wall_s).sum();
    out.layer(
        "serve.worker_busy_share",
        per(busy, wall * p.workers as f64),
    );
    out.layer("serve.generator_lag_ms", percentile(&lags, 99.0) / 1e6);
    out.layer(
        "serve_queue_depth_peak",
        phases
            .iter()
            .map(|ph| ph.queue_depth_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    for name in [
        names::SERVE_REJECTED_QUEUE_FULL,
        names::SERVE_COMPLETED_DEGRADED,
        names::SERVE_DEGRADED_NO_COHERENCE,
        names::SERVE_DEGRADED_PRIOR_ONLY,
        names::SERVE_SHED_DEADLINE,
    ] {
        out.layer(name, crate::common::counter(&snap, name));
    }

    // ned-text, taken by replaying the texts through tokenize and the
    // handler's recognizer; the same replay times the handler's two
    // disambiguator calls, which the served requests make inside the
    // handler where the benchmark cannot time them.
    let recognizer = JointConfig::default().build_recognizer(&inputs.frozen);
    let replay_metrics = Metrics::new().with_clock(Clock::system());
    let cache = CachedRelatedness::new(MilneWitten::new(Arc::clone(&inputs.frozen)));
    let aida = Disambiguator::new(Arc::clone(&inputs.frozen), &cache, AidaConfig::full())
        .with_metrics(&replay_metrics);
    let (mut tok_ns, mut rec_ns, mut mentions) = (0u64, 0u64, 0usize);
    let (mut features_ns, mut disambiguate_ns) = (0u64, 0u64);
    for text in &inputs.texts {
        let t = std::time::Instant::now();
        let tokens = tokenize(text);
        tok_ns += t.elapsed().as_nanos() as u64;
        let t = std::time::Instant::now();
        let found = recognizer.recognize(&tokens);
        rec_ns += t.elapsed().as_nanos() as u64;
        mentions += found.len();
        let t = std::time::Instant::now();
        let features = aida.features(&tokens, &found);
        features_ns += t.elapsed().as_nanos() as u64;
        let t = std::time::Instant::now();
        std::hint::black_box(aida.disambiguate_features(&features));
        disambiguate_ns += t.elapsed().as_nanos() as u64;
    }
    let n = inputs.texts.len() as f64;
    out.layer("text.tokenize_ns", tok_ns as f64 / n);
    out.layer("text.recognize_ns", rec_ns as f64 / n);
    out.layer("text.mentions", mentions as f64 / n);
    let replay = replay_metrics.snapshot();
    let docs = crate::common::counter(&replay, names::AIDA_DOCS);
    let (stage_features, stage_solve) =
        stage_ns_between(&ned_obs::MetricsSnapshot::default(), &replay);
    let timed = (features_ns + disambiguate_ns) as f64;
    out.layer("aida.features_ns", per(features_ns as f64, docs));
    out.layer("aida.disambiguate_ns", per(disambiguate_ns as f64, docs));
    out.layer(
        "aida.unattributed_ns",
        per(timed - (stage_features + stage_solve) as f64, docs),
    );
    out.check(
        "aida_stage_sums_fit_inside_timed_calls",
        timed >= (stage_features + stage_solve) as f64,
    );

    out.breakdown = Some(b);
    out.spans = spans;
}
