//! In-memory span recording for the traced run, and the per-layer self-time
//! breakdown computed from it.
//!
//! Spans sit around the public engine calls the benchmark makes. Each span
//! has a name, the layer it times, the id of the doc, request or round it
//! belongs to, a start and end on one monotonic clock, and a parent. Very
//! frequent calls (relatedness lookups, `KbView` lookups) are not spans:
//! the probe wrappers add their count and time to per-thread accumulators,
//! and each span stores the accumulator values at its start and end, so
//! the calls made inside a span (and not inside one of its children) are
//! charged to their own layer and removed from the span's self time.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Json};

/// The layers self time is attributed to, named after the crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own loop: batch fan-out, request generation, rounds.
    Runner,
    Text,
    KbRead,
    KbWrite,
    AidaFeatures,
    AidaSolve,
    Relatedness,
    Serve,
    Emerging,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Runner,
        Layer::Text,
        Layer::KbRead,
        Layer::KbWrite,
        Layer::AidaFeatures,
        Layer::AidaSolve,
        Layer::Relatedness,
        Layer::Serve,
        Layer::Emerging,
    ];

    pub fn key(self) -> &'static str {
        match self {
            Layer::Runner => "runner",
            Layer::Text => "text",
            Layer::KbRead => "kb_read",
            Layer::KbWrite => "kb_write",
            Layer::AidaFeatures => "aida_features",
            Layer::AidaSolve => "aida_solve",
            Layer::Relatedness => "relatedness",
            Layer::Serve => "serve",
            Layer::Emerging => "emerging",
        }
    }
}

/// Counts and times of frequent calls, accumulated per thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub kb_calls: u64,
    pub kb_ns: u64,
    pub word_id_calls: u64,
    pub rel_calls: u64,
    pub rel_ns: u64,
    pub compute_calls: u64,
    pub compute_ns: u64,
}

impl Agg {
    pub fn minus(self, o: Agg) -> Agg {
        Agg {
            kb_calls: self.kb_calls.saturating_sub(o.kb_calls),
            kb_ns: self.kb_ns.saturating_sub(o.kb_ns),
            word_id_calls: self.word_id_calls.saturating_sub(o.word_id_calls),
            rel_calls: self.rel_calls.saturating_sub(o.rel_calls),
            rel_ns: self.rel_ns.saturating_sub(o.rel_ns),
            compute_calls: self.compute_calls.saturating_sub(o.compute_calls),
            compute_ns: self.compute_ns.saturating_sub(o.compute_ns),
        }
    }

    pub fn plus(self, o: Agg) -> Agg {
        Agg {
            kb_calls: self.kb_calls + o.kb_calls,
            kb_ns: self.kb_ns + o.kb_ns,
            word_id_calls: self.word_id_calls + o.word_id_calls,
            rel_calls: self.rel_calls + o.rel_calls,
            rel_ns: self.rel_ns + o.rel_ns,
            compute_calls: self.compute_calls + o.compute_calls,
            compute_ns: self.compute_ns + o.compute_ns,
        }
    }
}

thread_local! {
    static AGG: Cell<Agg> = const { Cell::new(Agg {
        kb_calls: 0, kb_ns: 0, word_id_calls: 0, rel_calls: 0, rel_ns: 0,
        compute_calls: 0, compute_ns: 0,
    }) };
}

/// This thread's accumulator values.
pub fn agg_now() -> Agg {
    AGG.with(Cell::get)
}

/// Adds to this thread's accumulators.
pub fn agg_add(f: impl FnOnce(&mut Agg)) {
    AGG.with(|cell| {
        let mut a = cell.get();
        f(&mut a);
        cell.set(a);
    });
}

/// One recorded span. `agg` holds the accumulator growth between its start
/// and end (calls made inside it, children included).
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub layer: Layer,
    pub owner: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub agg: Agg,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A monotonic clock shared by every span of one traced run.
#[derive(Debug, Clone, Copy)]
pub struct TraceClock(Instant);

impl TraceClock {
    pub fn new() -> Self {
        TraceClock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The spans of one thread (or one phase), with a stack of open spans.
#[derive(Debug)]
pub struct SpanBuf {
    clock: TraceClock,
    pub spans: Vec<SpanRec>,
    open: Vec<(usize, Agg)>,
}

impl SpanBuf {
    pub fn new(clock: TraceClock) -> Self {
        SpanBuf {
            clock,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, layer: Layer, owner: u64) {
        let parent = self.open.last().map(|&(i, _)| i);
        self.spans.push(SpanRec {
            name,
            layer,
            owner,
            start_ns: self.clock.now_ns(),
            end_ns: 0,
            parent,
            agg: Agg::default(),
        });
        self.open.push((self.spans.len() - 1, agg_now()));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let Some((i, start)) = self.open.pop() else {
            panic!("SpanBuf::exit without an open span");
        };
        let span = &mut self.spans[i];
        span.end_ns = self.clock.now_ns();
        span.agg = agg_now().minus(start);
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        owner: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, layer, owner);
        let out = f();
        self.exit();
        out
    }

    /// Appends another buffer's closed spans (re-basing parent indices).
    pub fn absorb(&mut self, other: SpanBuf) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time per layer plus the unattributed remainder.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Self time per layer (ns), every layer present.
    pub self_ns: BTreeMap<Layer, i64>,
    /// Root-span self time plus lane time outside any root span.
    pub unattributed_ns: i64,
    /// Total lane time: threads × wall for a batch window, the sum of root
    /// spans otherwise.
    pub lane_ns: u64,
    /// The sum of root spans, which must fit in the lane time.
    pub roots_ns: u64,
    /// True when every self time is non-negative, i.e. children fit inside
    /// their parents and aggregated calls inside their spans.
    pub nested: bool,
    /// Aggregated calls summed over the whole trace.
    pub agg: Agg,
}

impl Breakdown {
    /// Layer self times plus the remainder, which equals `lane_ns`.
    #[cfg(test)]
    pub fn total_ns(&self) -> i64 {
        self.self_ns.values().sum::<i64>() + self.unattributed_ns
    }

    pub fn share(&self, layer: Layer) -> f64 {
        if self.lane_ns == 0 {
            0.0
        } else {
            self.self_ns.get(&layer).copied().unwrap_or(0) as f64 / self.lane_ns as f64
        }
    }

    /// Moves `ns` of `from`'s self time to `to`: time the engine's own
    /// stage timers measured inside `from`'s spans, where the benchmark
    /// has no child span to give it.
    pub fn attribute(&mut self, from: Layer, to: Layer, ns: i64) {
        *self.self_ns.entry(from).or_default() -= ns;
        *self.self_ns.entry(to).or_default() += ns;
        self.nested &= self.self_ns[&from] >= 0;
    }

    pub fn unattributed_share(&self) -> f64 {
        if self.lane_ns == 0 {
            0.0
        } else {
            self.unattributed_ns as f64 / self.lane_ns as f64
        }
    }
}

/// Computes each layer's self time: a span's duration minus its children's
/// durations and minus the aggregated calls made directly inside it, which
/// are charged to `ned-kb` (reads) and `ned-relatedness`. A root span's
/// self time, and lane time not covered by any root span, is the
/// unattributed remainder. `lane_ns = None` takes the sum of root spans.
pub fn breakdown(spans: &[SpanRec], lane_ns: Option<u64>) -> Breakdown {
    let mut child_dur = vec![0u64; spans.len()];
    let mut child_agg = vec![Agg::default(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_dur[p] += s.dur_ns();
            child_agg[p] = child_agg[p].plus(s.agg);
        }
    }
    let mut self_ns: BTreeMap<Layer, i64> = Layer::ALL.iter().map(|&l| (l, 0)).collect();
    let mut unattributed: i64 = 0;
    let mut roots: u64 = 0;
    let mut nested = true;
    let mut total_agg = Agg::default();
    for (i, s) in spans.iter().enumerate() {
        let direct = s.agg.minus(child_agg[i]);
        total_agg = total_agg.plus(direct);
        let own =
            s.dur_ns() as i64 - child_dur[i] as i64 - direct.kb_ns as i64 - direct.rel_ns as i64;
        nested &= own >= 0;
        *self_ns.entry(Layer::KbRead).or_default() += direct.kb_ns as i64;
        *self_ns.entry(Layer::Relatedness).or_default() += direct.rel_ns as i64;
        if s.parent.is_none() {
            roots += s.dur_ns();
            unattributed += own;
        } else {
            *self_ns.entry(s.layer).or_default() += own;
        }
    }
    let lane_ns = lane_ns.unwrap_or(roots);
    nested &= lane_ns >= roots;
    unattributed += lane_ns as i64 - roots as i64;
    Breakdown {
        self_ns,
        unattributed_ns: unattributed,
        lane_ns,
        roots_ns: roots,
        nested,
        agg: total_agg,
    }
}

/// One span as a JSON line for the trace file.
pub fn span_json(s: &SpanRec) -> Json {
    obj([
        ("name", Json::Str(s.name.to_string())),
        ("layer", Json::Str(s.layer.key().to_string())),
        ("owner", Json::Num(s.owner as f64)),
        ("start_ns", Json::Num(s.start_ns as f64)),
        ("end_ns", Json::Num(s.end_ns as f64)),
        (
            "parent",
            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
        ),
        ("kb_calls", Json::Num(s.agg.kb_calls as f64)),
        ("kb_ns", Json::Num(s.agg.kb_ns as f64)),
        ("rel_calls", Json::Num(s.agg.rel_calls as f64)),
        ("rel_ns", Json::Num(s.agg.rel_ns as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: Layer,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> SpanRec {
        SpanRec {
            name,
            layer,
            owner: 0,
            start_ns: start,
            end_ns: end,
            parent,
            agg: Agg::default(),
        }
    }

    #[test]
    fn self_times_plus_remainder_reconcile_with_lane_time() {
        // doc [0, 100) with features [10, 40) and disambiguate [40, 90);
        // inside disambiguate, 20 ns of relatedness calls.
        let mut spans = vec![
            span("doc", Layer::Runner, 0, 100, None),
            span("features", Layer::AidaFeatures, 10, 40, Some(0)),
            span("disambiguate", Layer::AidaSolve, 40, 90, Some(0)),
        ];
        spans[2].agg.rel_calls = 4;
        spans[2].agg.rel_ns = 20;
        spans[0].agg = spans[2].agg;
        // Two lanes over a 60 ns window would be too short; take 150 ns.
        let b = breakdown(&spans, Some(150));
        assert_eq!(b.self_ns[&Layer::AidaFeatures], 30);
        assert_eq!(b.self_ns[&Layer::AidaSolve], 30);
        assert_eq!(b.self_ns[&Layer::Relatedness], 20);
        // 20 ns of doc self time plus 50 ns of lane time outside the doc.
        assert_eq!(b.unattributed_ns, 70);
        assert_eq!(b.total_ns(), 150);
        assert!(b.nested);
        assert_eq!(b.agg.rel_calls, 4);
        assert!((b.unattributed_share() - 70.0 / 150.0).abs() < 1e-12);

        // Stage time measured inside the solve span moves layers without
        // changing the total; moving more than the span's self time is
        // flagged as not nesting.
        let mut moved = b.clone();
        moved.attribute(Layer::AidaSolve, Layer::Runner, 10);
        assert_eq!(moved.self_ns[&Layer::AidaSolve], 20);
        assert_eq!(moved.total_ns(), 150);
        assert!(moved.nested);
        moved.attribute(Layer::AidaSolve, Layer::Runner, 21);
        assert!(!moved.nested);
    }

    #[test]
    fn overlapping_children_are_flagged() {
        let spans = vec![
            span("round", Layer::Runner, 0, 10, None),
            span("models", Layer::Emerging, 0, 8, Some(0)),
            span("drain", Layer::Emerging, 5, 12, Some(0)),
        ];
        let b = breakdown(&spans, None);
        assert!(!b.nested);
        assert_eq!(b.total_ns(), 10);
    }

    #[test]
    fn span_buffer_nests_and_charges_aggregates_to_the_innermost_span() {
        let clock = TraceClock::new();
        let mut buf = SpanBuf::new(clock);
        buf.enter("doc", Layer::Runner, 7);
        buf.time("features", Layer::AidaFeatures, 7, || {
            agg_add(|a| {
                a.kb_calls += 3;
                a.kb_ns += 0;
            })
        });
        buf.exit();
        assert_eq!(buf.spans.len(), 2);
        assert_eq!(buf.spans[1].parent, Some(0));
        assert_eq!(buf.spans[1].agg.kb_calls, 3);
        assert_eq!(buf.spans[0].agg.kb_calls, 3);
        let b = breakdown(&buf.spans, None);
        assert!(b.nested);
        assert_eq!(b.agg.kb_calls, 3);
        assert_eq!(b.total_ns(), buf.spans[0].dur_ns() as i64);
    }

    #[test]
    fn absorb_rebases_parents() {
        let clock = TraceClock::new();
        let mut a = SpanBuf::new(clock);
        a.time("x", Layer::Runner, 0, || ());
        let mut b = SpanBuf::new(clock);
        b.enter("y", Layer::Runner, 1);
        b.time("z", Layer::Serve, 1, || ());
        b.exit();
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
