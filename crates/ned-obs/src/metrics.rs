//! The metrics registry: counters, gauges, histograms, and stage spans.
//!
//! Determinism contract: every metric is integer-valued (`u64`) and updated
//! with atomic adds. Integer addition is commutative and associative, so
//! totals are independent of thread interleaving — the same guarantee that
//! merging per-worker shards in a stable order would give, without the
//! merge step. Snapshots list metrics in lexicographic name order (the
//! registry is a `BTreeMap`), so two snapshots of the same workload compare
//! bit-for-bit with `==`. Durations recorded by spans go through the
//! registry's [`Clock`]; with the default null clock every duration is 0
//! and the snapshot stays fully deterministic, while call counts are still
//! recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::clock::Clock;

/// Fixed bucket upper bounds (nanoseconds) for stage-duration histograms:
/// 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s, 10s, plus an implicit overflow
/// bucket. Fixed bounds keep snapshots comparable across runs and builds.
pub const DURATION_BOUNDS_NS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Shared histogram state: fixed bounds, one overflow bucket, count and sum.
#[derive(Debug)]
struct HistogramCore {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; bucket `i` counts values `<= bounds[i]`,
    /// the last bucket counts overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[u64]) -> Self {
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        HistogramCore {
            bounds: bounds.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| value > b);
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<HistogramCore>>>,
}

/// A monotonically increasing counter handle.
///
/// Handles are resolved once (a map lookup) and then incremented lock-free,
/// so hot loops pay one atomic add — or one branch when metrics are
/// disabled. A disabled handle reads as 0.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op handle (all increments discarded, value reads 0).
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-write-wins gauge handle (e.g. sizes observed at load time).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A no-op handle.
    pub fn disabled() -> Self {
        Gauge(None)
    }

    /// Stores `v`.
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A fixed-bound histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A no-op handle.
    pub fn disabled() -> Self {
        Histogram(None)
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.observe(value);
        }
    }

    /// Number of observations so far (0 for a disabled handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |core| core.count.load(Ordering::Relaxed))
    }

    /// Starts a span that records its elapsed `clock` time into this
    /// histogram when the guard drops — no registry lookup, so hot paths
    /// open spans from handles resolved once.
    pub fn span(&self, clock: &Clock) -> Span {
        Span { hist: self.clone(), clock: clock.clone(), start: clock.now_nanos() }
    }
}

/// RAII guard that records the elapsed clock time into a histogram on drop.
///
/// Under the null clock the recorded duration is always 0, so spans still
/// count invocations without breaking snapshot determinism.
#[derive(Debug)]
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    hist: Histogram,
    clock: Clock,
    start: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.clock.now_nanos().saturating_sub(self.start);
        self.hist.observe(elapsed);
    }
}

/// Cheap-to-clone handle on a metrics registry.
///
/// `Metrics::new()` creates an enabled registry with the deterministic null
/// clock; [`Metrics::disabled`] is a no-op handle whose every operation
/// costs one branch. Clones share the same registry, so a pipeline can hand
/// one `Metrics` to each component and snapshot them all at once.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    registry: Option<Arc<Registry>>,
    clock: Clock,
}

impl Metrics {
    /// An enabled registry with the null clock (fully deterministic).
    pub fn new() -> Self {
        Metrics { registry: Some(Arc::new(Registry::default())), clock: Clock::Null }
    }

    /// A no-op handle: nothing is recorded, snapshots are empty.
    pub fn disabled() -> Self {
        Metrics { registry: None, clock: Clock::Null }
    }

    /// Replaces the clock used by [`Metrics::span`] timing.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The clock spans record against.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// True when this handle records into a registry.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Resolves (registering on first use) a counter handle.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(registry) = &self.registry else {
            return Counter::disabled();
        };
        if let Some(cell) =
            registry.counters.read().unwrap_or_else(|e| e.into_inner()).get(name)
        {
            return Counter(Some(Arc::clone(cell)));
        }
        let mut map = registry.counters.write().unwrap_or_else(|e| e.into_inner());
        let cell = map.entry(name.to_string()).or_default();
        Counter(Some(Arc::clone(cell)))
    }

    /// Resolves (registering on first use) a gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(registry) = &self.registry else {
            return Gauge::disabled();
        };
        if let Some(cell) = registry.gauges.read().unwrap_or_else(|e| e.into_inner()).get(name)
        {
            return Gauge(Some(Arc::clone(cell)));
        }
        let mut map = registry.gauges.write().unwrap_or_else(|e| e.into_inner());
        let cell = map.entry(name.to_string()).or_default();
        Gauge(Some(Arc::clone(cell)))
    }

    /// Resolves (registering on first use) a histogram with the given fixed
    /// bucket bounds. A histogram keeps the bounds it was first registered
    /// with; later registrations under the same name reuse them.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let Some(registry) = &self.registry else {
            return Histogram::disabled();
        };
        if let Some(core) =
            registry.histograms.read().unwrap_or_else(|e| e.into_inner()).get(name)
        {
            return Histogram(Some(Arc::clone(core)));
        }
        let mut map = registry.histograms.write().unwrap_or_else(|e| e.into_inner());
        let core =
            map.entry(name.to_string()).or_insert_with(|| Arc::new(HistogramCore::new(bounds)));
        Histogram(Some(Arc::clone(core)))
    }

    /// Starts a stage span recording into histogram `{name}` (nanosecond
    /// duration buckets) when the guard drops.
    pub fn span(&self, name: &str) -> Span {
        self.histogram(name, DURATION_BOUNDS_NS).span(&self.clock)
    }

    /// Current value of a counter by name (0 if unregistered or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counter(name).value()
    }

    /// A point-in-time copy of every metric, in lexicographic name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(registry) = &self.registry else {
            return MetricsSnapshot::default();
        };
        let counters = registry
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = registry
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = registry
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, core)| {
                (
                    name.clone(),
                    HistogramSnapshot {
                        bounds: core.bounds.clone(),
                        buckets: core
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        count: core.count.load(Ordering::Relaxed),
                        sum: core.sum.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// The fixed bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries, last is
    /// overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// Point-in-time copy of a whole registry, sorted by metric name.
///
/// Compares with `==`: two runs of the same deterministic workload must
/// produce equal snapshots regardless of thread count (see the module docs
/// for why).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in lexicographic name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs in lexicographic name order.
    pub gauges: Vec<(String, u64)>,
    /// `(name, histogram)` pairs in lexicographic name order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of a counter by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Value of a gauge by name (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    }

    /// A copy with all histograms dropped — the purely counting view, which
    /// stays deterministic even when spans run on the system clock.
    pub fn counters_only(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: Vec::new(),
        }
    }

    /// Renders the snapshot as a small JSON document (sorted keys, stable
    /// byte output for a given snapshot).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {value}", esc(name));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {value}", esc(name));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let bounds =
                h.bounds.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", ");
            let buckets =
                h.buckets.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", ");
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"bounds\": [{bounds}], \"buckets\": [{buckets}], \"count\": {}, \"sum\": {}}}",
                esc(name),
                h.count,
                h.sum
            );
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Renders the snapshot as an aligned human-readable table.
    pub fn render(&self) -> String {
        let width = self
            .counters
            .iter()
            .chain(self.gauges.iter())
            .map(|(n, _)| n.len())
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<width$}  count {}  sum {}ns",
                    h.count, h.sum
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_accumulate() {
        let m = Metrics::new();
        let c = m.counter("widgets");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        assert_eq!(m.counter_value("widgets"), 5);
        // Re-resolving yields the same underlying cell.
        m.counter("widgets").add(1);
        assert_eq!(c.value(), 6);
    }

    #[test]
    fn disabled_metrics_are_inert() {
        let m = Metrics::disabled();
        let c = m.counter("x");
        c.add(10);
        assert_eq!(c.value(), 0);
        m.gauge("g").set(3);
        assert_eq!(m.gauge("g").value(), 0);
        let snap = m.snapshot();
        assert_eq!(snap, MetricsSnapshot::default());
        assert!(!m.is_enabled());
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let m = Metrics::new();
        let g = m.gauge("size");
        g.set(7);
        g.set(3);
        assert_eq!(g.value(), 3);
        assert_eq!(m.snapshot().gauge("size"), 3);
    }

    #[test]
    fn histogram_buckets_values_by_fixed_bounds() {
        let m = Metrics::new();
        let h = m.histogram("lat", &[10, 100]);
        h.observe(5); // bucket 0 (<= 10)
        h.observe(10); // bucket 0 (<= 10, inclusive upper bound)
        h.observe(50); // bucket 1 (<= 100)
        h.observe(1_000); // overflow bucket
        let snap = m.snapshot();
        let (_, hs) = snap.histograms.first().expect("histogram present");
        assert_eq!(hs.bounds, vec![10, 100]);
        assert_eq!(hs.buckets, vec![2, 1, 1]);
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 1_065);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let m = Metrics::new();
        m.counter("zeta").inc();
        m.counter("alpha").inc();
        m.counter("mid").inc();
        let snap = m.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn clones_share_one_registry() {
        let m = Metrics::new();
        let clone = m.clone();
        clone.counter("shared").add(2);
        m.counter("shared").add(3);
        assert_eq!(m.counter_value("shared"), 5);
        assert_eq!(clone.snapshot(), m.snapshot());
    }

    #[test]
    fn span_counts_under_null_clock_with_zero_duration() {
        let m = Metrics::new();
        {
            let _s = m.span("stage_x_ns");
        }
        {
            let _s = m.span("stage_x_ns");
        }
        let snap = m.snapshot();
        let (_, h) = snap.histograms.first().expect("span histogram present");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 0, "null clock records zero durations");
    }

    #[test]
    fn span_records_manual_clock_advance() {
        let (clock, handle) = Clock::manual();
        let m = Metrics::new().with_clock(clock);
        {
            let _s = m.span("stage_y_ns");
            handle.advance_ms(2);
        }
        let snap = m.snapshot();
        let (_, h) = snap.histograms.first().expect("span histogram present");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 2_000_000);
        // 2ms lands in the <= 10ms bucket (index 4 of DURATION_BOUNDS_NS).
        assert_eq!(h.buckets.get(4).copied(), Some(1));
    }

    #[test]
    fn json_and_render_are_stable_and_contain_names() {
        let m = Metrics::new();
        m.counter("a_count").add(2);
        m.gauge("b_gauge").set(9);
        m.histogram("c_hist", &[1]).observe(3);
        let json = m.snapshot().to_json();
        assert!(json.contains("\"a_count\": 2"));
        assert!(json.contains("\"b_gauge\": 9"));
        assert!(json.contains("\"c_hist\""));
        assert_eq!(json, m.snapshot().to_json(), "byte-stable for equal snapshots");
        let human = m.snapshot().render();
        assert!(human.contains("a_count"));
        assert!(human.contains("counters:"));
    }

    #[test]
    fn counters_only_drops_histograms() {
        let m = Metrics::new();
        m.counter("c").inc();
        m.histogram("h", &[1]).observe(5);
        let view = m.snapshot().counters_only();
        assert_eq!(view.counter("c"), 1);
        assert!(view.histograms.is_empty());
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        assert_eq!(Metrics::new().snapshot().render(), "(no metrics recorded)\n");
        assert_eq!(MetricsSnapshot::default().counter("absent"), 0);
    }

    #[test]
    fn parallel_increments_are_exact() {
        use std::sync::Arc as StdArc;
        let m = Metrics::new();
        let c = m.counter("racing");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = StdArc::new(c.clone());
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker thread panicked");
        }
        assert_eq!(c.value(), 40_000);
    }
}
