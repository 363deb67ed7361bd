//! Pieces every workload shares: the run context, the fixed world, output
//! fingerprints, set-up timing, and the outcome a workload hands back.

use std::sync::Arc;
use std::time::Instant;

use ned_aida::DisambiguationResult;
use ned_kb::FrozenKb;
use ned_obs::MetricsSnapshot;
use ned_wikigen::config::WorldConfig;
use ned_wikigen::{ExportedKb, World};

use crate::json::Json;
use crate::stats::Summary;
use crate::trace::{Breakdown, SpanRec};

/// One invocation's settings.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// This workload's entry of `spec.json`.
    pub spec: Json,
    /// `spec.json`'s `world` entry.
    pub world_spec: Json,
}

impl Ctx {
    /// A numeric workload parameter from `spec.json`.
    pub fn num(&self, key: &str) -> f64 {
        self.spec
            .num(key)
            .unwrap_or_else(|e| panic!("spec.json {}: {e}", self.workload))
    }

    pub fn usize(&self, key: &str) -> usize {
        self.num(key) as usize
    }

    /// Set-ups a run times: one in a traced run, whose figures come from
    /// the untraced one.
    pub fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            self.usize("setup_repeats")
        }
    }

    /// The generator seed for this workload's inputs.
    pub fn input_seed(&self) -> u64 {
        self.seed
            .wrapping_mul(1_000_003)
            .wrapping_add(self.num("seed_salt") as u64)
    }
}

/// The fixed synthetic world, its KB, and the KB frozen for reading.
pub struct Kb {
    pub world: World,
    pub exported: ExportedKb,
    pub frozen: Arc<FrozenKb>,
}

impl std::fmt::Debug for Kb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kb")
            .field("entities", &self.frozen.entity_count())
            .finish()
    }
}

/// Generates and freezes the world every workload runs against.
pub fn build_kb(ctx: &Ctx) -> Kb {
    let entities_per_topic = ctx
        .world_spec
        .num("entities_per_topic")
        .unwrap_or_else(|e| panic!("spec.json world: {e}")) as usize;
    let world = World::generate(WorldConfig {
        entities_per_topic,
        ..WorldConfig::default()
    });
    let exported = ExportedKb::build(&world);
    let frozen = Arc::new(FrozenKb::freeze(&exported.kb));
    Kb {
        world,
        exported,
        frozen,
    }
}

/// Set-up timing of one run.
///
/// The first set-up runs before the measuring window and its result is the
/// one measured. The other repeats are timed and dropped at even slots
/// across the window, between units of work: on a shared host the speed
/// drifts over seconds, and a median of set-ups spread over the run
/// follows the same host as the run's other figures, where a burst of
/// set-ups at its start catches one moment of it.
#[derive(Debug)]
pub struct Setups {
    times: Vec<f64>,
    repeats: usize,
    /// Peak memory before the first repeat: a repeat holds a second copy
    /// of the inputs while it runs.
    rss_mb: Option<f64>,
}

impl Setups {
    /// Runs and times the first set-up; `repeats` (at least 1) is the
    /// number of set-ups the run times in all.
    pub fn first<T>(repeats: usize, build: impl FnOnce() -> T) -> (T, Setups) {
        let start = Instant::now();
        let value = build();
        let setups = Setups {
            times: vec![start.elapsed().as_secs_f64()],
            repeats: repeats.max(1),
            rss_mb: None,
        };
        (value, setups)
    }

    /// Between two units of work, with `share` of the window gone: runs
    /// the repeats whose slots have come (repeat k is due at k / repeats).
    pub fn between<T>(&mut self, share: f64, mut build: impl FnMut() -> T) {
        while self.times.len() < self.repeats
            && share * self.repeats as f64 >= self.times.len() as f64
        {
            self.rss_mb.get_or_insert_with(peak_rss_mb);
            let start = Instant::now();
            drop(build());
            self.times.push(start.elapsed().as_secs_f64());
        }
    }

    /// Runs the repeats still due, then records `setup_s` (the median of
    /// every set-up) and the peak memory before the first repeat.
    pub fn finish<T>(mut self, out: &mut Outcome, build: impl FnMut() -> T) {
        self.between(1.0, build);
        out.metric("setup_s", Summary::of(&self.times));
        out.peak_rss_mb = self.rss_mb;
    }
}

/// FNV-1a over 64-bit words: the benchmark's output fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fp(pub u64);

impl Default for Fp {
    fn default() -> Self {
        Fp(0xcbf2_9ce4_8422_2325)
    }
}

impl Fp {
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Labels and score bits of every assignment, plus the degradation.
    pub fn result(self, r: &DisambiguationResult) -> Self {
        let mut fp = self
            .word(r.degradation as u64)
            .word(r.assignments.len() as u64);
        for a in &r.assignments {
            fp = fp
                .word(a.entity.map_or(u64::MAX, |e| u64::from(e.0)))
                .word(a.score.to_bits());
        }
        fp
    }
}

/// Peak resident memory of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counter or histogram sum from a metrics snapshot.
pub fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name) as f64
}

pub fn hist_sum(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, h)| h.sum as f64)
}

/// Engine stage time recorded between two snapshots of one registry:
/// (feature stage, graph plus solver stages), in ns.
pub fn stage_ns_between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> (i64, i64) {
    use ned_obs::names as n;
    let delta = |name| (hist_sum(after, name) - hist_sum(before, name)) as i64;
    (
        delta(n::STAGE_FEATURES_NS),
        delta(n::STAGE_GRAPH_NS) + delta(n::STAGE_SOLVER_NS),
    )
}

/// Divides, giving 0 for an empty denominator.
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics by their workload-specific names.
    pub e2e: Vec<(String, Summary)>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Hex fingerprint of the reference outputs.
    pub fingerprint: String,
    pub breakdown: Option<Breakdown>,
    pub spans: Vec<SpanRec>,
    /// Workload-specific detail for the results file.
    pub detail: Vec<(String, Json)>,
    /// Peak memory of the workload when it is taken before the end of the
    /// run (see [`Setups`]); the process peak otherwise.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, s: Summary) {
        self.e2e.push((name.to_string(), s));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    /// Records a named output check. The run is correct only when every
    /// check holds; `failed` counts the operations behind a failed check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    /// Per-layer metrics common to every run that uses the engine's metrics
    /// registry: pipeline counters per disambiguated doc and stage times.
    pub fn aida_layers(&mut self, snap: &MetricsSnapshot) {
        use ned_obs::names as n;
        let docs = counter(snap, n::AIDA_DOCS);
        for name in [
            n::AIDA_SIMILARITY_EVALUATIONS,
            n::AIDA_SIM_PLAN_ENTITY_SIDE,
            n::AIDA_SIM_PLAN_WORD_SIDE,
            n::KP_INDEX_POSTINGS_SCANNED,
            n::AIDA_SIM_PHRASES_MATCHED,
            n::AIDA_CANDIDATES_CONSIDERED,
            n::AIDA_COHERENCE_EDGES_BUILT,
            n::AIDA_GRAPH_ENTITY_NODES,
            n::AIDA_MENTIONS_FIXED,
            n::AIDA_SOLVER_ITERATIONS,
            n::AIDA_SOLVER_TABOO_HITS,
            n::AIDA_SOLVER_BUDGET_EXHAUSTED,
            n::AIDA_DEGRADATION_JOINT,
            n::AIDA_DEGRADATION_NO_COHERENCE,
            n::AIDA_DEGRADATION_PRIOR_ONLY,
        ] {
            self.layer(name, per(counter(snap, name), docs));
        }
        for name in [n::STAGE_FEATURES_NS, n::STAGE_GRAPH_NS, n::STAGE_SOLVER_NS] {
            self.layer(name, per(hist_sum(snap, name), docs));
        }
        let lookups =
            counter(snap, n::RELATEDNESS_CACHE_HITS) + counter(snap, n::RELATEDNESS_CACHE_MISSES);
        self.layer(
            "rel.hit_ratio",
            per(counter(snap, n::RELATEDNESS_CACHE_HITS), lookups),
        );
    }

    /// KB-read and relatedness layers from the probe accumulators, per doc.
    pub fn probe_layers(&mut self, agg: &crate::trace::Agg, docs: f64) {
        self.layer("kb.candidates_calls", per(agg.kb_calls as f64, docs));
        self.layer("kb.candidates_ns", per(agg.kb_ns as f64, docs));
        self.layer("kb.word_id_calls", per(agg.word_id_calls as f64, docs));
        self.layer("rel.calls", per(agg.rel_calls as f64, docs));
        self.layer("rel.ns", per(agg.rel_ns as f64, docs));
        self.layer("rel.compute_calls", per(agg.compute_calls as f64, docs));
        self.layer("rel.compute_ns", per(agg.compute_ns as f64, docs));
        let overhead = if agg.rel_calls == 0 {
            0.0
        } else {
            agg.rel_ns as f64 - agg.compute_ns as f64
        };
        self.layer("rel.cache_overhead_ns", per(overhead, docs));
    }
}
