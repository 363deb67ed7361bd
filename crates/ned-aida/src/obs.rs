//! Pre-resolved metric handles for the disambiguation pipeline.
//!
//! The hot loops (similarity scoring, the greedy solver) run millions of
//! times per corpus, so they must not pay a registry lookup per event.
//! These structs resolve every counter once — at [`crate::Disambiguator`]
//! construction — into cheap atomic handles; the default-constructed form
//! holds disabled handles that compile down to a single branch per event.
//!
//! All counters here obey the determinism contract of `ned-obs`: they count
//! *algorithmic* events (candidates scored, postings scanned, solver steps),
//! so their totals depend only on the input and configuration, never on
//! thread interleaving or machine speed.

use ned_obs::{names, Clock, Counter, Histogram, Metrics, DURATION_BOUNDS_NS};

/// Counters of the similarity stage (Eq. 3.4 evaluation and the keyphrase
/// inverted index behind it).
#[derive(Debug, Clone, Default)]
pub struct SimObs {
    /// `simscore` evaluations (one per mention–candidate pair scored).
    pub evaluations: Counter,
    /// Evaluations that scanned KP(e) directly (entity side smaller).
    pub plan_entity_side: Counter,
    /// Evaluations that probed the inverted index (context side smaller).
    pub plan_word_side: Counter,
    /// Index postings visited before deduplication (word-side plan only).
    pub postings_scanned: Counter,
    /// Phrases that survived pruning and were actually scored.
    pub phrases_matched: Counter,
}

impl SimObs {
    /// Resolves the similarity counters in `metrics`.
    pub fn new(metrics: &Metrics) -> Self {
        SimObs {
            evaluations: metrics.counter(names::AIDA_SIMILARITY_EVALUATIONS),
            plan_entity_side: metrics.counter(names::AIDA_SIM_PLAN_ENTITY_SIDE),
            plan_word_side: metrics.counter(names::AIDA_SIM_PLAN_WORD_SIDE),
            postings_scanned: metrics.counter(names::KP_INDEX_POSTINGS_SCANNED),
            phrases_matched: metrics.counter(names::AIDA_SIM_PHRASES_MATCHED),
        }
    }
}

/// Counters of the greedy dense-subgraph solver (Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct SolverObs {
    /// Solver invocations (one per document that reached the joint stage).
    pub invocations: Counter,
    /// Budget units spent (Dijkstra pops, greedy removals, objective
    /// evaluations) — exactly the ladder's iteration currency.
    pub iterations: Counter,
    /// Greedy-loop candidates skipped because removing them would strand a
    /// mention (taboo rule of §3.4.2).
    pub taboo_hits: Counter,
    /// Entity nodes dropped by the distance pre-pruning phase.
    pub entities_pruned: Counter,
    /// Invocations that exhausted their iteration or wall budget.
    pub budget_exhausted: Counter,
}

impl SolverObs {
    /// Resolves the solver counters in `metrics`.
    pub fn new(metrics: &Metrics) -> Self {
        SolverObs {
            invocations: metrics.counter(names::AIDA_SOLVER_INVOCATIONS),
            iterations: metrics.counter(names::AIDA_SOLVER_ITERATIONS),
            taboo_hits: metrics.counter(names::AIDA_SOLVER_TABOO_HITS),
            entities_pruned: metrics.counter(names::AIDA_SOLVER_ENTITIES_PRUNED),
            budget_exhausted: metrics.counter(names::AIDA_SOLVER_BUDGET_EXHAUSTED),
        }
    }
}

/// All pipeline counters plus the stage-span histograms.
#[derive(Debug, Clone, Default)]
pub struct PipelineObs {
    /// Documents disambiguated (non-empty feature sets).
    pub docs: Counter,
    /// Mentions processed across all documents.
    pub mentions: Counter,
    /// Candidate entities retrieved and scored (expansion-fallback
    /// re-lookups count again: the work was done twice).
    pub candidates_considered: Counter,
    /// Mentions fixed to their best local candidate by the coherence
    /// robustness test (§3.5.2).
    pub mentions_fixed: Counter,
    /// Entity nodes in the constructed mention–entity graphs.
    pub graph_entity_nodes: Counter,
    /// Entity–entity coherence edges in the constructed graphs.
    pub coherence_edges_built: Counter,
    /// Documents that completed at the full joint level.
    pub degradation_joint: Counter,
    /// Documents degraded to local features (solver budget exhausted).
    pub degradation_no_coherence: Counter,
    /// Documents degraded to the popularity prior (poisoned similarity).
    pub degradation_prior_only: Counter,
    /// Similarity-stage counters.
    pub sim: SimObs,
    /// Solver counters.
    pub solver: SolverObs,
    /// Feature-stage span histogram (`stage_features_ns`).
    pub(crate) stage_features: Histogram,
    /// Graph-construction span histogram (`stage_graph_ns`).
    pub(crate) stage_graph: Histogram,
    /// Solver span histogram (`stage_solver_ns`).
    pub(crate) stage_solver: Histogram,
    /// The registry's clock, which stage spans record against: frozen at
    /// zero under the default null clock, so counters stay deterministic.
    pub(crate) clock: Clock,
}

impl PipelineObs {
    /// Resolves every pipeline counter and stage-span histogram in
    /// `metrics`, so the per-document path never probes the registry.
    pub fn new(metrics: &Metrics) -> Self {
        PipelineObs {
            docs: metrics.counter(names::AIDA_DOCS),
            mentions: metrics.counter(names::AIDA_MENTIONS),
            candidates_considered: metrics.counter(names::AIDA_CANDIDATES_CONSIDERED),
            mentions_fixed: metrics.counter(names::AIDA_MENTIONS_FIXED),
            graph_entity_nodes: metrics.counter(names::AIDA_GRAPH_ENTITY_NODES),
            coherence_edges_built: metrics.counter(names::AIDA_COHERENCE_EDGES_BUILT),
            degradation_joint: metrics.counter(names::AIDA_DEGRADATION_JOINT),
            degradation_no_coherence: metrics.counter(names::AIDA_DEGRADATION_NO_COHERENCE),
            degradation_prior_only: metrics.counter(names::AIDA_DEGRADATION_PRIOR_ONLY),
            sim: SimObs::new(metrics),
            solver: SolverObs::new(metrics),
            stage_features: metrics.histogram(names::STAGE_FEATURES_NS, DURATION_BOUNDS_NS),
            stage_graph: metrics.histogram(names::STAGE_GRAPH_NS, DURATION_BOUNDS_NS),
            stage_solver: metrics.histogram(names::STAGE_SOLVER_NS, DURATION_BOUNDS_NS),
            clock: metrics.clock().clone(),
        }
    }
}
