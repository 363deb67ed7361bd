//! Wrappers that time engine layers from outside, through their public
//! traits. They are used only by the traced run; the untraced run hands the
//! engine its production types unchanged.

use std::sync::Mutex;
use std::time::Instant;

use ned_aida::DeadlinePlan;
use ned_core::ServeRequest;
use ned_kb::dictionary::Candidate;
use ned_kb::keyphrase::EntityPhrase;
use ned_kb::{
    DictView, Entity, EntityId, KbView, KeyphraseIndex, LinksView, PhraseId, PhraseRuns,
    WeightModel, WordId,
};
use ned_relatedness::Relatedness;
use ned_serve::{AnnotateHandler, HandlerOutput};

use crate::trace::{agg_add, TraceClock};

/// A `KbView` that counts candidate and word-id lookups (and times the
/// candidate lookups) into the calling thread's accumulators.
#[derive(Debug, Clone)]
pub struct CountingKb<K>(pub K);

impl<K: KbView> KbView for CountingKb<K> {
    fn entity_count(&self) -> usize {
        self.0.entity_count()
    }
    fn entity(&self, e: EntityId) -> &Entity {
        self.0.entity(e)
    }
    fn entity_by_name(&self, canonical_name: &str) -> Option<EntityId> {
        self.0.entity_by_name(canonical_name)
    }
    fn candidates(&self, surface: &str) -> &[Candidate] {
        let start = Instant::now();
        let out = self.0.candidates(surface);
        let ns = start.elapsed().as_nanos() as u64;
        agg_add(|a| {
            a.kb_calls += 1;
            a.kb_ns += ns;
        });
        out
    }
    fn prior(&self, surface: &str, e: EntityId) -> f64 {
        self.0.prior(surface, e)
    }
    fn dictionary(&self) -> DictView<'_> {
        self.0.dictionary()
    }
    fn links(&self) -> LinksView<'_> {
        self.0.links()
    }
    fn keyphrases(&self, e: EntityId) -> &[EntityPhrase] {
        self.0.keyphrases(e)
    }
    fn keyphrase_index(&self) -> &KeyphraseIndex {
        self.0.keyphrase_index()
    }
    fn phrase_words(&self, p: PhraseId) -> &[WordId] {
        self.0.phrase_words(p)
    }
    fn phrase_surface(&self, p: PhraseId) -> &str {
        self.0.phrase_surface(p)
    }
    fn word_text(&self, w: WordId) -> &str {
        self.0.word_text(w)
    }
    fn word_id(&self, text: &str) -> Option<WordId> {
        agg_add(|a| a.word_id_calls += 1);
        self.0.word_id(text)
    }
    fn word_count(&self) -> usize {
        self.0.word_count()
    }
    fn phrase_count(&self) -> usize {
        self.0.phrase_count()
    }
    fn weights(&self) -> &WeightModel {
        self.0.weights()
    }
    fn phrase_runs(&self) -> &PhraseRuns {
        self.0.phrase_runs()
    }
}

/// Which accumulator a [`TimedRel`] feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelRole {
    /// The handle the disambiguator calls: cache plus measure.
    Handle,
    /// The measure behind the cache: only misses reach it.
    Compute,
}

/// A relatedness measure that counts and times its calls.
#[derive(Debug, Clone)]
pub struct TimedRel<R> {
    pub inner: R,
    pub role: RelRole,
}

impl<R: Relatedness> Relatedness for TimedRel<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        let start = Instant::now();
        let out = self.inner.relatedness(a, b);
        let ns = start.elapsed().as_nanos() as u64;
        match self.role {
            RelRole::Handle => agg_add(|x| {
                x.rel_calls += 1;
                x.rel_ns += ns;
            }),
            RelRole::Compute => agg_add(|x| {
                x.compute_calls += 1;
                x.compute_ns += ns;
            }),
        }
        out
    }
}

/// What [`TimedHandler`] records per request.
#[derive(Debug, Clone, Copy, Default)]
pub struct HandlerTiming {
    pub start_ns: u64,
    pub end_ns: u64,
    pub agg: crate::trace::Agg,
}

/// An `AnnotateHandler` that times each request's handler call on the
/// worker thread, with the calls the wrapped handler made into the probed
/// KB and relatedness handles.
#[derive(Debug)]
pub struct TimedHandler<H> {
    pub inner: H,
    pub clock: TraceClock,
    pub timings: Mutex<Vec<(u64, HandlerTiming)>>,
}

impl<H> TimedHandler<H> {
    pub fn new(inner: H, clock: TraceClock) -> Self {
        TimedHandler {
            inner,
            clock,
            timings: Mutex::new(Vec::new()),
        }
    }
}

impl<H: AnnotateHandler> AnnotateHandler for TimedHandler<H> {
    fn handle(&self, request: &ServeRequest, plan: &DeadlinePlan) -> HandlerOutput {
        let before = crate::trace::agg_now();
        let start_ns = self.clock.now_ns();
        let out = self.inner.handle(request, plan);
        let end_ns = self.clock.now_ns();
        let agg = crate::trace::agg_now().minus(before);
        self.timings
            .lock()
            .expect("no thread panics while holding the timing log")
            .push((
                request.id.0,
                HandlerTiming {
                    start_ns,
                    end_ns,
                    agg,
                },
            ));
        out
    }
}

/// Forwards to a shared handler, so one handler (and its recognizer) can
/// serve several `Service` instances in turn.
#[derive(Debug)]
pub struct SharedHandler<H>(pub std::sync::Arc<H>);

impl<H: AnnotateHandler> AnnotateHandler for SharedHandler<H> {
    fn handle(&self, request: &ServeRequest, plan: &DeadlinePlan) -> HandlerOutput {
        self.0.handle(request, plan)
    }
}
