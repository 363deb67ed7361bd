//! The relatedness pair memo: one unbounded, sharded, generation-tagged
//! map from canonical entity pairs to scores, in front of any
//! [`Relatedness`] measure. [`CachedRelatedness`] documents the contract.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use ned_kb::fx::FxHashMap;
use ned_kb::EntityId;
use ned_obs::{names, Counter, Metrics};

use crate::traits::Relatedness;

/// Number of independent lock shards.
const SHARD_COUNT: usize = 16;

/// A canonical `(min, max)` entity pair.
type PairKey = (EntityId, EntityId);

type Shard = RwLock<FxHashMap<PairKey, f64>>;

fn read(shard: &Shard) -> RwLockReadGuard<'_, FxHashMap<PairKey, f64>> {
    shard.read().unwrap_or_else(|e| e.into_inner())
}

fn write(shard: &Shard) -> RwLockWriteGuard<'_, FxHashMap<PairKey, f64>> {
    shard.write().unwrap_or_else(|e| e.into_inner())
}

/// How a miss's second visit under the write lock resolved.
enum Resolved {
    /// A racing worker inserted first; its value is served.
    Raced(f64),
    Inserted,
    /// The generation moved mid-lookup; the value is returned uncached.
    Stale,
}

/// A relatedness measure with an unbounded, sharded, generation-tagged
/// pair memo in front of it.
///
/// The AIDA graph algorithm queries the same entity pair repeatedly while
/// weights are rescaled and the subgraph shrinks; memoizing turns repeated
/// exact computations into hash lookups. Every distinct pair is computed
/// once per KB generation.
///
/// # Why no bound
///
/// The memo only ever holds pairs of co-candidate entities scored against
/// one KB generation, and every generation change empties it. Its size is
/// therefore bounded by the number of distinct co-candidate pairs of one
/// KB generation (DESIGN.md §16), not by a byte cap.
///
/// # Symmetry
///
/// The memo stores each pair under its canonical `(min, max)` key and
/// serves both orientations from that entry. Wrapped measures must be
/// bitwise symmetric (`r(a, b).to_bits() == r(b, a).to_bits()`), otherwise
/// whichever orientation a run happens to compute first would decide the
/// bits every later lookup sees.
///
/// # Concurrency and accounting
///
/// Pairs live in 16 `RwLock` shards. A lookup probes under the read lock;
/// on a miss it computes with no lock held, then re-probes under the write
/// lock: a racing worker that inserted first turns the lookup into a hit
/// and the duplicate computation is discarded. Counters are bumped after
/// the guard drops. Every completed lookup is exactly one hit or one miss
/// and every miss is exactly one insert or one stale discard, so
/// `lookups == hits + misses`, `misses == inserts + stale_discards` and
/// `inserts == evictions + len` hold under any interleaving. A lookup whose
/// compute panicked counts nothing.
///
/// # Generations
///
/// [`advance_generation`](Self::advance_generation) moves the generation tag
/// first, then clears every shard (dropped entries count as evictions). A
/// lookup records the tag at its start and re-checks it under the write
/// lock before inserting; if the tag moved mid-lookup the insert is
/// discarded (`relatedness_cache_stale_discards`), so once
/// `advance_generation` returns no stale-generation value can ever be
/// served from the memo.
///
/// The memo holds plain floats, so a shard whose lock was poisoned by a
/// panicking worker is still structurally sound. Every lock acquisition
/// recovers from poison instead of propagating it: one crashed document
/// must not wedge the shared memo for the rest of the batch.
// Manual Debug: `M` need not be Debug.
pub struct CachedRelatedness<M> {
    inner: M,
    shards: Vec<Shard>,
    /// KB generation the memoized pairs were computed against.
    generation: AtomicU64,
    hits: Counter,
    misses: Counter,
    inserts: Counter,
    evictions: Counter,
    stale_discards: Counter,
}

impl<M> std::fmt::Debug for CachedRelatedness<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedRelatedness")
            .field("generation", &self.generation.load(Ordering::Acquire))
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl<M> CachedRelatedness<M> {
    /// Wraps `inner` with an empty memo and a private metrics registry.
    pub fn new(inner: M) -> Self {
        Self::with_metrics(inner, &Metrics::new())
    }

    /// Wraps `inner` with an empty memo, recording the cache counters into
    /// the given registry (pass [`Metrics::disabled`] to skip accounting
    /// entirely). The counters are registered eagerly so every snapshot
    /// carries the full set, zeros included.
    pub fn with_metrics(inner: M, metrics: &Metrics) -> Self {
        CachedRelatedness {
            inner,
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            generation: AtomicU64::new(0),
            hits: metrics.counter(names::RELATEDNESS_CACHE_HITS),
            misses: metrics.counter(names::RELATEDNESS_CACHE_MISSES),
            inserts: metrics.counter(names::RELATEDNESS_CACHE_INSERTS),
            evictions: metrics.counter(names::RELATEDNESS_CACHE_EVICTIONS),
            stale_discards: metrics.counter(names::RELATEDNESS_CACHE_STALE_DISCARDS),
        }
    }

    /// Looks `(a, b)` up under its canonical key, calling `compute` with no
    /// lock held on a miss.
    fn get_or_insert_with(&self, a: EntityId, b: EntityId, compute: impl FnOnce() -> f64) -> f64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        let idx = (key.0 .0 as usize ^ (key.1 .0 as usize).rotate_left(16)) % SHARD_COUNT;
        let Some(shard) = self.shards.get(idx) else {
            // `idx` is reduced mod SHARD_COUNT, so this arm is unreachable;
            // degrade to the uncached compute.
            return compute();
        };
        let gen_at_start = self.generation.load(Ordering::Acquire);
        let cached = read(shard).get(&key).copied();
        if let Some(v) = cached {
            self.hits.inc();
            return v;
        }
        let v = compute();
        let resolved = {
            let mut map = write(shard);
            if let Some(&existing) = map.get(&key) {
                Resolved::Raced(existing)
            } else if self.generation.load(Ordering::Acquire) != gen_at_start {
                // The value may be stale. Returning it is fine (the lookup
                // overlapped the swap); memoizing it would serve it forever.
                Resolved::Stale
            } else {
                map.insert(key, v);
                Resolved::Inserted
            }
        };
        match resolved {
            Resolved::Raced(existing) => {
                self.hits.inc();
                existing
            }
            Resolved::Inserted => {
                self.misses.inc();
                self.inserts.inc();
                v
            }
            Resolved::Stale => {
                self.misses.inc();
                self.stale_discards.inc();
                v
            }
        }
    }

    /// Tags the memo with the KB generation it is serving (e.g. from
    /// `ned_kb::KbHandle::generation`). When the tag moves, every memoized
    /// pair is dropped (counted as evictions) and any in-flight insert that
    /// started under the old tag is discarded. Returns true when the memo
    /// was invalidated.
    ///
    /// Callers sequence this *before* computing against the new KB (swap →
    /// advance → score), so a racing worker can at worst re-insert a value
    /// computed against the new epoch, never resurrect an old one.
    pub fn advance_generation(&self, generation: u64) -> bool {
        if self.generation.swap(generation, Ordering::AcqRel) == generation {
            return false;
        }
        self.clear();
        true
    }

    /// Drops all memoized pairs. Dropped entries count as evictions so
    /// `inserts == evictions + len` stays exact.
    pub fn clear(&self) {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut map = write(shard);
            dropped += map.len() as u64;
            map.clear();
        }
        self.evictions.add(dropped);
    }

    /// Number of memoized pairs.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    /// True if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the memo so far (including racing duplicates).
    pub fn hits(&self) -> u64 {
        self.hits.value()
    }

    /// Lookups that computed a fresh value so far.
    pub fn misses(&self) -> u64 {
        self.misses.value()
    }

    /// Entries written so far.
    pub fn inserts(&self) -> u64 {
        self.inserts.value()
    }

    /// Entries dropped so far by generation advances and `clear`.
    pub fn evictions(&self) -> u64 {
        self.evictions.value()
    }

    /// Inserts discarded because the generation moved mid-lookup so far.
    pub fn stale_discards(&self) -> u64 {
        self.stale_discards.value()
    }

    /// Fraction of lookups served from the memo, in [0, 1]; 0 when no
    /// lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The wrapped measure.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Relatedness> Relatedness for CachedRelatedness<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        self.get_or_insert_with(a, b, || self.inner.relatedness(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct Counting {
        calls: AtomicUsize,
    }

    impl Relatedness for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            f64::from(a.0 + b.0)
        }
    }

    fn counting() -> Counting {
        Counting { calls: AtomicUsize::new(0) }
    }

    #[test]
    fn caches_symmetric_pairs() {
        let c = CachedRelatedness::new(counting());
        let a = EntityId(1);
        let b = EntityId(2);
        assert_eq!(c.relatedness(a, b), 3.0);
        assert_eq!(c.relatedness(b, a), 3.0);
        assert_eq!(c.inner().calls.load(Ordering::Relaxed), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_resets_and_counts_evictions() {
        let c = CachedRelatedness::new(counting());
        c.relatedness(EntityId(1), EntityId(2));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.evictions(), 1, "clear drops count as evictions");
        c.relatedness(EntityId(1), EntityId(2));
        assert_eq!(c.inner().calls.load(Ordering::Relaxed), 2);
        assert_eq!(c.inserts(), c.evictions() + c.len() as u64, "conservation");
    }

    #[test]
    fn distinct_pairs_cached_separately() {
        let c = CachedRelatedness::new(counting());
        for i in 0..10u32 {
            c.relatedness(EntityId(i), EntityId(i + 1));
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.evictions(), 0, "nothing is dropped within a generation");
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let c = CachedRelatedness::new(counting());
        let (a, b) = (EntityId(3), EntityId(9));
        c.relatedness(a, b); // miss + insert
        c.relatedness(a, b); // hit
        c.relatedness(b, a); // hit (canonicalized key)
        assert_eq!(c.misses(), 1);
        assert_eq!(c.inserts(), 1);
        assert_eq!(c.hits(), 2);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn counters_land_in_a_shared_registry() {
        let m = Metrics::new();
        let c = CachedRelatedness::with_metrics(counting(), &m);
        c.relatedness(EntityId(1), EntityId(2));
        c.relatedness(EntityId(1), EntityId(2));
        let snap = m.snapshot();
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_MISSES), 1);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_INSERTS), 1);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_HITS), 1);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_EVICTIONS), 0);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_STALE_DISCARDS), 0);
        assert!(snap.gauges.is_empty(), "the memo publishes no gauges");
    }

    #[test]
    fn disabled_metrics_skip_accounting_but_still_cache() {
        let c = CachedRelatedness::with_metrics(counting(), &Metrics::disabled());
        c.relatedness(EntityId(1), EntityId(2));
        c.relatedness(EntityId(1), EntityId(2));
        assert_eq!(c.inner().calls.load(Ordering::Relaxed), 1, "still memoizes");
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.hit_rate(), 0.0);
    }

    #[test]
    fn poisoned_shard_recovers() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Arc;

        let c = Arc::new(CachedRelatedness::new(counting()));
        let (a, b) = (EntityId(1), EntityId(2));
        c.relatedness(a, b);
        // Poison every shard by panicking while its write lock is held,
        // exactly like a crashed worker would.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for shard in &c.shards {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _guard = shard.write().unwrap();
                panic!("worker died mid-insert");
            }));
            assert!(result.is_err());
            assert!(shard.is_poisoned());
        }
        std::panic::set_hook(hook);
        // Reads, writes, and maintenance all still work.
        assert_eq!(c.relatedness(a, b), 3.0, "cached value survives poison");
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.relatedness(b, a), 3.0);
    }

    #[test]
    fn advance_generation_drops_entries_only_on_change() {
        let c = CachedRelatedness::new(counting());
        c.relatedness(EntityId(1), EntityId(2));
        // Same generation: nothing dropped.
        assert!(!c.advance_generation(0));
        assert_eq!(c.len(), 1);
        // New generation: memo invalidated, drop counted as an eviction.
        assert!(c.advance_generation(3));
        assert!(c.is_empty());
        assert_eq!(c.evictions(), 1);
        assert!(!c.advance_generation(3), "the tag moved to 3");
        c.relatedness(EntityId(1), EntityId(2));
        assert_eq!(c.inner().calls.load(Ordering::Relaxed), 2, "recomputed");
    }

    #[test]
    fn epoch_swap_yields_fresh_scores_for_promoted_entities() {
        use crate::milne_witten::MilneWitten;
        use ned_kb::{DeltaKb, EntityKind, FrozenKb, KbBuilder, KbEpoch, KbHandle, KbMutation};
        use std::sync::Arc;

        // A measure that always reads the handle's *current* epoch, like a
        // serving worker does between requests.
        struct LiveMw {
            handle: Arc<KbHandle>,
        }
        impl Relatedness for LiveMw {
            fn name(&self) -> &'static str {
                "live-mw"
            }
            fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
                let (_, epoch) = self.handle.current();
                MilneWitten::new(epoch).relatedness(a, b)
            }
        }

        // a and b share two in-linkers out of 5 entities.
        let mut builder = KbBuilder::new();
        let a = builder.add_entity("A", EntityKind::Other);
        let b = builder.add_entity("B", EntityKind::Other);
        let x = builder.add_entity("X", EntityKind::Other);
        let y = builder.add_entity("Y", EntityKind::Other);
        builder.add_entity("C", EntityKind::Other);
        builder.add_link(x, a);
        builder.add_link(x, b);
        builder.add_link(y, a);
        builder.add_link(y, b);
        let base = Arc::new(FrozenKb::freeze(&builder.build()));

        let handle = Arc::new(KbHandle::new(KbEpoch::Frozen(Arc::clone(&base))));
        let cache = CachedRelatedness::new(LiveMw { handle: Arc::clone(&handle) });
        cache.advance_generation(handle.generation());
        let before = cache.relatedness(a, b);

        // Promote an emerging entity that links to a but not b — the
        // in-link sets stop coinciding (and N grows), so MW(a, b) drops
        // below its maximal 1.0.
        let delta = DeltaKb::build(
            Arc::clone(&base),
            vec![
                KbMutation::AddEntity {
                    canonical_name: "Prism (emerging)".into(),
                    kind: EntityKind::Other,
                },
                KbMutation::AddLink { src: "Prism (emerging)".into(), dst: "A".into() },
            ],
        )
        .unwrap();
        let expected = MilneWitten::new(&delta).relatedness(a, b);
        assert_ne!(expected.to_bits(), before.to_bits(), "promotion changes the score");

        handle.swap(KbEpoch::Delta(Arc::new(delta)));
        assert!(cache.advance_generation(handle.generation()), "swap invalidates");
        // Without the generation tag this would return the stale `before`.
        assert_eq!(cache.relatedness(a, b).to_bits(), expected.to_bits());
        assert_eq!(cache.relatedness(b, a).to_bits(), expected.to_bits());
    }

    #[test]
    fn stale_insert_is_discarded_when_generation_moves_mid_lookup() {
        // The compute callback advances the generation while the lookup is
        // between its probe and its insert — exactly the window a racing
        // epoch swap hits. The insert must be discarded and counted.
        let c = CachedRelatedness::new(counting());
        let v = c.get_or_insert_with(EntityId(1), EntityId(2), || {
            c.advance_generation(7);
            42.0
        });
        assert_eq!(v, 42.0, "the overlapping lookup still gets its value");
        assert!(c.is_empty(), "stale value must not be memoized");
        assert_eq!(c.stale_discards(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.inserts(), 0);
        // The next lookup under the new generation memoizes normally.
        assert_eq!(c.get_or_insert_with(EntityId(1), EntityId(2), || 43.0), 43.0);
        assert_eq!(c.inserts(), 1);
        assert_eq!(c.relatedness(EntityId(2), EntityId(1)), 43.0, "served from the memo");
    }

    #[test]
    fn fresh_cache_has_zero_hit_rate() {
        let c = CachedRelatedness::new(counting());
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.inserts(), 0);
        assert_eq!(c.hit_rate(), 0.0);
    }
}
