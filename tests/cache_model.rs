//! Model-based verification of the relatedness pair memo.
//!
//! The memo's contract (DESIGN.md §16): every distinct pair is computed
//! once per KB generation, both orientations are served from one
//! canonical entry, and a generation advance drops every entry. This
//! harness replays generated access traces (lookups plus generation
//! advances) against a single-threaded reference oracle — an obvious
//! reimplementation over a `BTreeMap` — and asserts that each lookup's
//! hit/insert outcome, the returned values, the final contents, and the
//! counter totals agree exactly.
//!
//! The generation-swap hammer at the bottom drives concurrent lookups
//! against a swapper thread and asserts that no stale-generation value is
//! ever served after `advance_generation` returns, and that the
//! conservation laws (`lookups == hits + misses`, `misses == inserts +
//! stale_discards`, `evictions + live_entries == inserts`) hold exactly.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use aida_ned::kb::EntityId;
use aida_ned::obs::Metrics;
use aida_ned::relatedness::{CachedRelatedness, Relatedness};
use proptest::prelude::*;

type PairKey = (EntityId, EntityId);

fn canonical(a: EntityId, b: EntityId) -> PairKey {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The score both sides compute for a pair under a generation — any pure,
/// symmetric, injective-enough function works; the oracle and the real
/// memo must simply agree.
fn value_of(key: PairKey, generation: u64) -> f64 {
    f64::from(key.0 .0) * 1009.0 + f64::from(key.1 .0) + generation as f64 * 0.125
}

/// The measure behind the real memo: [`value_of`] under the generation the
/// trace replay last set.
struct GenMeasure(AtomicU64);

impl Relatedness for GenMeasure {
    fn name(&self) -> &'static str {
        "generation-tagged"
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        value_of(canonical(a, b), self.0.load(Ordering::Acquire))
    }
}

/// What one lookup did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Hit,
    Inserted,
}

/// Single-threaded reference memo.
#[derive(Default)]
struct Oracle {
    entries: BTreeMap<PairKey, f64>,
    generation: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
}

impl Oracle {
    fn lookup(&mut self, a: EntityId, b: EntityId) -> (f64, Outcome) {
        let key = canonical(a, b);
        if let Some(&v) = self.entries.get(&key) {
            self.hits += 1;
            return (v, Outcome::Hit);
        }
        let v = value_of(key, self.generation);
        self.misses += 1;
        self.inserts += 1;
        self.entries.insert(key, v);
        (v, Outcome::Inserted)
    }

    fn advance_generation(&mut self, generation: u64) {
        if generation == self.generation {
            return;
        }
        self.generation = generation;
        self.evictions += self.entries.len() as u64;
        self.entries.clear();
    }
}

/// The memo's counters, in a comparable form.
fn counters<M: Relatedness>(cache: &CachedRelatedness<M>) -> [u64; 5] {
    [cache.hits(), cache.misses(), cache.inserts(), cache.evictions(), cache.stale_discards()]
}

/// Reads one lookup's outcome off the counter deltas it caused.
fn outcome_of(before: [u64; 5], after: [u64; 5]) -> Outcome {
    match [0, 1, 2, 3, 4].map(|i| after[i] - before[i]) {
        [1, 0, 0, 0, 0] => Outcome::Hit,
        [0, 1, 1, 0, 0] => Outcome::Inserted,
        deltas => panic!("a lookup must be exactly one hit or one insert, got {deltas:?}"),
    }
}

/// One step of a generated access trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup(u32, u32),
    /// Advance to a fresh generation (true) or re-announce the current one
    /// (false — must be a no-op on both sides).
    Advance(bool),
}

/// Replays `ops` on the real memo and the oracle in lockstep, asserting
/// identical outcomes, values, final contents, counters, and the
/// conservation laws. Returns the memo for trace-specific checks.
fn check_trace(ops: &[Op]) -> CachedRelatedness<GenMeasure> {
    let cache = CachedRelatedness::with_metrics(GenMeasure(AtomicU64::new(0)), &Metrics::new());
    let mut oracle = Oracle::default();
    let mut generation = 0u64;
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Lookup(a, b) => {
                let (a, b) = (EntityId(a), EntityId(b));
                let (want_v, want) = oracle.lookup(a, b);
                let before = counters(&cache);
                let got_v = cache.relatedness(a, b);
                let got = outcome_of(before, counters(&cache));
                assert_eq!(got, want, "outcome divergence at step {step} ({a:?}, {b:?})");
                assert_eq!(
                    got_v.to_bits(),
                    want_v.to_bits(),
                    "value divergence at step {step} ({a:?}, {b:?})"
                );
            }
            Op::Advance(fresh) => {
                if fresh {
                    generation += 1;
                }
                oracle.advance_generation(generation);
                cache.inner().0.store(generation, Ordering::Release);
                cache.advance_generation(generation);
            }
        }
    }
    assert_eq!(cache.hits(), oracle.hits);
    assert_eq!(cache.misses(), oracle.misses);
    assert_eq!(cache.inserts(), oracle.inserts);
    assert_eq!(cache.evictions(), oracle.evictions);
    assert_eq!(cache.stale_discards(), 0, "single-threaded traces never race a swap");
    // Conservation laws.
    let lookups = ops.iter().filter(|op| matches!(op, Op::Lookup(..))).count() as u64;
    assert_eq!(cache.hits() + cache.misses(), lookups);
    assert_eq!(cache.misses(), cache.inserts() + cache.stale_discards());
    assert_eq!(cache.inserts(), cache.evictions() + cache.len() as u64);
    // Final contents: same size, and every oracle entry is served from the
    // memo (a hit) with the oracle's bits, in the reverse orientation.
    assert_eq!(cache.len(), oracle.entries.len(), "final contents diverged");
    for (&(a, b), &v) in &oracle.entries {
        let before = counters(&cache);
        assert_eq!(cache.relatedness(b, a).to_bits(), v.to_bits(), "contents diverged");
        assert_eq!(outcome_of(before, counters(&cache)), Outcome::Hit);
    }
    cache
}

/// A looping scan over a small universe: every pair is looked up in both
/// orientations across rounds.
fn scan_ops(universe: u32, rounds: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for r in 0..rounds {
        for i in 0..universe {
            ops.push(Op::Lookup(i, (i + 1 + r as u32) % universe));
        }
    }
    ops
}

#[test]
fn oracle_agreement_on_fixed_traces() {
    for (universe, rounds) in [(1, 3), (2, 4), (9, 6), (16, 20)] {
        check_trace(&scan_ops(universe, rounds));
    }
}

#[test]
fn generation_advances_compose_with_eviction_in_traces() {
    let mut ops = scan_ops(6, 2);
    ops.push(Op::Advance(true));
    ops.extend(scan_ops(6, 2));
    ops.push(Op::Advance(false)); // same-generation no-op
    ops.extend(scan_ops(6, 1));
    ops.push(Op::Advance(true));
    ops.extend(scan_ops(6, 3));
    let cache = check_trace(&ops);
    assert!(cache.evictions() > 0, "each fresh generation drops the previous one's pairs");
}

/// Strategy for one trace op: mostly lookups over a 10-entity universe,
/// with occasional fresh-generation advances and same-generation no-ops.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..10, 0u32..10, 0u32..10).prop_map(|(kind, a, b)| match kind {
        0 => Op::Advance(true),
        1 => Op::Advance(false),
        _ => Op::Lookup(a, b),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline model test: arbitrary traces with generation advances.
    /// The real memo and the oracle must agree lookup by lookup.
    #[test]
    fn real_cache_matches_oracle_on_arbitrary_traces(
        ops in proptest::collection::vec(arb_op(), 0..250),
    ) {
        check_trace(&ops);
    }

    /// Within one generation the memo never drops a pair: it ends up
    /// holding exactly the trace's distinct canonical pairs, each computed
    /// once.
    #[test]
    fn unbounded_cache_matches_oracle(
        pairs in proptest::collection::vec((0u32..40, 0u32..40), 0..400),
    ) {
        let ops: Vec<Op> = pairs.iter().map(|&(a, b)| Op::Lookup(a, b)).collect();
        let cache = check_trace(&ops);
        let distinct: BTreeSet<PairKey> =
            pairs.iter().map(|&(a, b)| canonical(EntityId(a), EntityId(b))).collect();
        prop_assert_eq!(cache.len(), distinct.len());
        prop_assert_eq!(cache.evictions(), 0);
        prop_assert_eq!(cache.inserts(), distinct.len() as u64);
    }
}

// ---------------------------------------------------------------------
// Generation-swap vs. lookup interleaving hammer.
// ---------------------------------------------------------------------

mod hammer {
    use super::*;
    use std::sync::Arc;

    /// Encodes the generation a value was computed under so readers can
    /// prove freshness: `v = gen * 1e6 + (a + b)`.
    struct WorldMeasure(Arc<AtomicU64>);

    impl Relatedness for WorldMeasure {
        fn name(&self) -> &'static str {
            "world"
        }

        fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
            (self.0.load(Ordering::Acquire) * 1_000_000 + u64::from(a.0 + b.0)) as f64
        }
    }

    fn decode_gen(v: f64) -> u64 {
        (v as u64) / 1_000_000
    }

    /// A tiny deterministic xorshift so workers need no external RNG.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn no_stale_generation_value_after_advance_and_conservation_holds() {
        const WORKERS: usize = 4;
        const LOOKUPS_PER_WORKER: u64 = 30_000;
        const SWAPS: u64 = 120;
        const UNIVERSE: u64 = 24;
        // What the measure sees (moves first) vs. what is proven published
        // (moves only after advance_generation returns).
        let world_gen = Arc::new(AtomicU64::new(0));
        let cache = Arc::new(CachedRelatedness::with_metrics(
            WorldMeasure(Arc::clone(&world_gen)),
            &Metrics::new(),
        ));
        let published = Arc::new(AtomicU64::new(0));
        let lookups_done = Arc::new(AtomicU64::new(0));

        std::thread::scope(|s| {
            for w in 0..WORKERS {
                let cache = Arc::clone(&cache);
                let published = Arc::clone(&published);
                let lookups_done = Arc::clone(&lookups_done);
                s.spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15u64.wrapping_add(w as u64 + 1);
                    for _ in 0..LOOKUPS_PER_WORKER {
                        let a = EntityId((xorshift(&mut rng) % UNIVERSE) as u32);
                        let b = EntityId((xorshift(&mut rng) % UNIVERSE) as u32);
                        // The floor is read *before* the lookup begins:
                        // everything `advance_generation` completed by now
                        // must be invisible in what we are served.
                        let floor = published.load(Ordering::Acquire);
                        let got = decode_gen(cache.relatedness(a, b));
                        assert!(
                            got >= floor,
                            "stale value from generation {got} served after \
                             generation {floor} was fully published"
                        );
                        lookups_done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let cache = Arc::clone(&cache);
            let world_gen = Arc::clone(&world_gen);
            let published = Arc::clone(&published);
            s.spawn(move || {
                for g in 1..=SWAPS {
                    // Same order a serving epoch swap uses: the world
                    // changes first, then the memo is invalidated, then
                    // the swap is announced as complete.
                    world_gen.store(g, Ordering::Release);
                    cache.advance_generation(g);
                    published.store(g, Ordering::Release);
                    for _ in 0..50 {
                        std::thread::yield_now();
                    }
                }
            });
        });

        // Conservation laws over the whole run, exact under concurrency.
        // The swapper raced real traffic, so stale discards happen in
        // practice; only the accounting is required to be exact.
        let lookups = lookups_done.load(Ordering::Relaxed);
        assert_eq!(lookups, WORKERS as u64 * LOOKUPS_PER_WORKER);
        assert_eq!(cache.hits() + cache.misses(), lookups, "lookups == hits + misses");
        assert_eq!(
            cache.misses(),
            cache.inserts() + cache.stale_discards(),
            "misses == inserts + stale_discards"
        );
        assert_eq!(
            cache.inserts(),
            cache.evictions() + cache.len() as u64,
            "inserts == evictions + live_entries"
        );
    }
}
