//! Every measure the relatedness memo can wrap must be bitwise symmetric:
//! `CachedRelatedness` stores a pair under its canonical `(min, max)` key
//! and serves both orientations from that one entry, so an asymmetric
//! measure would make the served bits depend on which orientation a run
//! happened to compute first.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ned_kb::{EntityId, FrozenKb};
use ned_relatedness::{
    CachedRelatedness, InlinkJaccard, KeyphraseCosine, KeywordCosine, Kore, MilneWitten,
    Relatedness,
};
use ned_wikigen::config::WorldConfig;
use ned_wikigen::{ExportedKb, World};

fn kb() -> FrozenKb {
    FrozenKb::freeze(&ExportedKb::build(&World::generate(WorldConfig::tiny(7))).kb)
}

/// Asserts `r(a, b)` and `r(b, a)` agree bit for bit over every pair of
/// the world's entities, uncached and through the memo in both lookup
/// orders.
fn assert_bitwise_symmetric(measure: &dyn Relatedness, ids: &[EntityId]) {
    let name = measure.name();
    let cached = CachedRelatedness::new(measure);
    let mut nonzero = 0usize;
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            let ab = measure.relatedness(a, b).to_bits();
            let ba = measure.relatedness(b, a).to_bits();
            assert_eq!(ab, ba, "{name}: r({a:?}, {b:?}) != r({b:?}, {a:?})");
            nonzero += usize::from(f64::from_bits(ab) != 0.0);
            // Alternate which orientation reaches the memo first.
            let (first, second) =
                if (a.0 + b.0) % 2 == 0 { ((a, b), (b, a)) } else { ((b, a), (a, b)) };
            assert_eq!(cached.relatedness(first.0, first.1).to_bits(), ab, "{name}: memo miss");
            assert_eq!(cached.relatedness(second.0, second.1).to_bits(), ab, "{name}: memo hit");
        }
    }
    assert!(nonzero > 0, "{name}: the world must produce related pairs");
    assert_eq!(cached.misses(), cached.inserts());
    assert_eq!(cached.hits(), cached.misses(), "every pair is looked up twice");
}

#[test]
fn every_measure_is_bitwise_symmetric_and_memoizes_uncached_bits() {
    let kb = kb();
    let ids: Vec<EntityId> = kb.entity_ids().collect();
    assert_bitwise_symmetric(&MilneWitten::new(&kb), &ids);
    assert_bitwise_symmetric(&Kore::new(&kb), &ids);
    assert_bitwise_symmetric(&KeywordCosine::new(&kb), &ids);
    assert_bitwise_symmetric(&KeyphraseCosine::new(&kb), &ids);
    assert_bitwise_symmetric(&InlinkJaccard::new(&kb), &ids);
}
