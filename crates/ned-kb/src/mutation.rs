//! The typed mutation vocabulary of the incremental KB.
//!
//! The paper's NED-EE loop (Ch. 5, Algorithm 3) grows the knowledge base as
//! confident emerging entities are discovered. [`KbMutation`] is the closed
//! set of changes that growth is allowed to make — exactly the operations
//! [`crate::builder::KbBuilder`] exposes at build time, replayed after the
//! fact.
//!
//! Mutations refer to entities by **canonical name**, not [`EntityId`]:
//! ids are dense indexes assigned at apply time, so a name-based record is
//! stable across WAL replay, delta rebuilds, and compaction (a promoted
//! entity keeps meaning "the entity named X" no matter how many other
//! promotions landed first). Resolution failures surface as typed
//! [`ned_core::NedError::Lookup`] / [`ned_core::NedError::Config`] errors
//! at apply time — never panics.
//!
//! [`EntityId`]: crate::ids::EntityId

use serde::{Deserialize, Serialize};

use crate::entity::EntityKind;

/// One atomic change to the knowledge base.
///
/// Serialized into WAL frames by [`crate::wal`] with the same hand-rolled
/// codec as snapshot v3 (via the flat `WireMutation` wire form — the
/// vendored codec derives only handle structs and fieldless enums), and
/// applied in order by [`crate::delta::DeltaKb::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KbMutation {
    /// Registers a new entity with a unique canonical name.
    ///
    /// Mirrors [`crate::builder::KbBuilder::add_entity`]: the canonical name
    /// is also added to the dictionary with an anchor count of 1 (the
    /// "title" observation). Applying this to a KB that already has the
    /// name is a [`ned_core::NedError::Config`] error.
    AddEntity {
        /// Unique canonical name, e.g. "Prism (surveillance program)".
        canonical_name: String,
        /// Coarse semantic class.
        kind: EntityKind,
    },
    /// Adds a directed link between two existing entities (by canonical
    /// name). Self-links and duplicates are ignored, like
    /// [`crate::links::LinkGraph::add_link`].
    AddLink {
        /// Canonical name of the source entity.
        src: String,
        /// Canonical name of the destination entity.
        dst: String,
    },
    /// Adds `count` observations of a keyphrase for an existing entity,
    /// interning the phrase if it is new.
    AddKeyphrase {
        /// Canonical name of the entity being described.
        entity: String,
        /// Keyphrase surface text (split on whitespace into keywords).
        surface: String,
        /// Observation count to add.
        count: u64,
    },
    /// Adjusts the observation count of an existing (entity, keyphrase)
    /// pair by a signed delta, saturating at zero. The phrase must already
    /// be in the entity's keyphrase set.
    ReweightKeyphrase {
        /// Canonical name of the entity.
        entity: String,
        /// Surface text of the already-interned phrase.
        surface: String,
        /// Signed count adjustment.
        delta: i64,
    },
    /// Adds a dictionary surface (alias) observation for an existing
    /// entity, like [`crate::builder::KbBuilder::add_name`].
    AddDictionarySurface {
        /// Canonical name of the entity the surface refers to.
        entity: String,
        /// The surface name observed referring to the entity.
        surface: String,
        /// Anchor count of the observation.
        count: u64,
    },
}

impl KbMutation {
    /// Stable label for logs and reports.
    pub fn kind_str(&self) -> &'static str {
        match self {
            KbMutation::AddEntity { .. } => "add_entity",
            KbMutation::AddLink { .. } => "add_link",
            KbMutation::AddKeyphrase { .. } => "add_keyphrase",
            KbMutation::ReweightKeyphrase { .. } => "reweight_keyphrase",
            KbMutation::AddDictionarySurface { .. } => "add_dictionary_surface",
        }
    }
}

/// Fieldless discriminant of [`WireMutation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum WireOp {
    /// [`KbMutation::AddEntity`].
    AddEntity,
    /// [`KbMutation::AddLink`].
    AddLink,
    /// [`KbMutation::AddKeyphrase`].
    AddKeyphrase,
    /// [`KbMutation::ReweightKeyphrase`].
    ReweightKeyphrase,
    /// [`KbMutation::AddDictionarySurface`].
    AddDictionarySurface,
}

/// Flat wire form of a [`KbMutation`], shaped for the vendored codec
/// derives (a struct of scalars/strings plus fieldless enums). Fields not
/// meaningful for an op carry their defaults and are ignored on decode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct WireMutation {
    op: WireOp,
    /// Canonical entity name (or link source).
    entity: String,
    /// Second name: link destination, keyphrase surface, or alias surface.
    other: String,
    /// Entity kind (AddEntity only).
    kind: EntityKind,
    /// Observation count (AddEntity/AddKeyphrase/AddDictionarySurface).
    count: u64,
    /// Signed adjustment (ReweightKeyphrase only).
    delta: i64,
}

impl From<&KbMutation> for WireMutation {
    fn from(m: &KbMutation) -> Self {
        let blank = WireMutation {
            op: WireOp::AddEntity,
            entity: String::new(),
            other: String::new(),
            kind: EntityKind::Other,
            count: 0,
            delta: 0,
        };
        match m {
            KbMutation::AddEntity { canonical_name, kind } => WireMutation {
                op: WireOp::AddEntity,
                entity: canonical_name.clone(),
                kind: *kind,
                ..blank
            },
            KbMutation::AddLink { src, dst } => WireMutation {
                op: WireOp::AddLink,
                entity: src.clone(),
                other: dst.clone(),
                ..blank
            },
            KbMutation::AddKeyphrase { entity, surface, count } => WireMutation {
                op: WireOp::AddKeyphrase,
                entity: entity.clone(),
                other: surface.clone(),
                count: *count,
                ..blank
            },
            KbMutation::ReweightKeyphrase { entity, surface, delta } => WireMutation {
                op: WireOp::ReweightKeyphrase,
                entity: entity.clone(),
                other: surface.clone(),
                delta: *delta,
                ..blank
            },
            KbMutation::AddDictionarySurface { entity, surface, count } => WireMutation {
                op: WireOp::AddDictionarySurface,
                entity: entity.clone(),
                other: surface.clone(),
                count: *count,
                ..blank
            },
        }
    }
}

impl From<WireMutation> for KbMutation {
    fn from(w: WireMutation) -> Self {
        match w.op {
            WireOp::AddEntity => {
                KbMutation::AddEntity { canonical_name: w.entity, kind: w.kind }
            }
            WireOp::AddLink => KbMutation::AddLink { src: w.entity, dst: w.other },
            WireOp::AddKeyphrase => {
                KbMutation::AddKeyphrase { entity: w.entity, surface: w.other, count: w.count }
            }
            WireOp::ReweightKeyphrase => KbMutation::ReweightKeyphrase {
                entity: w.entity,
                surface: w.other,
                delta: w.delta,
            },
            WireOp::AddDictionarySurface => KbMutation::AddDictionarySurface {
                entity: w.entity,
                surface: w.other,
                count: w.count,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{decode, encode};

    fn samples() -> Vec<KbMutation> {
        vec![
            KbMutation::AddEntity {
                canonical_name: "Prism (surveillance program)".into(),
                kind: EntityKind::Other,
            },
            KbMutation::AddLink { src: "Prism (surveillance program)".into(), dst: "NSA".into() },
            KbMutation::AddKeyphrase {
                entity: "Prism (surveillance program)".into(),
                surface: "mass surveillance".into(),
                count: 3,
            },
            KbMutation::ReweightKeyphrase {
                entity: "Prism (surveillance program)".into(),
                surface: "mass surveillance".into(),
                delta: -2,
            },
            KbMutation::AddDictionarySurface {
                entity: "Prism (surveillance program)".into(),
                surface: "PRISM".into(),
                count: 7,
            },
        ]
    }

    #[test]
    fn codec_roundtrip_preserves_every_variant() {
        for m in samples() {
            let bytes = encode(&WireMutation::from(&m)).unwrap();
            let wire: WireMutation = decode(&bytes).unwrap();
            assert_eq!(KbMutation::from(wire), m);
        }
    }

    #[test]
    fn kind_strings_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for m in samples() {
            assert!(seen.insert(m.kind_str()));
        }
    }
}
