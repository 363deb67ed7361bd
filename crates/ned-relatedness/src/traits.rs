//! The common interface of all relatedness measures.

use ned_kb::EntityId;

/// A symmetric semantic-relatedness measure between knowledge-base entities.
///
/// Implementations must be bitwise symmetric (`relatedness(a, b).to_bits()
/// == relatedness(b, a).to_bits()`, which the pair memo in
/// [`CachedRelatedness`](crate::CachedRelatedness) relies on) and
/// non-negative; most measures are bounded by 1.
///
/// `Sync` is a supertrait because one measure is shared by every document
/// of the batch runner's rayon workers and every `ned-serve` worker (a
/// single document queries it only from its own thread); all measures are
/// immutable views over the knowledge base (or internally synchronized,
/// like the pair cache).
pub trait Relatedness: Sync {
    /// Short identifier used in experiment tables ("MW", "KORE", ...).
    fn name(&self) -> &'static str;

    /// Relatedness of entities `a` and `b`.
    fn relatedness(&self, a: EntityId, b: EntityId) -> f64;
}

impl<T: Relatedness + ?Sized> Relatedness for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        (**self).relatedness(a, b)
    }
}

impl<T: Relatedness + Send + ?Sized> Relatedness for std::sync::Arc<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        (**self).relatedness(a, b)
    }
}

impl<T: Relatedness + ?Sized> Relatedness for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        (**self).relatedness(a, b)
    }
}
