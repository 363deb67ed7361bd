//! Shared experiment setup: the standard world, corpora, and scale knobs.

use std::sync::Arc;

use ned_kb::FrozenKb;
use ned_wikigen::config::WorldConfig;
use ned_wikigen::corpus::{conll_like, kore50_like, wp_like, Corpus};
use ned_wikigen::news::{generate_stream, NewsConfig, NewsStream};
use ned_wikigen::{ExportedKb, World};

/// Experiment scale. `quick` keeps every experiment under a few seconds;
/// `full` approaches the corpus sizes of the thesis.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Entities per topic in the world.
    pub entities_per_topic: usize,
    /// Documents in the CoNLL-like corpus (the thesis used 1,393).
    pub conll_docs: usize,
    /// Documents in the KORE50-like corpus (the thesis used 50; more gives
    /// tighter estimates).
    pub kore50_docs: usize,
    /// Documents in the WP-like corpus (the thesis used 2,019 sentences).
    pub wp_docs: usize,
    /// Days in the news stream.
    pub news_days: u32,
    /// Documents per news day.
    pub news_docs_per_day: usize,
}

impl Scale {
    /// Fast scale for smoke runs.
    pub fn quick() -> Self {
        Scale {
            entities_per_topic: 150,
            conll_docs: 200,
            kore50_docs: 100,
            wp_docs: 200,
            news_days: 6,
            news_docs_per_day: 20,
        }
    }

    /// Full scale, approaching the thesis' corpus sizes.
    pub fn full() -> Self {
        Scale {
            entities_per_topic: 400,
            conll_docs: 1_400,
            kore50_docs: 300,
            wp_docs: 1_000,
            news_days: 12,
            news_docs_per_day: 40,
        }
    }
}

/// The standard experiment environment.
#[derive(Debug)]
pub struct Env {
    /// The synthetic world (ground truth).
    pub world: World,
    /// Exported knowledge base + id mappings.
    pub exported: ExportedKb,
    /// The same KB frozen into its columnar read-path form, behind an
    /// `Arc` so experiments can share one handle across rayon workers.
    pub frozen: Arc<FrozenKb>,
}

impl Env {
    /// Builds the standard world at the given scale (fixed master seed —
    /// experiments are reproducible run to run).
    pub fn build(scale: &Scale) -> Self {
        let world = World::generate(WorldConfig {
            entities_per_topic: scale.entities_per_topic,
            ..WorldConfig::default()
        });
        let exported = ExportedKb::build(&world);
        let frozen = Arc::new(FrozenKb::freeze(&exported.kb));
        Env { world, exported, frozen }
    }

    /// The CoNLL-YAGO-style corpus.
    pub fn conll(&self, scale: &Scale) -> Corpus {
        conll_like(&self.world, &self.exported, 7, scale.conll_docs)
    }

    /// The KORE50-style corpus.
    pub fn kore50(&self, scale: &Scale) -> Corpus {
        kore50_like(&self.world, &self.exported, 8, scale.kore50_docs)
    }

    /// The WP-style corpus.
    pub fn wp(&self, scale: &Scale) -> Corpus {
        wp_like(&self.world, &self.exported, 9, scale.wp_docs)
    }

    /// The timestamped news stream with emerging entities.
    pub fn news(&self, scale: &Scale) -> NewsStream {
        generate_stream(
            &self.world,
            &self.exported,
            10,
            &NewsConfig {
                n_days: scale.news_days,
                docs_per_day: scale.news_docs_per_day,
                emerging_prob: 0.12,
                burst_days: 3,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_env_builds() {
        let scale = Scale::quick();
        let env = Env::build(&scale);
        assert!(env.frozen.entity_count() > 300);
        let corpus = env.conll(&Scale { conll_docs: 10, ..Scale::quick() });
        assert_eq!(corpus.docs.len(), 10);
    }
}
