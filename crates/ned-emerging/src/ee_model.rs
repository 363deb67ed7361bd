//! The placeholder-entity keyphrase model (Algorithm 2, §5.5.2).
//!
//! For an ambiguous name, the *global model* (phrases harvested from a news
//! chunk around its mentions) contains evidence for every entity carrying
//! the name — in-KB and emerging alike. Since the in-KB candidates' models
//! are known, subtracting them from the global model leaves the phrases
//! characteristic of the *emerging* entity:
//!
//! `d = α · (b − c)` per phrase, where `b` is the harvested count, `c` the
//! in-KB candidates' count, and `α = |KB| / |news chunk|` balances the
//! collection sizes.

use std::collections::HashMap;

use ned_eval::gold::GoldDoc;
use ned_kb::{KbView, WordId};

use crate::harvest::{harvest_name, mention_names};

/// The keyphrase model of one potential emerging entity (one per name).
#[derive(Debug, Clone, Default)]
pub struct EeModel {
    /// The ambiguous name the model belongs to.
    pub name: String,
    /// Phrases with weights in (0, 1]: word-id sequences (KB-interned;
    /// words unknown to the KB vocabulary are dropped) plus surfaces.
    pub phrases: Vec<EePhrase>,
    /// Number of mention occurrences the model was harvested from.
    pub occurrences: u64,
}

/// One weighted phrase of an [`EeModel`].
#[derive(Debug, Clone)]
pub struct EePhrase {
    /// Lowercased surface.
    pub surface: String,
    /// KB-interned word ids (deduplicated, sorted).
    pub words: Vec<WordId>,
    /// Salience weight in (0, 1] from the adjusted count.
    pub weight: f64,
}

impl EeModel {
    /// True when the model has no phrases (no distinctive evidence for an
    /// emerging entity under this name).
    pub fn is_empty(&self) -> bool {
        self.phrases.is_empty()
    }

    /// All distinct word ids of the model.
    pub fn word_set(&self) -> Vec<WordId> {
        let mut ws: Vec<WordId> = self.phrases.iter().flat_map(|p| p.words.clone()).collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    }
}

/// Configuration for model building.
#[derive(Debug, Clone)]
pub struct EeModelConfig {
    /// Keep at most this many phrases per model, by descending weight
    /// (§5.7.2 used 3,000; our phrases are far fewer).
    pub max_phrases: usize,
    /// Drop phrases whose adjusted count is below this.
    pub min_adjusted_count: f64,
}

impl Default for EeModelConfig {
    fn default() -> Self {
        EeModelConfig { max_phrases: 3000, min_adjusted_count: 0.5 }
    }
}

/// Builds the EE model for one name (Algorithm 2).
pub fn build_model<K: KbView + ?Sized>(
    kb: &K,
    docs: &[&GoldDoc],
    name: &str,
    config: &EeModelConfig,
) -> EeModel {
    let (global, occurrences) = harvest_name(docs, name);
    if global.is_empty() {
        return EeModel { name: name.to_string(), phrases: Vec::new(), occurrences };
    }
    // Collection-size balance α = |KB entities| / |news documents|.
    let alpha = if docs.is_empty() {
        1.0
    } else {
        (kb.entity_count().max(1) as f64) / (docs.len() as f64)
    };
    // In-KB candidates' keyphrase counts, keyed by lowercased surface, plus
    // their word sets for fuzzy matching: harvested phrases rarely match a
    // KB phrase verbatim (extraction merges adjacent noun runs), so the
    // subtraction also discounts phrases whose *words* overlap a candidate
    // phrase heavily — mirroring the partial matching of the scoring side.
    let mut kb_counts: HashMap<String, u64> = HashMap::new();
    let mut kb_word_sets: Vec<(Vec<WordId>, u64)> = Vec::new();
    for c in kb.candidates(name) {
        for ep in kb.keyphrases(c.entity) {
            let surface = kb.phrase_surface(ep.phrase).to_lowercase();
            *kb_counts.entry(surface).or_insert(0) += ep.count;
            let mut ws: Vec<WordId> = kb.phrase_words(ep.phrase).to_vec();
            ws.sort_unstable();
            ws.dedup();
            kb_word_sets.push((ws, ep.count));
        }
    }
    let fuzzy_kb_count = |surface: &str| -> f64 {
        let mut words: Vec<WordId> =
            surface.split_whitespace().filter_map(|w| kb.word_id(w)).collect();
        words.sort_unstable();
        words.dedup();
        if words.is_empty() {
            return 0.0;
        }
        let mut best = 0.0f64;
        for (ws, count) in &kb_word_sets {
            let inter = sorted_intersection(&words, ws);
            let union = words.len() + ws.len() - inter;
            let jaccard = inter as f64 / union as f64;
            if jaccard >= 0.5 {
                best = best.max(jaccard * *count as f64);
            }
        }
        best
    };
    // Model difference: d = α(b − c), clamped at 0, with `c` the exact or
    // fuzzy candidate count (whichever subtracts more).
    let mut adjusted: Vec<(String, f64)> = global
        .into_iter()
        .filter_map(|(surface, b)| {
            let exact = kb_counts.get(&surface).copied().unwrap_or(0) as f64;
            let c = exact.max(fuzzy_kb_count(&surface));
            let d = alpha * (b as f64 - c);
            (d >= config.min_adjusted_count).then_some((surface, d))
        })
        .collect();
    adjusted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    adjusted.truncate(config.max_phrases);
    let max_d = adjusted.first().map_or(1.0, |&(_, d)| d).max(f64::MIN_POSITIVE);
    let phrases = adjusted
        .into_iter()
        .filter_map(|(surface, d)| {
            let mut words: Vec<WordId> =
                surface.split_whitespace().filter_map(|w| kb.word_id(w)).collect();
            words.sort_unstable();
            words.dedup();
            if words.is_empty() {
                return None;
            }
            Some(EePhrase { surface, words, weight: (d / max_d).clamp(0.0, 1.0) })
        })
        .collect();
    EeModel { name: name.to_string(), phrases, occurrences }
}

fn sorted_intersection(a: &[WordId], b: &[WordId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// EE models for every name observed in a document chunk.
#[derive(Debug, Clone, Default)]
pub struct NameModels {
    models: HashMap<String, EeModel>,
}

impl NameModels {
    /// Builds models for all names occurring at least `min_occurrences`
    /// times in `docs` (the per-chunk redundancy requirement of §5.7.2).
    pub fn build<K: KbView + ?Sized>(
        kb: &K,
        docs: &[&GoldDoc],
        min_occurrences: u64,
        config: &EeModelConfig,
    ) -> Self {
        let mut models = HashMap::new();
        for (name, count) in mention_names(docs) {
            if count < min_occurrences {
                continue;
            }
            let model = build_model(kb, docs, &name, config);
            if !model.is_empty() {
                models.insert(name, model);
            }
        }
        NameModels { models }
    }

    /// The model for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&EeModel> {
        self.models.get(name)
    }

    /// Number of modeled names.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no names are modeled.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Inserts a model (for tests and custom pipelines).
    pub fn insert(&mut self, model: EeModel) {
        self.models.insert(model.name.clone(), model);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_eval::gold::LabeledMention;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_text::{tokenize, Mention};

    /// KB knows "Prism" as a band with phrase "progressive rock band"; the
    /// news stream talks about a surveillance program.
    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let band = b.add_entity("Prism (band)", EntityKind::Organization);
        b.add_name(band, "Prism", 10);
        b.add_keyphrase(band, "progressive rock band", 5);
        // Words the harvested phrases will need in the vocabulary.
        let pad = b.add_entity("Pad", EntityKind::Other);
        b.add_keyphrase(pad, "secret surveillance program", 1);
        b.add_keyphrase(pad, "intelligence whistleblower leak", 1);
        FrozenKb::freeze(&b.build())
    }

    fn news_doc(id: &str, text: &str) -> GoldDoc {
        let tokens = tokenize(text);
        let pos = tokens.iter().position(|t| t.text == "Prism").unwrap();
        GoldDoc::new(
            id,
            tokens,
            vec![LabeledMention { mention: Mention::new("Prism", pos, pos + 1), label: None }],
            0,
        )
    }

    fn docs() -> Vec<GoldDoc> {
        vec![
            news_doc("n1", "the secret surveillance program called Prism was revealed"),
            news_doc("n2", "a secret surveillance program and Prism leak shocked everyone"),
            news_doc("n3", "the progressive rock band played before Prism news broke"),
        ]
    }

    #[test]
    fn model_difference_keeps_novel_phrases() {
        let kb = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let model = build_model(&kb, &refs, "Prism", &EeModelConfig::default());
        assert!(!model.is_empty());
        assert!(
            model.phrases.iter().any(|p| p.surface.contains("surveillance program")),
            "{model:?}"
        );
        assert_eq!(model.occurrences, 3);
    }

    #[test]
    fn model_difference_subtracts_kb_phrases() {
        let kb = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let model = build_model(&kb, &refs, "Prism", &EeModelConfig::default());
        // "progressive rock band" is a KB phrase of the candidate (count 5 >
        // harvested 1) and must be subtracted away.
        assert!(
            !model.phrases.iter().any(|p| p.surface == "progressive rock band"),
            "{model:?}"
        );
    }

    #[test]
    fn weights_are_normalized() {
        let kb = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let model = build_model(&kb, &refs, "Prism", &EeModelConfig::default());
        let max = model.phrases.iter().map(|p| p.weight).fold(0.0f64, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        for p in &model.phrases {
            assert!(p.weight > 0.0 && p.weight <= 1.0);
        }
    }

    #[test]
    fn unknown_name_yields_empty_model() {
        let kb = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let model = build_model(&kb, &refs, "Nothing", &EeModelConfig::default());
        assert!(model.is_empty());
    }

    #[test]
    fn name_models_respect_min_occurrences() {
        let kb = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let models = NameModels::build(&kb, &refs, 2, &EeModelConfig::default());
        assert!(models.get("Prism").is_some());
        let strict = NameModels::build(&kb, &refs, 10, &EeModelConfig::default());
        assert!(strict.get("Prism").is_none());
        assert!(strict.is_empty());
    }

    #[test]
    fn max_phrases_truncates_by_weight() {
        let kb = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let config = EeModelConfig { max_phrases: 1, ..Default::default() };
        let model = build_model(&kb, &refs, "Prism", &config);
        assert_eq!(model.phrases.len(), 1);
        // The kept phrase is the most frequent one.
        assert!(model.phrases[0].surface.contains("surveillance"), "{model:?}");
    }
}
