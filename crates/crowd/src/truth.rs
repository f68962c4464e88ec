//! The hidden ground-truth oracle.
//!
//! Datasets register *items* (the analogue of the paper's images) with
//! latent properties that workers perceive noisily:
//!
//! * **scores** along named sort dimensions (square area, animal adult
//!   size, dangerousness, …) together with a per-dimension *ambiguity*
//!   controlling how discriminable neighbouring items are. The paper's
//!   Q4 ("belongs on Saturn") is a dimension with ambiguity so high the
//!   signal nearly vanishes; Q5 is pure noise.
//! * **entities** for join questions: two items match iff they denote
//!   the same entity. A pairwise *similarity* in `[0,1]` drives false
//!   positives between lookalikes.
//! * **categorical features** (gender, hair color, skin color) with
//!   per-item confusion distributions — a dyed-hair celebrity has
//!   probability mass spread over several hair colors, which is what
//!   drags Fleiss' κ down in Table 4.
//! * **filter predicates** (bool) with per-item error rates.
//! * **generative fields**: a distribution over raw strings workers
//!   type (case/spacing variants normalize to the canonical answer).
//!
//! The oracle is append-only and shared read-only by worker models.
//!
//! Lookups sit on the simulator's hot path (every answer perceives one
//! or more items), so every table is keyed by name first and probed
//! with a borrowed `&str`, and each dimension keeps its score range
//! current instead of scanning for it. Item ids are dense (allocated
//! from a counter), so entities and every per-name item table (scores,
//! features, predicates, texts) are vectors indexed by `ItemId.0`: a
//! join question's entity lookups hash nothing. A sort question names
//! one dimension for all its items, so [`GroundTruth::dimension`]
//! resolves the name once into a [`Dimension`] view (parameters,
//! scores and range) and each item is then read by index. Entity-pair
//! similarities, probed on every non-matching join pair, are keyed
//! with a fixed multiply-rotate hash instead of SipHash.

// lint:hot-path

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Opaque item identifier (an image/tuple in the paper's datasets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u64);

/// Opaque entity identifier for join ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u64);

/// Per-name tables: name → values indexed by item id, so a lookup
/// borrows the name and indexes the item.
type ByName<T> = HashMap<String, Vec<Option<T>>>;

/// The value at `item` of a table indexed by item id; `None` for an
/// unset or out-of-range id.
fn slot<T>(items: &[Option<T>], item: ItemId) -> Option<&T> {
    items.get(usize::try_from(item.0).ok()?)?.as_ref()
}

/// Set `item`'s value, growing the table to reach it.
fn set_slot<T>(items: &mut Vec<Option<T>>, item: ItemId, value: T) {
    let i = item.0 as usize;
    if items.len() <= i {
        items.resize_with(i + 1, || None);
    }
    items[i] = Some(value);
}

fn lookup<'a, T>(table: &'a ByName<T>, name: &str, item: ItemId) -> Option<&'a T> {
    slot(table.get(name)?, item)
}

/// Insert into a [`ByName`] table, allocating the name only when new.
fn insert<T>(table: &mut ByName<T>, name: &str, item: ItemId, value: T) {
    match table.get_mut(name) {
        Some(items) => set_slot(items, item, value),
        None => {
            let mut items = Vec::new();
            set_slot(&mut items, item, value);
            table.insert(name.to_owned(), items);
        }
    }
}

/// FxHash-style hasher for the similarity table's integer keys. The
/// keys come from the dataset, not from an adversary, so SipHash's
/// flooding resistance buys nothing on a lookup made per join pair.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Latent scores of one sort dimension, indexed by item id, and their
/// current range.
#[derive(Debug, Clone)]
struct DimensionScores {
    by_item: Vec<Option<f64>>,
    lo: f64,
    hi: f64,
}

impl Default for DimensionScores {
    fn default() -> Self {
        DimensionScores {
            by_item: Vec::new(),
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
        }
    }
}

impl DimensionScores {
    fn set(&mut self, item: ItemId, score: f64) {
        let replaced = slot(&self.by_item, item).is_some();
        set_slot(&mut self.by_item, item, score);
        if replaced {
            // The replaced score may have been an extreme: rescan.
            let scores = || self.by_item.iter().flatten();
            self.lo = scores().fold(f64::INFINITY, |lo, &s| lo.min(s));
            self.hi = scores().fold(f64::NEG_INFINITY, |hi, &s| hi.max(s));
        } else {
            self.lo = self.lo.min(score);
            self.hi = self.hi.max(score);
        }
    }
}

/// One sort dimension resolved by name: its perception parameters, its
/// scores indexed by item id and their range. A question over several
/// items resolves the name once ([`GroundTruth::dimension`]) and reads
/// every item from the view.
#[derive(Debug, Clone, Copy)]
pub struct Dimension<'a> {
    pub params: DimensionParams,
    scores: &'a [Option<f64>],
    range: Option<(f64, f64)>,
}

impl Dimension<'_> {
    /// Latent score, if registered ([`GroundTruth::score`]).
    pub fn score(&self, item: ItemId) -> Option<f64> {
        slot(self.scores, item).copied()
    }

    /// Min/max score ([`GroundTruth::score_range`]).
    pub fn range(&self) -> Option<(f64, f64)> {
        self.range
    }
}

/// Per-dimension perception parameters.
#[derive(Debug, Clone, Copy)]
pub struct DimensionParams {
    /// Standard deviation of the perceptual noise a median worker adds
    /// to an item's (normalized) score when comparing items
    /// side-by-side. 0 = perfectly crisp (squares); large = ambiguous
    /// (Saturn).
    pub ambiguity: f64,
    /// Multiplier on `ambiguity` for *absolute* judgments (Likert
    /// ratings). Psychophysically, rating an item in isolation is much
    /// noisier than comparing two items side by side; this gap is what
    /// makes `Rate` cheaper but less accurate than `Compare` (§4.2).
    pub rating_noise_mult: f64,
    /// If true the dimension carries no signal at all: workers perceive
    /// pure noise (the paper's Q5 "random responses" control).
    pub pure_noise: bool,
}

impl Default for DimensionParams {
    fn default() -> Self {
        DimensionParams {
            ambiguity: 0.05,
            rating_noise_mult: 4.0,
            pure_noise: false,
        }
    }
}

impl DimensionParams {
    /// A crisp, objectively sortable dimension (e.g. square area).
    pub fn crisp(ambiguity: f64) -> Self {
        DimensionParams {
            ambiguity,
            ..Default::default()
        }
    }

    /// Fully ambiguous: workers perceive pure noise.
    pub fn pure_noise() -> Self {
        DimensionParams {
            ambiguity: 1.0,
            rating_noise_mult: 1.0,
            pure_noise: true,
        }
    }
}

/// Categorical feature truth for one item.
#[derive(Debug, Clone)]
pub struct FeatureTruth {
    /// Index of the true category within the feature's option list.
    pub value: usize,
    /// Probability a careful worker reports each category; must sum to
    /// ~1 over `options.len()` entries. An extra final entry, if
    /// present, is the probability of answering `UNKNOWN`.
    pub report_probs: Vec<f64>,
}

/// Boolean predicate truth for one item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredicateTruth {
    pub value: bool,
    /// Probability a careful worker answers incorrectly.
    pub error_rate: f64,
}

/// Generative field truth: raw strings a worker might type and their
/// probabilities (normalizing should collapse them to a canonical form).
#[derive(Debug, Clone)]
pub struct TextTruth {
    pub variants: Vec<(String, f64)>,
}

/// The oracle. Tables are keyed by name, then item; names are few and
/// short, so plain `String` keys probed by `&str` need no interner.
#[derive(Debug, Default, Clone)]
pub struct GroundTruth {
    scores: HashMap<String, DimensionScores>,
    dimensions: HashMap<String, DimensionParams>,
    /// Entity per item, indexed by item id.
    entities: Vec<Option<EntityId>>,
    /// Similarity between *different* entities, keyed with the smaller
    /// entity id first. Missing = `default_similarity`.
    similarities: HashMap<(EntityId, EntityId), f64, BuildHasherDefault<PairHasher>>,
    default_similarity: f64,
    features: ByName<FeatureTruth>,
    /// Override distributions used when the feature is asked in the
    /// combined (all-features-at-once) interface; falls back to
    /// `features`. Captures the paper's §3.3.4 finding that the
    /// combined interface changes answer quality per feature.
    features_combined: ByName<FeatureTruth>,
    feature_options: HashMap<String, Vec<String>>,
    predicates: ByName<PredicateTruth>,
    texts: ByName<TextTruth>,
    next_item: u64,
}

impl GroundTruth {
    pub fn new() -> Self {
        GroundTruth {
            default_similarity: 0.1,
            ..Default::default()
        }
    }

    /// Allocate a fresh item id.
    pub fn new_item(&mut self) -> ItemId {
        let id = ItemId(self.next_item);
        self.next_item += 1;
        id
    }

    /// Allocate `n` fresh item ids.
    pub fn new_items(&mut self, n: usize) -> Vec<ItemId> {
        (0..n).map(|_| self.new_item()).collect()
    }

    /// # Panics
    /// Panics if this truth did not allocate `item`: the item tables
    /// are indexed by id, so a foreign id is a caller bug.
    fn check_allocated(&self, item: ItemId) {
        assert!(
            item.0 < self.next_item,
            "item {} was not allocated by this ground truth ({} items)",
            item.0,
            self.next_item
        );
    }

    // ---- sort dimensions ----

    /// Register a sort dimension with perception parameters.
    pub fn define_dimension(&mut self, name: &str, params: DimensionParams) {
        self.dimensions.insert(name.to_owned(), params);
    }

    pub fn dimension_params(&self, name: &str) -> DimensionParams {
        self.dimensions.get(name).copied().unwrap_or_default()
    }

    /// Set an item's latent score on a dimension, keeping the
    /// dimension's range current (recomputed when a score is
    /// overwritten, since the old value may have been an extreme).
    ///
    /// # Panics
    /// Panics if this truth did not allocate `item`.
    pub fn set_score(&mut self, item: ItemId, dimension: &str, score: f64) {
        self.check_allocated(item);
        match self.scores.get_mut(dimension) {
            Some(d) => d.set(item, score),
            None => {
                let mut d = DimensionScores::default();
                d.set(item, score);
                self.scores.insert(dimension.to_owned(), d);
            }
        }
    }

    /// Latent score, if registered.
    pub fn score(&self, item: ItemId, dimension: &str) -> Option<f64> {
        slot(&self.scores.get(dimension)?.by_item, item).copied()
    }

    /// Min/max score over all items registered on a dimension; used to
    /// normalize perception noise and to calibrate Likert mapping.
    pub fn score_range(&self, dimension: &str) -> Option<(f64, f64)> {
        self.scores.get(dimension).map(|d| (d.lo, d.hi))
    }

    /// A dimension's parameters, scores and range, resolved by name
    /// once. An undefined name reads as default parameters with no
    /// scores and no range.
    pub fn dimension(&self, name: &str) -> Dimension<'_> {
        let scores = self.scores.get(name);
        Dimension {
            params: self.dimension_params(name),
            scores: scores.map_or(&[], |d| &d.by_item),
            range: scores.map(|d| (d.lo, d.hi)),
        }
    }

    /// Ground-truth best-to-worst ordering of `items` on `dimension`
    /// (higher score first). Items without a score sort last, stably.
    pub fn true_order(&self, items: &[ItemId], dimension: &str) -> Vec<ItemId> {
        let mut v: Vec<ItemId> = items.to_vec();
        v.sort_by(|&a, &b| {
            let sa = self.score(a, dimension).unwrap_or(f64::NEG_INFINITY);
            let sb = self.score(b, dimension).unwrap_or(f64::NEG_INFINITY);
            sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
        });
        v
    }

    // ---- entities / joins ----

    /// Mark an item as depicting an entity.
    ///
    /// # Panics
    /// Panics if this truth did not allocate `item`.
    pub fn set_entity(&mut self, item: ItemId, entity: EntityId) {
        self.check_allocated(item);
        set_slot(&mut self.entities, item, entity);
    }

    pub fn entity(&self, item: ItemId) -> Option<EntityId> {
        slot(&self.entities, item).copied()
    }

    /// Do two items depict the same entity? Items without entity
    /// registration never match anything.
    pub fn same_entity(&self, a: ItemId, b: ItemId) -> bool {
        match (self.entity(a), self.entity(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Baseline similarity used for unregistered entity pairs.
    pub fn set_default_similarity(&mut self, s: f64) {
        self.default_similarity = s.clamp(0.0, 1.0);
    }

    /// Record how visually similar two distinct entities are (drives
    /// false-positive join votes between lookalikes).
    pub fn set_similarity(&mut self, a: EntityId, b: EntityId, s: f64) {
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.similarities.insert(key, s.clamp(0.0, 1.0));
    }

    /// Similarity between the entities behind two items (1.0 if same).
    pub fn similarity(&self, a: ItemId, b: ItemId) -> f64 {
        match (self.entity(a), self.entity(b)) {
            (Some(x), Some(y)) if x == y => 1.0,
            (Some(x), Some(y)) => {
                let key = if x.0 <= y.0 { (x, y) } else { (y, x) };
                self.similarities
                    .get(&key)
                    .copied()
                    .unwrap_or(self.default_similarity)
            }
            _ => self.default_similarity,
        }
    }

    // ---- categorical features ----

    /// Register a feature and its option labels (e.g. `hairColor`:
    /// black/brown/blond/white). `UNKNOWN` is implicit and not listed.
    pub fn define_feature(&mut self, name: &str, options: &[&str]) {
        self.feature_options.insert(
            name.to_owned(),
            options.iter().map(|s| s.to_string()).collect(),
        );
    }

    pub fn feature_options(&self, name: &str) -> Option<&[String]> {
        self.feature_options.get(name).map(|v| v.as_slice())
    }

    /// Set an item's feature truth. `report_probs` may include one
    /// trailing entry beyond the option count for `UNKNOWN`.
    ///
    /// # Panics
    /// Panics if the feature is undefined, the probability vector has
    /// the wrong arity, or this truth did not allocate `item`.
    pub fn set_feature(&mut self, item: ItemId, feature: &str, truth: FeatureTruth) {
        self.check_allocated(item);
        let opts = self
            .feature_options
            .get(feature)
            .unwrap_or_else(|| panic!("feature {feature} not defined"));
        assert!(
            truth.report_probs.len() == opts.len() || truth.report_probs.len() == opts.len() + 1,
            "report_probs arity {} does not match {} options (+1 optional UNKNOWN)",
            truth.report_probs.len(),
            opts.len()
        );
        assert!(truth.value < opts.len(), "true value out of range");
        insert(&mut self.features, feature, item, truth);
    }

    /// Convenience: a crisp feature where a careful worker answers the
    /// true category with probability `1 - confusion` and spreads the
    /// remainder uniformly over the other categories.
    pub fn set_feature_simple(
        &mut self,
        item: ItemId,
        feature: &str,
        value: usize,
        confusion: f64,
    ) {
        let k = self
            .feature_options
            .get(feature)
            .unwrap_or_else(|| panic!("feature {feature} not defined"))
            .len();
        let mut probs = vec![confusion / (k.max(2) - 1) as f64; k];
        probs[value] = 1.0 - confusion;
        self.set_feature(
            item,
            feature,
            FeatureTruth {
                value,
                report_probs: probs,
            },
        );
    }

    pub fn feature(&self, item: ItemId, feature: &str) -> Option<&FeatureTruth> {
        lookup(&self.features, feature, item)
    }

    /// Set the distribution used when the feature is asked in the
    /// combined interface (same validation as [`Self::set_feature`]).
    pub fn set_feature_for_combined(&mut self, item: ItemId, feature: &str, truth: FeatureTruth) {
        self.check_allocated(item);
        let opts = self
            .feature_options
            .get(feature)
            .unwrap_or_else(|| panic!("feature {feature} not defined"));
        assert!(
            truth.report_probs.len() == opts.len() || truth.report_probs.len() == opts.len() + 1,
            "report_probs arity mismatch"
        );
        insert(&mut self.features_combined, feature, item, truth);
    }

    /// Feature truth as perceived through the combined interface,
    /// falling back to the single-feature distribution.
    pub fn feature_combined(&self, item: ItemId, feature: &str) -> Option<&FeatureTruth> {
        lookup(&self.features_combined, feature, item)
            .or_else(|| lookup(&self.features, feature, item))
    }

    // ---- predicates ----

    /// # Panics
    /// Panics if this truth did not allocate `item`.
    pub fn set_predicate(&mut self, item: ItemId, predicate: &str, truth: PredicateTruth) {
        self.check_allocated(item);
        insert(&mut self.predicates, predicate, item, truth);
    }

    pub fn predicate(&self, item: ItemId, predicate: &str) -> Option<PredicateTruth> {
        lookup(&self.predicates, predicate, item).copied()
    }

    // ---- generative text ----

    /// # Panics
    /// Panics if this truth did not allocate `item`.
    pub fn set_text(&mut self, item: ItemId, field: &str, truth: TextTruth) {
        self.check_allocated(item);
        insert(&mut self.texts, field, item, truth);
    }

    pub fn text(&self, item: ItemId, field: &str) -> Option<&TextTruth> {
        lookup(&self.texts, field, item)
    }

    /// Number of items allocated so far.
    pub fn item_count(&self) -> u64 {
        self.next_item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_allocation_is_sequential() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        let b = gt.new_item();
        assert_ne!(a, b);
        assert_eq!(gt.item_count(), 2);
        assert_eq!(gt.new_items(3).len(), 3);
        assert_eq!(gt.item_count(), 5);
    }

    #[test]
    fn scores_and_ranges() {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(3);
        gt.set_score(items[0], "area", 400.0);
        gt.set_score(items[1], "area", 529.0);
        gt.set_score(items[2], "area", 676.0);
        assert_eq!(gt.score(items[1], "area"), Some(529.0));
        assert_eq!(gt.score(items[1], "height"), None);
        assert_eq!(gt.score_range("area"), Some((400.0, 676.0)));
        assert_eq!(gt.score_range("nope"), None);
    }

    #[test]
    fn overwriting_an_extreme_score_recomputes_the_range() {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(3);
        gt.set_score(items[0], "area", 400.0);
        gt.set_score(items[1], "area", 529.0);
        gt.set_score(items[2], "area", 676.0);
        gt.set_score(items[2], "area", 500.0);
        assert_eq!(gt.score_range("area"), Some((400.0, 529.0)));
        gt.set_score(items[0], "area", 450.0);
        assert_eq!(gt.score_range("area"), Some((450.0, 529.0)));
        gt.set_score(items[1], "area", 900.0);
        assert_eq!(gt.score_range("area"), Some((450.0, 900.0)));
        assert_eq!(gt.score(items[1], "area"), Some(900.0));
    }

    #[test]
    fn dimension_view_agrees_with_score_and_range() {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(4);
        gt.define_dimension("noise", DimensionParams::pure_noise());
        for (i, &it) in items[..3].iter().enumerate() {
            gt.set_score(it, "area", 100.0 * i as f64);
            gt.set_score(it, "noise", i as f64);
        }
        // Overwrite the top extreme: the range is rescanned.
        gt.set_score(items[2], "area", 50.0);
        let far = ItemId(u64::MAX);
        for name in ["area", "noise", "undefined"] {
            let dim = gt.dimension(name);
            for &it in items.iter().chain([&far]) {
                assert_eq!(dim.score(it), gt.score(it, name), "{name} {it:?}");
            }
            assert_eq!(dim.range(), gt.score_range(name), "{name}");
            let params = gt.dimension_params(name);
            assert_eq!(
                (dim.params.ambiguity, dim.params.pure_noise),
                (params.ambiguity, params.pure_noise)
            );
        }
        let area = gt.dimension("area");
        assert_eq!(area.range(), Some((0.0, 100.0)));
        assert_eq!(area.score(items[2]), Some(50.0));
        // Unscored: perception falls back to the middle of the range.
        assert_eq!(area.score(items[3]), None);
        assert!(gt.dimension("noise").params.pure_noise);
        let undefined = gt.dimension("undefined");
        assert_eq!((undefined.score(items[0]), undefined.range()), (None, None));
        assert!(!undefined.params.pure_noise);
    }

    #[test]
    fn true_order_is_descending() {
        let mut gt = GroundTruth::new();
        let items = gt.new_items(3);
        gt.set_score(items[0], "size", 1.0);
        gt.set_score(items[1], "size", 3.0);
        gt.set_score(items[2], "size", 2.0);
        let order = gt.true_order(&items, "size");
        assert_eq!(order, vec![items[1], items[2], items[0]]);
    }

    #[test]
    fn entities_and_similarity() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        let b = gt.new_item();
        let c = gt.new_item();
        gt.set_entity(a, EntityId(1));
        gt.set_entity(b, EntityId(1));
        gt.set_entity(c, EntityId(2));
        assert!(gt.same_entity(a, b));
        assert!(!gt.same_entity(a, c));
        assert_eq!(gt.similarity(a, b), 1.0);
        gt.set_similarity(EntityId(1), EntityId(2), 0.8);
        assert_eq!(gt.similarity(a, c), 0.8);
        // symmetric key
        assert_eq!(gt.similarity(c, a), 0.8);
    }

    #[test]
    fn unregistered_items_never_match() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        let b = gt.new_item();
        assert!(!gt.same_entity(a, b));
        assert_eq!(gt.similarity(a, b), 0.1); // default
        gt.set_default_similarity(0.3);
        assert_eq!(gt.similarity(a, b), 0.3);
    }

    #[test]
    fn features_roundtrip() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        gt.define_feature("gender", &["male", "female"]);
        gt.set_feature_simple(a, "gender", 1, 0.02);
        let f = gt.feature(a, "gender").unwrap();
        assert_eq!(f.value, 1);
        assert!((f.report_probs[1] - 0.98).abs() < 1e-12);
        assert_eq!(gt.feature_options("gender").unwrap().len(), 2);
    }

    #[test]
    fn feature_with_unknown_tail() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        gt.define_feature("hair", &["black", "brown", "blond", "white"]);
        gt.set_feature(
            a,
            "hair",
            FeatureTruth {
                value: 2,
                report_probs: vec![0.05, 0.1, 0.5, 0.3, 0.05], // last = UNKNOWN
            },
        );
        assert_eq!(gt.feature(a, "hair").unwrap().report_probs.len(), 5);
    }

    #[test]
    #[should_panic(expected = "not defined")]
    fn feature_requires_definition() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        gt.set_feature_simple(a, "undefined", 0, 0.0);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn feature_probs_arity_checked() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        gt.define_feature("gender", &["male", "female"]);
        gt.set_feature(
            a,
            "gender",
            FeatureTruth {
                value: 0,
                report_probs: vec![0.2; 5],
            },
        );
    }

    #[test]
    fn predicates_roundtrip() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        gt.set_predicate(
            a,
            "isFemale",
            PredicateTruth {
                value: true,
                error_rate: 0.05,
            },
        );
        let p = gt.predicate(a, "isFemale").unwrap();
        assert!(p.value);
        assert_eq!(gt.predicate(a, "other"), None);
    }

    #[test]
    fn texts_roundtrip() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        gt.set_text(
            a,
            "common",
            TextTruth {
                variants: vec![
                    ("Humpback Whale".into(), 0.6),
                    ("humpback  whale".into(), 0.4),
                ],
            },
        );
        assert_eq!(gt.text(a, "common").unwrap().variants.len(), 2);
    }

    #[test]
    fn unknown_items_read_as_unset() {
        let mut gt = GroundTruth::new();
        let a = gt.new_item();
        gt.set_entity(a, EntityId(1));
        gt.set_predicate(
            a,
            "p",
            PredicateTruth {
                value: true,
                error_rate: 0.0,
            },
        );
        let far = ItemId(u64::MAX);
        assert_eq!(gt.entity(far), None);
        assert_eq!(gt.predicate(far, "p"), None);
        assert!(gt.feature(far, "p").is_none());
        assert!(gt.text(far, "p").is_none());
        assert!(!gt.same_entity(a, far));
        assert_eq!(gt.similarity(a, far), 0.1);
        // Allocated but never set reads as unset too.
        let b = gt.new_item();
        assert_eq!(gt.entity(b), None);
        assert_eq!(gt.predicate(b, "p"), None);
    }

    #[test]
    #[should_panic(expected = "was not allocated by this ground truth")]
    fn setting_a_foreign_item_panics() {
        let mut gt = GroundTruth::new();
        gt.new_items(2);
        gt.set_entity(ItemId(2), EntityId(0));
    }

    #[test]
    #[should_panic(expected = "was not allocated by this ground truth")]
    fn setting_a_foreign_item_predicate_panics() {
        let mut other = GroundTruth::new();
        let foreign = other.new_items(5)[4];
        let mut gt = GroundTruth::new();
        gt.new_item();
        let truth = PredicateTruth {
            value: true,
            error_rate: 0.0,
        };
        gt.set_predicate(foreign, "p", truth);
    }

    #[test]
    fn dimension_params_default_and_override() {
        let mut gt = GroundTruth::new();
        assert!(!gt.dimension_params("x").pure_noise);
        gt.define_dimension("saturn", DimensionParams::crisp(3.0));
        assert_eq!(gt.dimension_params("saturn").ambiguity, 3.0);
    }
}
