//! What every batched crowd operator posts, as a golden: the `Debug`
//! form of each `HitSpec` a seeded `Marketplace` recorded, in posting
//! order, and each operator's output, byte for byte as committed in
//! `tests/data/batched_specs.expected`. Spec keys, cache entries and
//! journal bytes all derive from these specs, and every decision from
//! these votes, so a layout or tally change that moves either fails
//! here. A change that means to move them regenerates the file and
//! explains the move:
//!
//! ```text
//! QURK_BLESS=1 cargo test -p qurk --test batched_specs
//! ```

use std::fmt::Write as _;

use qurk::lang::parser::parse_tasks;
use qurk::ops::join::feature_filter::{FeatureFilter, FeatureFilterConfig, FeatureSpec};
use qurk::ops::{FilterOp, GenerativeOp, JoinOp, JoinStrategy, RateSort};
use qurk::task::{CombinerKind, TaskDef};
use qurk_crowd::market::HitId;
use qurk_crowd::truth::{DimensionParams, PredicateTruth, TextTruth};
use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, HitSpec, ItemId, Marketplace};

const PREDICATES: [&str; 3] = ["p0", "p1", "p2"];

/// One world for every case: 7 items with three noisy predicates, a
/// rating dimension, an entity (item `i` depicts entity `i % 3`), two
/// features, and a text field.
fn market(seed: u64) -> (Marketplace, Vec<ItemId>) {
    let mut gt = GroundTruth::new();
    gt.define_dimension(
        "size",
        DimensionParams {
            ambiguity: 0.2,
            rating_noise_mult: 5.0,
            pure_noise: false,
        },
    );
    gt.define_feature("color", &["red", "green", "blue"]);
    gt.define_feature("shape", &["round", "square"]);
    gt.set_default_similarity(0.1);
    let items = gt.new_items(7);
    for (i, &item) in items.iter().enumerate() {
        for (p, name) in PREDICATES.iter().enumerate() {
            let truth = PredicateTruth {
                value: (i + p) % 2 == 0,
                error_rate: 0.2,
            };
            gt.set_predicate(item, name, truth);
        }
        gt.set_score(item, "size", i as f64);
        gt.set_entity(item, EntityId(i as u64 % 3));
        gt.set_feature_simple(item, "color", i % 3, 0.15);
        gt.set_feature_simple(item, "shape", i % 2, 0.25);
        let variants = vec![
            (format!("Thing {}", i % 4), 0.6),
            (format!("thing  {}", i % 4), 0.25),
            (format!("other {i}"), 0.15),
        ];
        gt.set_text(item, "name", TextTruth { variants });
    }
    let config = CrowdConfig::default().with_seed(seed);
    (Marketplace::new(&config, gt), items)
}

/// Every HIT `m` recorded, in posting order, as the spec it was posted
/// from.
fn specs(out: &mut String, m: &Marketplace) {
    for id in 0..m.hits_posted() {
        let hit = m.hit(HitId(id));
        let spec = HitSpec::new(hit.questions.clone(), hit.kind);
        writeln!(out, "  spec {id}: {spec:?}").unwrap();
    }
}

fn task(src: &str) -> TaskDef {
    TaskDef::from_ast(&parse_tasks(src).unwrap()[0]).unwrap()
}

fn render() -> String {
    let mut out = String::new();
    let mut seed = 0x5BEC;
    let mut next = |out: &mut String, title: &str| {
        seed += 1;
        writeln!(out, "== {title} (seed {seed:#x})").unwrap();
        market(seed)
    };

    // Filters: one predicate (merging) and three (combining).
    for (preds, combiner) in [
        (1, CombinerKind::MajorityVote),
        (3, CombinerKind::MajorityVote),
        (3, CombinerKind::QualityAdjust),
    ] {
        let (mut m, items) = next(&mut out, &format!("filter {preds} {combiner:?}"));
        let op = FilterOp {
            batch_size: 3,
            combiner,
            ..FilterOp::default()
        };
        let verdicts = op
            .run_combined(&mut m, &PREDICATES[..preds], &items)
            .unwrap();
        specs(&mut out, &m);
        writeln!(out, "  verdicts: {verdicts:?}").unwrap();
    }

    // Rate sort.
    {
        let (mut m, items) = next(&mut out, "rate");
        let op = RateSort {
            batch_size: 3,
            context_size: 3,
            ..RateSort::default()
        };
        let sorted = op.run(&mut m, &items, "size").unwrap();
        specs(&mut out, &m);
        writeln!(out, "  order: {:?}", sorted.order).unwrap();
        writeln!(out, "  scores: {:?}", sorted.scores).unwrap();
        writeln!(out, "  stds: {:?}", sorted.stds).unwrap();
        writeln!(out, "  hits: {}", sorted.hits_posted).unwrap();
    }

    // Joins: every strategy, over the cross product and a candidate
    // list, under both combiners.
    let candidates: Vec<(usize, usize)> = (0..4)
        .flat_map(|i| (0..5).map(move |j| (i, j)))
        .filter(|&(i, j)| (i + 2 * j) % 3 != 1)
        .collect();
    for strategy in [
        JoinStrategy::Simple,
        JoinStrategy::NaiveBatch(4),
        JoinStrategy::SmartBatch { rows: 2, cols: 3 },
    ] {
        for (with_candidates, combiner) in [
            (false, CombinerKind::MajorityVote),
            (true, CombinerKind::QualityAdjust),
        ] {
            let title = format!("join {strategy:?} candidates={with_candidates} {combiner:?}");
            let (mut m, items) = next(&mut out, &title);
            let op = JoinOp {
                strategy,
                combiner,
                ..JoinOp::default()
            };
            let (left, right) = (&items[..4], &items[2..]);
            let cands = with_candidates.then_some(candidates.as_slice());
            let joined = op.run(&mut m, left, right, cands).unwrap();
            specs(&mut out, &m);
            writeln!(out, "  matches: {:?}", joined.matches).unwrap();
            writeln!(out, "  hits: {}", joined.hits_posted).unwrap();
            for (pair, votes) in joined.pair_votes.iter() {
                writeln!(out, "  votes {pair:?}: {votes:?}").unwrap();
            }
        }
    }

    // Feature extraction: combined and single interfaces, one and two
    // features; κ reads the raw votes.
    let features = [
        FeatureSpec {
            name: "color".into(),
            num_options: 3,
        },
        FeatureSpec {
            name: "shape".into(),
            num_options: 2,
        },
    ];
    for combined_interface in [true, false] {
        for nf in [1, 2] {
            let title = format!("feature combined={combined_interface} features={nf}");
            let (mut m, items) = next(&mut out, &title);
            let ff = FeatureFilter::new(FeatureFilterConfig {
                batch_size: 3,
                combined_interface,
                ..FeatureFilterConfig::default()
            });
            let (left, right) = (&items[..4], &items[3..]);
            let (le, lh) = ff.extract(&mut m, &features[..nf], left).unwrap();
            let (re, rh) = ff.extract(&mut m, &features[..nf], right).unwrap();
            specs(&mut out, &m);
            writeln!(out, "  values: {:?} | {:?}", le.values, re.values).unwrap();
            writeln!(out, "  hits: {lh} + {rh}").unwrap();
            for (fi, f) in features[..nf].iter().enumerate() {
                let kappa = FeatureFilter::kappa_for(fi, f.num_options, &le, &re);
                writeln!(out, "  kappa {}: {kappa:.12}", f.name).unwrap();
            }
        }
    }

    // Generative: a three-field task (text, majority radio, EM radio)
    // combined and separate, and a single-field radio task.
    let multi = task(
        r#"TASK describe(field) TYPE Generative:
            Prompt: "%s?", tuple[field]
            Fields: {
                name: { Response: Text("Name"),
                        Combiner: MajorityVote,
                        Normalizer: LowercaseSingleSpace },
                color: { Response: Radio("Color", ["red", "green", "blue", UNKNOWN]),
                         Combiner: MajorityVote },
                shape: { Response: Radio("Shape", ["round", "square", UNKNOWN]),
                         Combiner: QualityAdjust }
            }
        "#,
    );
    let single = task(
        r#"TASK color(field) TYPE Generative:
            Prompt: "%s color?", tuple[field]
            Response: Radio("Color", ["red", "green", "blue", UNKNOWN])
            Combiner: MajorityVote
        "#,
    );
    for (t, combined_interface) in [(&multi, true), (&multi, false), (&single, true)] {
        let title = format!("generative {} combined={combined_interface}", t.name);
        let (mut m, items) = next(&mut out, &title);
        let op = GenerativeOp {
            batch_size: 3,
            combined_interface,
            ..GenerativeOp::default()
        };
        let gen = op.run(&mut m, t, &items).unwrap();
        specs(&mut out, &m);
        for (i, row) in gen.rows.iter().enumerate() {
            let mut fields: Vec<_> = row.iter().collect();
            fields.sort_by(|a, b| a.0.cmp(b.0));
            writeln!(out, "  row {i}: {fields:?}").unwrap();
        }
        writeln!(out, "  hits: {}", gen.hits_posted).unwrap();
    }
    out
}

#[test]
fn batched_operators_post_the_committed_specs() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/batched_specs.expected"
    );
    let actual = render();
    if std::env::var_os("QURK_BLESS").is_some() {
        std::fs::write(path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap();
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "batched specs differ from the golden at line {}:\n  got:      {:?}\n  expected: {:?}",
            first + 1,
            actual.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}
