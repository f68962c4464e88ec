//! Wall-clock trajectory of the data-layout pass (ISSUE 9).
//!
//! Each microbenchmark times the **retained naive baseline** (the
//! layout the seed shipped: nested `Vec`s, per-item allocation, full
//! cross-product scans) against the optimized hot path that replaced
//! it, on the same input, in the same process. The committed artifact
//! `BENCH_wallclock.json` records the medians and speedups. Tier-1
//! checks only that artifact; the re-measuring gate test (`--ignored`,
//! run by the bench-wallclock CI job) asserts
//!
//! 1. at least one gated microbench still achieves a ≥
//!    [`GATE_MIN_SPEEDUP`]× median speedup, and
//! 2. no bench's speedup has collapsed below its committed snapshot by
//!    more than [`SNAPSHOT_TOLERANCE`]× (catches a reverted
//!    optimization without flaking on machine noise).
//!
//! Gating **ratios** rather than absolute nanoseconds is deliberate:
//! both sides run in the same process on the same machine, so the
//! ratio cancels CPU speed, debug-vs-release codegen, and CI host
//! variance — the things that make absolute-time gates flaky.
//!
//! The three end-to-end workload timings (celebrity join §3.3, squares
//! sort §4.2, movie filters §5) are informational medians for the
//! artifact; they track the trajectory but are not gated.

use std::time::Instant;

use criterion::{Criterion, SampleSummary, Throughput};
use qurk::ops::partition::{candidate_pairs, candidate_pairs_naive};
use qurk::ops::sort::CompareSort;
use qurk_combine::em::{LabelObservation, QualityAdjust, QualityAdjustConfig};
use qurk_metrics::{fleiss_kappa, kendall_tau_b, kendall_tau_b_quadratic, CountMatrix};

use crate::opt_exps::{learn, trial_workloads};

/// Minimum median speedup at least one gated microbench must hold.
pub const GATE_MIN_SPEEDUP: f64 = 2.0;

/// A bench's current speedup may fall to `committed / SNAPSHOT_TOLERANCE`
/// before the snapshot check trips. Generous on purpose: it exists to
/// catch an optimization being reverted (speedup → ~1), not jitter —
/// and the committed artifact is produced in `--release` while the
/// tier-1 gate test re-measures under debug codegen, which compresses
/// algorithmic speedups by a few x on its own.
pub const SNAPSHOT_TOLERANCE: f64 = 6.0;

/// Timed samples per measurement in the committed artifact run.
pub const DEFAULT_SAMPLES: usize = 15;

/// One baseline-vs-optimized measurement.
#[derive(Debug, Clone)]
pub struct MicroBench {
    pub name: &'static str,
    /// Gated benches participate in the ≥2× acceptance criterion.
    pub gated: bool,
    pub baseline_median_ns: u64,
    pub optimized_median_ns: u64,
    /// baseline / optimized median.
    pub speedup: f64,
    /// Logical elements one iteration processes (votes, pairs, ranks).
    pub elements: u64,
    /// Optimized-path throughput at the median.
    pub optimized_elems_per_sec: f64,
}

/// One end-to-end workload timing (informational).
#[derive(Debug, Clone)]
pub struct WorkloadTiming {
    pub workload: &'static str,
    pub median_ns: u64,
}

/// The full suite's output.
#[derive(Debug, Clone, Default)]
pub struct WallclockReport {
    pub micro: Vec<MicroBench>,
    pub workloads: Vec<WorkloadTiming>,
}

impl WallclockReport {
    /// Does any gated microbench meet the ≥2× criterion?
    pub fn passes_gate(&self) -> bool {
        self.micro
            .iter()
            .any(|m| m.gated && m.speedup >= GATE_MIN_SPEEDUP)
    }
}

// ------------------------------------------------------- naive baselines

/// The seed's EM layout: HashMap vote grouping, one `Vec` allocated
/// per item per E-step, nested `Vec<Vec<f64>>` confusion matrices, and
/// `priors.clone()` for unvoted items. Same math and float-op order as
/// [`QualityAdjust::run`], so the outputs agree and only layout is
/// being measured.
// Index-based loops are part of the naive shape under measurement.
#[allow(clippy::needless_range_loop)]
fn naive_em(
    obs: &[LabelObservation],
    k: usize,
    iterations: usize,
    smoothing: f64,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    use std::collections::HashMap;
    let num_items = obs.iter().map(|o| o.item + 1).max().unwrap_or(0);
    let num_workers = obs.iter().map(|o| o.worker + 1).max().unwrap_or(0);
    let mut by_item: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
    for o in obs {
        by_item.entry(o.item).or_default().push((o.worker, o.label));
    }
    let empty: Vec<(usize, usize)> = Vec::new();

    let normalize = |row: &mut [f64]| {
        let sum: f64 = row.iter().sum();
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        } else {
            let u = 1.0 / row.len() as f64;
            for v in row.iter_mut() {
                *v = u;
            }
        }
    };

    let mut posteriors: Vec<Vec<f64>> = (0..num_items)
        .map(|item| {
            let mut row = vec![1e-9f64; k];
            for &(_, l) in by_item.get(&item).unwrap_or(&empty) {
                row[l] += 1.0;
            }
            normalize(&mut row);
            row
        })
        .collect();
    let mut confusion: Vec<Vec<Vec<f64>>> = vec![vec![vec![0.0; k]; k]; num_workers];
    let mut priors = vec![1.0 / k as f64; k];

    for _ in 0..iterations {
        for w in confusion.iter_mut() {
            for t in w.iter_mut() {
                for c in t.iter_mut() {
                    *c = smoothing;
                }
            }
        }
        for item in 0..num_items {
            for &(w, l) in by_item.get(&item).unwrap_or(&empty) {
                for t in 0..k {
                    confusion[w][t][l] += posteriors[item][t];
                }
            }
        }
        for w in confusion.iter_mut() {
            for t in w.iter_mut() {
                normalize(t);
            }
        }
        let mut new_priors = vec![smoothing; k];
        for post in &posteriors {
            for (t, &p) in post.iter().enumerate() {
                new_priors[t] += p;
            }
        }
        normalize(&mut new_priors);
        priors = new_priors;

        for item in 0..num_items {
            let vs = by_item.get(&item).unwrap_or(&empty);
            if vs.is_empty() {
                // The allocation-per-unvoted-item the optimized path
                // removed (satellite fix).
                posteriors[item] = priors.clone();
                continue;
            }
            let mut log_p: Vec<f64> = priors.iter().map(|p| p.max(1e-300).ln()).collect();
            for &(w, l) in vs {
                for (t, lp) in log_p.iter_mut().enumerate() {
                    *lp += confusion[w][t][l].max(1e-300).ln();
                }
            }
            let max = log_p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for lp in log_p.iter_mut() {
                *lp = (*lp - max).exp();
            }
            normalize(&mut log_p);
            posteriors[item] = log_p;
        }
    }
    (posteriors, priors)
}

/// Synthetic vote corpus shaped like a celebrity-join combine: sparse
/// items (some unvoted), a worker pool with spammers, deterministic.
pub fn em_corpus(items: usize, votes_per_item: usize, workers: usize) -> Vec<LabelObservation> {
    let mut obs = Vec::with_capacity(items * votes_per_item);
    for item in 0..items {
        if item % 17 == 0 {
            continue; // unvoted: exercises the priors-copy path
        }
        let truth = item % 4 == 0;
        for v in 0..votes_per_item {
            let worker = (item * 7 + v * 31) % workers;
            let label = if worker < workers / 10 {
                true // spammer always answers yes
            } else {
                truth ^ ((item * 2654435761 + v * 40503) % 100 < 15)
            };
            obs.push(LabelObservation {
                worker,
                item,
                label: usize::from(label),
            });
        }
    }
    obs
}

/// Deterministic score vector with heavy ties (mod 13) — the τ shape
/// hybrid sorts compare (rating buckets vs comparison wins).
fn tau_scores(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut s = seed;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    let xs: Vec<f64> = (0..n).map(|_| (next() % 13) as f64).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|&x| {
            if next() % 4 == 0 {
                (next() % 13) as f64
            } else {
                x
            }
        })
        .collect();
    (xs, ys)
}

/// Label matrix shaped like feature-filter vote batches: `subjects`
/// rows of `raters` labels over `k` categories.
fn kappa_labels(subjects: usize, raters: usize, k: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut s = seed;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    (0..subjects)
        .map(|_| {
            let majority = (next() % k as u64) as usize;
            (0..raters)
                .map(|_| {
                    if next() % 100 < 70 {
                        majority
                    } else {
                        (next() % k as u64) as usize
                    }
                })
                .collect()
        })
        .collect()
}

/// The seed's κ layout: rebuild a nested count matrix per batch.
fn naive_kappa(labels: &[Vec<usize>], k: usize) -> f64 {
    let counts: Vec<Vec<u32>> = labels
        .iter()
        .filter(|row| row.len() >= 2)
        .map(|row| {
            let mut c = vec![0u32; k];
            for &l in row {
                c[l] += 1;
            }
            c
        })
        .collect();
    fleiss_kappa(&counts).unwrap_or(0.0)
}

/// One extraction table: per row, one extracted feature value (or
/// `None` = UNKNOWN) per feature column.
type FeatureTable = Vec<Vec<Option<usize>>>;

/// Feature-extraction tables for the candidate-generation bench.
fn extraction_tables(n: usize, seed: u64) -> (FeatureTable, FeatureTable) {
    let mut s = seed;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    let mut table = |rows: usize| -> FeatureTable {
        (0..rows)
            .map(|_| {
                [10u64, 4]
                    .iter() // gender-ish and hair-ish domains
                    .map(|&k| {
                        if next() % 100 < 10 {
                            None // UNKNOWN (§2.4)
                        } else {
                            Some((next() % k) as usize)
                        }
                    })
                    .collect()
            })
            .collect()
    };
    (table(n), table(n))
}

// ------------------------------------------------------------ the suite

fn summarize(
    g: &mut criterion::BenchmarkGroup<'_>,
    id: &str,
    mut f: impl FnMut(),
) -> SampleSummary {
    g.bench_function(id, |b| b.iter(&mut f))
        .expect("sample_size >= 1 always yields samples")
}

/// Run the five baseline-vs-optimized microbenchmarks with
/// `samples` timed iterations each.
pub fn run_microbenches(samples: usize) -> Vec<MicroBench> {
    let mut c = Criterion::default();
    let mut g = c.benchmark_group("wallclock");
    g.sample_size(samples).warm_up_iters(1);
    let mut out = Vec::new();
    let mut push = |name: &'static str,
                    gated: bool,
                    elements: u64,
                    baseline: SampleSummary,
                    optimized: SampleSummary| {
        let speedup = baseline.median.as_secs_f64() / optimized.median.as_secs_f64().max(1e-12);
        out.push(MicroBench {
            name,
            gated,
            baseline_median_ns: baseline.median.as_nanos() as u64,
            optimized_median_ns: optimized.median.as_nanos() as u64,
            speedup,
            elements,
            optimized_elems_per_sec: optimized.elements_per_sec(Throughput::Elements(elements)),
        });
    };

    // EM combine: nested seed layout vs flat CSR scratch.
    {
        let obs = em_corpus(400, 6, 40);
        let cfg = QualityAdjustConfig::paper_join();
        let em = QualityAdjust::new(cfg.clone());
        g.throughput(Throughput::Elements(obs.len() as u64));
        let base = summarize(&mut g, "em-combine/naive", || {
            criterion::black_box(naive_em(
                &obs,
                cfg.num_labels,
                cfg.iterations,
                cfg.smoothing,
            ));
        });
        let opt = summarize(&mut g, "em-combine/flat", || {
            criterion::black_box(em.run(&obs));
        });
        push("em-combine", true, obs.len() as u64, base, opt);
    }

    // Kendall τ-b: O(n²) pair scan vs Knight's merge path.
    {
        let (xs, ys) = tau_scores(4096, 0x7a07);
        g.throughput(Throughput::Elements(xs.len() as u64));
        let base = summarize(&mut g, "tau-metrics/quadratic", || {
            criterion::black_box(kendall_tau_b_quadratic(&xs, &ys).unwrap());
        });
        let opt = summarize(&mut g, "tau-metrics/merge", || {
            criterion::black_box(kendall_tau_b(&xs, &ys).unwrap());
        });
        push("tau-metrics", true, xs.len() as u64, base, opt);
    }

    // Fleiss κ: per-batch nested rebuild vs reused flat CountMatrix.
    {
        let k = 6;
        let batches: Vec<Vec<Vec<usize>>> = (0..32)
            .map(|i| kappa_labels(64, 5, k, 0xbeef + i))
            .collect();
        let elements = (batches.len() * 64 * 5) as u64;
        g.throughput(Throughput::Elements(elements));
        let base = summarize(&mut g, "kappa-metrics/nested", || {
            let mut acc = 0.0;
            for labels in &batches {
                acc += naive_kappa(labels, k);
            }
            criterion::black_box(acc);
        });
        let mut counts = CountMatrix::new(k);
        let opt = summarize(&mut g, "kappa-metrics/flat", || {
            let mut acc = 0.0;
            for labels in &batches {
                counts.fill_from_labels(labels, k);
                acc += qurk_metrics::fleiss_kappa_flat(&counts).unwrap_or(0.0);
            }
            criterion::black_box(acc);
        });
        push("kappa-metrics", true, elements, base, opt);
    }

    // Machine-side join candidates: |L|×|R| scan vs hash partitioning.
    {
        let (left, right) = extraction_tables(600, 0x30b);
        let selected = vec![0usize, 1];
        let elements = (left.len() * right.len()) as u64;
        g.throughput(Throughput::Elements(elements));
        let base = summarize(&mut g, "join-partition/naive", || {
            criterion::black_box(candidate_pairs_naive(&selected, &left, &right));
        });
        let opt = summarize(&mut g, "join-partition/partitioned", || {
            criterion::black_box(candidate_pairs(&selected, &left, &right));
        });
        push("join-partition", true, elements, base, opt);
    }

    // Compare-sort group planning at `sort-compare`'s size: recounting
    // every degree and gain per choice vs keeping them current.
    {
        let (n, s, seed) = (128, 5, CompareSort::default().seed);
        let elements = (n * (n - 1) / 2) as u64;
        g.throughput(Throughput::Elements(elements));
        let base = summarize(&mut g, "plan-groups/naive", || {
            criterion::black_box(CompareSort::plan_groups_naive(n, s, seed));
        });
        let opt = summarize(&mut g, "plan-groups/incremental", || {
            criterion::black_box(CompareSort::plan_groups(n, s, seed));
        });
        push("plan-groups", true, elements, base, opt);
    }

    g.finish();
    out
}

/// Median-of-`trials` end-to-end wall-clock for the three standard
/// workloads (one as-written live run each). Informational.
pub fn run_workload_timings(trials: usize) -> Vec<WorkloadTiming> {
    let names = ["celebrity-join", "squares-sort", "movie-filters"];
    let mut medians = Vec::new();
    for (wi, workload) in names.into_iter().enumerate() {
        let mut samples: Vec<u64> = (0..trials.max(1))
            .map(|t| {
                let w = &trial_workloads(0x0071 + t as u64 * 0x1000)[wi];
                let start = Instant::now();
                criterion::black_box(learn(w));
                start.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        medians.push(WorkloadTiming {
            workload,
            median_ns: samples[(samples.len() - 1) / 2],
        });
    }
    medians
}

/// The full suite at artifact quality.
pub fn run_suite() -> WallclockReport {
    WallclockReport {
        micro: run_microbenches(DEFAULT_SAMPLES),
        workloads: run_workload_timings(5),
    }
}

// ------------------------------------------------------------- artifact

/// Serialize to the `BENCH_wallclock.json` artifact (hand-rolled JSON;
/// the workspace is dependency-free by design).
pub fn to_json(report: &WallclockReport) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"wallclock-data-layout\",\n");
    out.push_str(&format!(
        "  \"gate_min_speedup\": {GATE_MIN_SPEEDUP:.1},\n  \"snapshot_tolerance\": {SNAPSHOT_TOLERANCE:.1},\n"
    ));
    out.push_str("  \"micro\": [\n");
    for (i, m) in report.micro.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"gated\": {}, \"baseline_median_ns\": {}, \
             \"optimized_median_ns\": {}, \"speedup\": {:.2}, \"elements\": {}, \
             \"optimized_elems_per_sec\": {:.0}}}{}\n",
            m.name,
            m.gated,
            m.baseline_median_ns,
            m.optimized_median_ns,
            m.speedup,
            m.elements,
            m.optimized_elems_per_sec,
            if i + 1 == report.micro.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"workloads\": [\n");
    for (i, w) in report.workloads.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"median_ns\": {}}}{}\n",
            w.workload,
            w.median_ns,
            if i + 1 == report.workloads.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write the JSON artifact to `path`.
pub fn write_json(report: &WallclockReport, path: &str) -> std::io::Result<()> {
    std::fs::write(path, to_json(report))
}

/// Extract `(name, speedup)` pairs from a committed artifact. A tiny
/// scanner over the format [`to_json`] emits — not a general JSON
/// parser, and deliberately strict about that format.
pub fn parse_speedups(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name_at) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let name = rest[..name_end].to_string();
        let Some(sp_at) = line.find("\"speedup\": ") else {
            continue;
        };
        let tail = &line[sp_at + 11..];
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(speedup) = num.parse::<f64>() {
            out.push((name, speedup));
        }
    }
    out
}

/// Path of the committed artifact, resolved from this crate.
pub fn committed_artifact_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_wallclock.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Baseline faithfulness: the naive EM reimplementation and the
    /// optimized combiner agree on posteriors and priors, so the bench
    /// measures layout, not different math.
    #[test]
    fn naive_em_matches_optimized_em() {
        let obs = em_corpus(60, 5, 12);
        let cfg = QualityAdjustConfig::paper_join();
        let (naive_post, naive_priors) =
            naive_em(&obs, cfg.num_labels, cfg.iterations, cfg.smoothing);
        let out = QualityAdjust::new(cfg).run(&obs);
        assert_eq!(naive_post.len(), out.posteriors.len());
        for (a, b) in naive_post.iter().zip(&out.posteriors) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-12, "posterior drift: {x} vs {y}");
            }
        }
        for (x, y) in naive_priors.iter().zip(&out.priors) {
            assert!((x - y).abs() < 1e-12, "prior drift: {x} vs {y}");
        }
    }

    /// The tier-1 half of the wall-clock gate: the committed artifact
    /// records speedups and itself meets the ≥2× gate. Nothing here is
    /// timed, so host load cannot fail it.
    #[test]
    fn layout_pass_holds_the_wallclock_gate() {
        let committed = std::fs::read_to_string(committed_artifact_path())
            .expect("BENCH_wallclock.json must be committed at the repo root");
        let snapshot = parse_speedups(&committed);
        assert!(
            !snapshot.is_empty(),
            "committed artifact must contain speedups"
        );
        assert!(
            snapshot.iter().any(|(_, s)| *s >= GATE_MIN_SPEEDUP),
            "committed artifact itself must meet the gate"
        );
    }

    /// The timed half: re-measured, the data-layout pass still holds a
    /// ≥2× median win on at least one gated microbench, and no bench has
    /// collapsed vs the committed snapshot. Wall-clock ratios depend on
    /// the host, so this stays out of tier-1; run it with
    /// `cargo test -p qurk-bench wallclock -- --ignored`.
    #[test]
    #[ignore = "wall-clock timing; run with --ignored"]
    fn layout_pass_speedups_hold_when_remeasured() {
        let micro = run_microbenches(5);
        assert_eq!(micro.len(), 5);
        for m in &micro {
            println!(
                "{}: {:.2}x ({} ns -> {} ns)",
                m.name, m.speedup, m.baseline_median_ns, m.optimized_median_ns
            );
        }
        assert!(
            micro
                .iter()
                .any(|m| m.gated && m.speedup >= GATE_MIN_SPEEDUP),
            "no gated microbench reached {GATE_MIN_SPEEDUP}x: {micro:?}"
        );

        // Snapshot check against the committed artifact.
        let committed = std::fs::read_to_string(committed_artifact_path())
            .expect("BENCH_wallclock.json must be committed at the repo root");
        for (name, committed_speedup) in &parse_speedups(&committed) {
            let cur = micro
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("committed bench {name} no longer exists"));
            assert!(
                cur.speedup >= committed_speedup / SNAPSHOT_TOLERANCE,
                "{name} regressed: {:.2}x now vs {committed_speedup:.2}x committed \
                 (tolerance {SNAPSHOT_TOLERANCE}x)",
                cur.speedup
            );
        }
    }

    /// Replay byte-identity across the layout pass: for each standard
    /// workload, a live recorded run and its trace replay render the
    /// same result relation byte for byte. Interned text, column-major
    /// relations, flat EM scratch, and the partitioned candidate
    /// generator must all be invisible in query output.
    #[test]
    fn replayed_workloads_are_byte_identical_to_live() {
        use qurk::prelude::*;
        use qurk::{RecordingBackend, ReplayTrace};
        for w in trial_workloads(0x0071) {
            let mut live = Session::builder()
                .catalog(&w.catalog)
                .backend(RecordingBackend::new((w.make_market)()))
                .build();
            let live_report = live.query(&w.sql).report().unwrap();
            let trace: ReplayTrace = live.backend_mut().inner_mut().inner_mut().trace().clone();

            let mut replay = Session::builder()
                .catalog(&w.catalog)
                .backend(ReplayBackend::from_trace(trace))
                .build();
            let replay_report = replay.query(&w.sql).report().unwrap();

            assert_eq!(
                live_report.relation.to_tsv(),
                replay_report.relation.to_tsv(),
                "{}: replay output diverged from live",
                w.name
            );
        }
    }

    #[test]
    fn json_roundtrips_through_the_scanner() {
        let report = WallclockReport {
            micro: vec![MicroBench {
                name: "em-combine",
                gated: true,
                baseline_median_ns: 2_000_000,
                optimized_median_ns: 500_000,
                speedup: 4.0,
                elements: 2400,
                optimized_elems_per_sec: 4_800_000.0,
            }],
            workloads: vec![WorkloadTiming {
                workload: "celebrity-join",
                median_ns: 123_456_789,
            }],
        };
        let json = to_json(&report);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let parsed = parse_speedups(&json);
        assert_eq!(parsed, vec![("em-combine".to_string(), 4.0)]);
        assert!(report.passes_gate());
    }
}
