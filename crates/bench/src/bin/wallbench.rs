//! `wallbench` — the data-layout wall-clock suite (ISSUE 9).
//!
//! Times the retained naive baselines against the optimized hot paths
//! (EM combine, τ/κ metrics, machine-side join candidate generation,
//! compare-sort group planning, the join vote path), medians the three standard end-to-end
//! workloads, and writes `BENCH_wallclock.json` for the CI artifact and
//! the tier-1 gate.
//!
//! ```text
//! cargo run --release -p qurk-bench --bin wallbench [-- <output.json>]
//! cargo run --release -p qurk-bench --bin wallbench -- --check
//! ```
//!
//! `--check` re-runs the suite and diffs it against the committed
//! artifact instead of writing: exits non-zero if the gate fails or
//! any bench's speedup collapsed beyond the snapshot tolerance.

use qurk_bench::wallclock::{self, committed_artifact_path, GATE_MIN_SPEEDUP, SNAPSHOT_TOLERANCE};

fn main() {
    let arg = std::env::args().nth(1);
    let t0 = std::time::Instant::now();
    let report = wallclock::run_suite();

    for m in &report.micro {
        println!(
            "[wallbench] {}: {:.2}x  ({} ns -> {} ns, {:.0} elem/s)",
            m.name,
            m.speedup,
            m.baseline_median_ns,
            m.optimized_median_ns,
            m.optimized_elems_per_sec
        );
    }
    for w in &report.workloads {
        println!(
            "[wallbench] workload {}: median {:.1} ms",
            w.workload,
            w.median_ns as f64 / 1e6
        );
    }
    if !report.passes_gate() {
        eprintln!("[wallbench] GATE FAILED: no gated microbench reached {GATE_MIN_SPEEDUP}x");
        std::process::exit(1);
    }

    if arg.as_deref() == Some("--check") {
        let path = committed_artifact_path();
        let committed = match std::fs::read_to_string(&path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("[wallbench] cannot read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let mut failed = false;
        for (name, committed_speedup) in wallclock::parse_speedups(&committed) {
            match report.micro.iter().find(|m| m.name == name) {
                Some(cur) if cur.speedup >= committed_speedup / SNAPSHOT_TOLERANCE => {
                    println!(
                        "[wallbench] {name}: {:.2}x vs committed {committed_speedup:.2}x — ok",
                        cur.speedup
                    );
                }
                Some(cur) => {
                    eprintln!(
                        "[wallbench] {name}: REGRESSED to {:.2}x vs committed \
                         {committed_speedup:.2}x (tolerance {SNAPSHOT_TOLERANCE}x)",
                        cur.speedup
                    );
                    failed = true;
                }
                None => {
                    eprintln!("[wallbench] {name}: committed bench no longer exists");
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "[wallbench] check passed in {:.1}s",
            t0.elapsed().as_secs_f64()
        );
        return;
    }

    let path = arg.unwrap_or_else(|| "BENCH_wallclock.json".to_owned());
    match wallclock::write_json(&report, &path) {
        Ok(()) => eprintln!(
            "[wallbench] wrote {path} in {:.1}s",
            t0.elapsed().as_secs_f64()
        ),
        Err(e) => {
            eprintln!("[wallbench] failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}
