//! qurk-perfbench: one benchmark that attributes wall time to layers.
//!
//! ```text
//! qurk-perfbench --workload <join-crowd|sort-compare|serve-loopback>
//!                --seed N --seconds S --trace <0|1>
//!                --serve-bin PATH --work-dir DIR
//! ```
//!
//! Run it through `perfbench/run.sh`, which builds `qurk-serve` and
//! this program first. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, from a separate run that wraps the crowd in a
//! timing decorator and times each layer's public entry points.

mod inproc;
mod layers;
mod serve;
mod timed;
mod util;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use inproc::{InProc, QueryRun};
use qurk::DurableStore;
use serve::{Length, Server, Shape};
use util::{median, median_secs, peak_rss_mb, quantile};

/// Set-ups per run; `setup_s` is their median. Building the in-process
/// inputs takes milliseconds, starting a server a good part of a second.
const INPROC_SETUP_REPS: usize = 31;
const SERVE_SETUP_REPS: usize = 9;

/// Measured batches of the loopback probe in traced in-process runs.
const PROBE_BATCHES: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    JoinCrowd,
    SortCompare,
    ServeLoopback,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "join-crowd" => Workload::JoinCrowd,
                    "sort-compare" => Workload::SortCompare,
                    "serve-loopback" => Workload::ServeLoopback,
                    _ => return Err(bad()),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Build `reps` times; returns the last build and the median time, each
/// build's time multiplied by `scale()` taken just before it.
fn timed_setup<T>(
    reps: usize,
    mut scale: impl FnMut() -> f64,
    mut build: impl FnMut() -> io::Result<T>,
) -> io::Result<(T, f64)> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let k = scale();
        let t = Instant::now();
        last = Some(build()?);
        secs.push(t.elapsed().as_secs_f64() * k);
    }
    Ok((last.expect("reps >= 1"), median(&secs)))
}

/// The factor that makes an in-process timing read as on a quiet
/// reference host (see [`util::reference_secs`]).
fn host_scale() -> f64 {
    util::REFERENCE_WORK_S / util::reference_secs()
}

fn store_error(e: qurk::StoreError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Start a server on a fresh store file named after `tag`.
fn start_server(a: &Args, tag: &str) -> io::Result<Server> {
    Server::start(&a.serve_bin, a.work_dir.join(format!("{tag}.qwal")))
}

/// The in-process workloads' inputs for this run.
fn inproc_inputs(a: &Args) -> Vec<InProc> {
    match a.workload {
        Workload::JoinCrowd => inproc::instances(inproc::join_crowd, a.seed),
        Workload::SortCompare => inproc::instances(inproc::sort_compare, a.seed),
        Workload::ServeLoopback => Shape::ALL.map(inproc::served).into(),
    }
}

/// `join-crowd` / `sort-compare`, end to end: one warm-up query, then
/// queries back to back, cycling through the run's inputs, until the
/// time is up and every input has run at least once.
fn inproc_end_to_end(a: &Args) -> io::Result<Outcome> {
    let (set, setup_s) = timed_setup(INPROC_SETUP_REPS, host_scale, || Ok(inproc_inputs(a)))?;
    let n = set.len();
    let warm = set[0].run_query(false);
    let deadline = Instant::now() + Duration::from_secs_f64(a.seconds);
    let mut runs: Vec<QueryRun> = Vec::new();
    // Each query's host-speed factor, from the reference work on both
    // sides of it.
    let mut scales: Vec<f64> = Vec::new();
    while runs.len() < n || Instant::now() < deadline {
        let before = util::reference_secs();
        runs.push(set[runs.len() % n].run_query(false));
        let after = util::reference_secs();
        scales.push(util::REFERENCE_WORK_S * 2.0 / (before + after));
    }

    // A query fails if its output misses the floor or if its
    // deterministic counters differ from its input's first query.
    let first = &runs[..n];
    for (i, r) in first.iter().enumerate() {
        eprintln!("input {i}: {}", r.quality);
    }
    let failed = std::iter::once((&warm, &first[0]))
        .chain(runs.iter().enumerate().map(|(i, r)| (r, &first[i % n])))
        .filter(|(r, f)| !r.ok || r.counters() != f.counters())
        .count() as u64;
    let mut out = Outcome {
        attempted: 1 + runs.len() as u64,
        failed,
        ..Outcome::default()
    };
    let raw: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let walls: Vec<f64> = raw.iter().zip(&scales).map(|(w, k)| w * k).collect();
    let batches: Vec<f64> = runs
        .iter()
        .zip(&scales)
        .map(|(r, k)| r.batch_s * k)
        .collect();
    // In process, a request is one input: each input's median wall, so
    // the figure is the latency of a typical input, not of a moment.
    let per_input: Vec<f64> = (0..n)
        .map(|i| median(&walls[i..].iter().step_by(n).copied().collect::<Vec<_>>()))
        .collect();
    let mean = |f: fn(&QueryRun) -> f64| first.iter().map(f).sum::<f64>() / n as f64;
    eprintln!(
        "{} timed queries over {n} inputs; as measured, query wall p10/p50/p90 \
         {:.4}/{:.4}/{:.4} s; host-speed factor min/p50/max {:.3}/{:.3}/{:.3}",
        runs.len(),
        quantile(&raw, 0.1),
        quantile(&raw, 0.5),
        quantile(&raw, 0.9),
        quantile(&scales, 0.0),
        quantile(&scales, 0.5),
        quantile(&scales, 1.0),
    );
    out.put("setup_s", setup_s, "s");
    out.put("query_wall_s", median(&walls), "s");
    out.put(
        "queries_per_s",
        runs.len() as f64 / batches.iter().sum::<f64>(),
        "1/s",
    );
    out.put("request_ms_p50", median(&per_input) * 1e3, "ms");
    out.put("batch_ms_p50", median(&batches) * 1e3, "ms");
    out.put("hits", mean(|r| r.hits as f64), "count");
    out.put("dollars", mean(|r| r.dollars), "USD");
    out.put("crowd_virtual_s", mean(|r| r.virtual_s), "virtual_s");
    out.put(
        "ok_frac",
        1.0 - failed as f64 / out.attempted as f64,
        "fraction",
    );
    out.put("peak_rss_mb", peak_rss_mb(None), "MiB");
    Ok(out)
}

/// `serve-loopback`, end to end.
fn serve_end_to_end(a: &Args) -> io::Result<Outcome> {
    let mut k = 0;
    // The server's timings are its own process's and mostly the wire's
    // waiting, so they are taken as measured.
    let (mut server, setup_s) = timed_setup(
        SERVE_SETUP_REPS,
        || 1.0,
        || {
            k += 1;
            start_server(a, &format!("setup-{k}"))
        },
    )?;
    let s = serve::drive(&mut server, a.seed, Length::Seconds(a.seconds))?;
    let store = server.store.clone();
    server.shutdown()?;
    let last = s.last_stats.expect("drive ends with STATS");
    let virtual_s = serve::crowd_virtual_s(&store, last.posted)?;

    let queries: usize = s.batch.iter().map(|&(_, q)| q).sum();
    let per_query: Vec<f64> = s.batch.iter().map(|&(b, q)| b / q as f64).collect();
    let batches: Vec<f64> = s.batch.iter().map(|&(b, _)| b).collect();
    eprintln!(
        "{} batches, {queries} queries; request p50 from {} samples, batch p50 from {}",
        s.batch.len(),
        s.request_rtt.len(),
        batches.len()
    );
    let mut out = Outcome {
        attempted: s.requests,
        failed: s.failed,
        ..Outcome::default()
    };
    out.put("setup_s", setup_s, "s");
    out.put("query_wall_s", median(&per_query), "s");
    out.put("queries_per_s", queries as f64 / s.measured_s, "1/s");
    out.put("request_ms_p50", median(&s.request_rtt) * 1e3, "ms");
    out.put("batch_ms_p50", median(&batches) * 1e3, "ms");
    out.put("hits", last.posted as f64, "count");
    out.put("dollars", last.spend, "USD");
    out.put("crowd_virtual_s", virtual_s, "virtual_s");
    out.put(
        "ok_frac",
        1.0 - s.failed as f64 / s.requests.max(1) as f64,
        "fraction",
    );
    out.put("peak_rss_mb", s.server_rss_mb, "MiB");
    Ok(out)
}

/// The per-layer run. Every layer is reported on every workload: a
/// layer the workload drives is measured on the workload itself, and
/// the rest by probes shaped like the workload that drives them.
fn traced(a: &Args) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let serving = a.workload == Workload::ServeLoopback;

    // Crowd and machine: traced and untraced queries, alternating, on
    // the workload's inputs (for serve-loopback, on the replica of the
    // served world, since the wire cannot show the split).
    let set = inproc_inputs(a);
    let inproc_s = if serving { a.seconds / 3.0 } else { a.seconds };
    let deadline = Instant::now() + Duration::from_secs_f64(inproc_s);
    let mut pairs: Vec<(QueryRun, QueryRun)> = Vec::new();
    while pairs.len() < set.len() || Instant::now() < deadline {
        let w = &set[pairs.len() % set.len()];
        pairs.push((w.run_query(true), w.run_query(false)));
    }
    out.attempted += 2 * pairs.len() as u64;
    out.failed += pairs
        .iter()
        .map(|(t, u)| u64::from(!t.ok) + u64::from(!u.ok))
        .sum::<u64>();

    let mut sqls: Vec<String> = set.iter().map(|w| w.sql.clone()).collect();
    sqls.dedup();
    let fe = layers::frontend(&set[0].catalog, &sqls);
    let fe_s: f64 = fe.iter().sum();
    let traced: Vec<&QueryRun> = pairs.iter().map(|(t, _)| t).collect();
    let sum = |f: fn(&QueryRun) -> f64| traced.iter().map(|r| f(r)).sum::<f64>();
    let wall = sum(|r| r.wall_s);
    let busy = sum(|r| r.crowd_busy_s);
    let untraced_wall: f64 = pairs.iter().map(|(_, u)| u.wall_s).sum();
    let per = |f: fn(&QueryRun) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    eprintln!("{} traced/untraced query pairs", pairs.len());
    out.put("frontend.parse_us", fe[0] * 1e6, "us");
    out.put("frontend.plan_us", fe[1] * 1e6, "us");
    out.put("frontend.compile_us", fe[2] * 1e6, "us");
    out.put("frontend.analyze_us", fe[3] * 1e6, "us");
    out.put("crowd.busy_ms", per(|r| r.crowd_busy_s) * 1e3, "ms");
    out.put("crowd.calls", per(|r| r.crowd_calls as f64), "count");
    out.put("crowd.share", busy / wall, "fraction");
    out.put(
        "crowd.assignments_per_s",
        sum(|r| r.assignments as f64) / busy,
        "1/s",
    );
    out.put(
        "machine.busy_ms",
        (per(|r| r.wall_s - r.crowd_busy_s) - fe_s) * 1e3,
        "ms",
    );
    out.put(
        "machine.share",
        1.0 - (busy + fe_s * traced.len() as f64) / wall,
        "fraction",
    );
    out.put(
        "trace.overhead_frac",
        wall / untraced_wall - 1.0,
        "fraction",
    );

    // Kernels, each on its home workload's shape.
    out.put(
        "sort.plan_groups_ms",
        layers::plan_groups_secs() * 1e3,
        "ms",
    );
    out.put("combine.em_ms", layers::em_secs() * 1e3, "ms");
    out.put(
        "ops.partition_ms",
        layers::partition_secs(a.seed) * 1e3,
        "ms",
    );

    // Wire, service and store: the workload itself for serve-loopback,
    // a short loopback session otherwise.
    let mut server = start_server(a, "traced")?;
    let length = if serving {
        Length::Seconds(a.seconds * 2.0 / 3.0)
    } else {
        Length::Batches(PROBE_BATCHES)
    };
    let s = serve::drive(&mut server, a.seed, length)?;
    let store = server.store.clone();
    server.shutdown()?;
    out.attempted += s.requests;
    out.failed += s.failed;

    let (hits, misses) = if serving {
        let last = s.last_stats.expect("drive ends with STATS");
        (last.hits as f64, last.misses as f64)
    } else {
        (per(|r| r.cache.0 as f64), per(|r| r.cache.1 as f64))
    };
    out.put("cache.hits", hits, "count");
    out.put("cache.misses", misses, "count");
    out.put(
        "cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "fraction",
    );
    out.put("serve.query_frame_us", median(&s.query_rtt) * 1e6, "us");
    out.put(
        "serve.run_ms_per_query",
        median(&s.run_rtt_per_query) * 1e3,
        "ms",
    );
    out.put("wire.stats_rtt_us", median(&s.stats_rtt) * 1e6, "us");
    out.put(
        "wire.request_ms_p90",
        quantile(&s.request_rtt, 0.9) * 1e3,
        "ms",
    );
    out.put(
        "wire.client_codec_us",
        serve::codec_secs(&s.sample_bodies) * 1e6,
        "us",
    );
    out.put(
        "wire.bytes_per_request",
        s.wire_bytes as f64 / s.requests as f64,
        "B",
    );
    out.put("store.bytes", s.warm_store_bytes as f64, "B");
    out.put("store.bytes_per_query", s.store_bytes_per_query(), "B");
    out.put("store.compactions", s.compactions() as f64, "count");
    // The run's file must open; then time opening it, and compacting it.
    DurableStore::open(&store).map_err(store_error)?;
    let open_s = median_secs(3, || drop(DurableStore::open(&store)));
    let compact_s = median_secs(3, || {
        if let Ok(st) = DurableStore::open(&store) {
            st.compact_now();
        }
    });
    out.put("store.open_ms", open_s * 1e3, "ms");
    out.put(
        "store.compact_ms",
        (compact_s - open_s).max(0.0) * 1e3,
        "ms",
    );
    Ok(out)
}

fn run(a: &Args) -> io::Result<Outcome> {
    match (a.workload, a.trace) {
        (_, true) => traced(a),
        (Workload::ServeLoopback, false) => serve_end_to_end(a),
        (_, false) => inproc_end_to_end(a),
    }
}

fn remove_dir(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("cannot remove {}: {e}", dir.display());
    }
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Store files of this run go to a directory of its own.
    args.work_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("cannot create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args);
    remove_dir(&args.work_dir);
    // The parent is shared by concurrent runs; it goes once it is empty.
    if let Some(parent) = args.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(out) => {
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
