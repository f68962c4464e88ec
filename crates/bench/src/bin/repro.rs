//! `repro` — regenerate every table and figure from *Human-powered
//! Sorts and Joins* (VLDB 2011) against the simulated crowd.
//!
//! ```text
//! cargo run --release --bin repro -- --all
//! cargo run --release --bin repro -- --table1 --fig3
//! ```
//!
//! The flags are listed in [`qurk_bench::repro`]; the report goes to
//! stdout, the elapsed time to stderr.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro [--all | --table1 --fig3 ...] (see --help in source)");
        std::process::exit(2);
    }
    let t0 = std::time::Instant::now();
    print!("{}", qurk_bench::repro::report(&args));
    eprintln!("[repro] done in {:.1}s", t0.elapsed().as_secs_f64());
}
