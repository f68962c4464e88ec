//! The paper as a golden: `repro --all` renders every table and figure
//! byte for byte as committed in `tests/data/repro_all.expected`. A
//! change that moves a number must regenerate the file and explain the
//! move:
//!
//! ```text
//! cargo run --release -p qurk-bench --bin repro -- --all > crates/bench/tests/data/repro_all.expected
//! ```

#[test]
fn repro_all_matches_the_committed_report() {
    let expected = include_str!("data/repro_all.expected");
    let actual = qurk_bench::repro::report(&["--all".to_owned()]);
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "repro --all differs from the golden at line {}:\n  got:      {:?}\n  expected: {:?}",
            first + 1,
            actual.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}
