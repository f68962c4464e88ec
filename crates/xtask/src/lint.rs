//! Source-level invariant checks over the workspace tree.
//!
//! Six rules, all motivated by the multi-tenant service:
//!
//! * **marketplace-isolation** — production code must speak
//!   `CrowdBackend`, never the concrete `Marketplace`. Allowed:
//!   `crates/crowd` itself, test/bench/example code, and the two
//!   boundary files that adapt the marketplace to the trait.
//! * **ops-unwrap** — no `unwrap()`/`expect(` in
//!   `crates/core/src/ops/` production code unless the call site
//!   carries a `// lint:allow(unwrap): <why>` marker (same line or the
//!   line above) justifying why it cannot fire.
//! * **interior-mutability** — no `Rc<`, `RefCell<`, `thread_local!`
//!   or `static mut` in `crates/core`/`crates/crowd` production code,
//!   keeping every backend `Send + Sync`-eligible (the compile-time
//!   probe test in `crates/core/tests/send_sync.rs` asserts the
//!   bounds themselves).
//! * **service-blocking** — inside `crates/core/src/service/` and
//!   `crates/serve/src/` (the listener binary), no `thread::sleep`
//!   (the scheduler owns time; sleeping stalls every tenant's
//!   barrier, and a listener must block in `accept()`/frame reads,
//!   never poll), and no `.lock().unwrap()` / `.read().unwrap()` /
//!   `.write().unwrap()` without a `// lint:allow(lock-poison): <why>`
//!   marker — a poisoned lock would otherwise cascade one query's
//!   panic into the whole service (prefer
//!   `unwrap_or_else(PoisonError::into_inner)`). In `crates/serve/src/`
//!   additionally no unbounded reads (`.read_to_end(` /
//!   `.read_to_string(`): every byte off the wire must go through
//!   `read_frame`, whose bodies are bounded by `MAX_FRAME_BYTES` — a
//!   hostile client must cost at most one frame of memory.
//! * **durable-fs** — no direct filesystem *writes* (`fs::write`,
//!   `fs::rename`, `File::create`, `OpenOptions::new`, …) in
//!   production code outside `crates/core/src/store/`. Durability has
//!   exactly one implementation — the checksummed, crash-tested log in
//!   `qurk::store` — and a stray ad-hoc write would silently escape
//!   its torn-tail recovery and fault-injection coverage. Reading
//!   (`File::open`, `fs::read*`) is unrestricted.
//! * **hot-clone** — in modules that declare `// lint:hot-path` (the
//!   data-layout pass's interning, relation, EM, metrics, and
//!   candidate-generation modules, and the crowd simulator's
//!   marketplace and ground truth), no `.clone()` in production code
//!   unless the call site carries a `// lint:allow(hot-clone): <why>`
//!   marker. Those modules were flattened specifically to kill
//!   steady-state allocation; an unexamined clone is how the layout
//!   work silently rots.
//!
//! The scanner is line-based and deliberately simple: comment lines
//! are skipped, and `#[cfg(test)]`-annotated blocks are excluded by
//! brace tracking. That is precise enough for these invariants and
//! keeps xtask dependency-free.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub file: PathBuf,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Files where `Marketplace` may appear outside `crates/crowd`: the
/// trait-impl boundary and the qurk-serve composition root (which
/// constructs the concrete world the server runs against).
const MARKETPLACE_ALLOWLIST: &[&str] = &["crates/core/src/backend.rs", "crates/serve/src/main.rs"];

/// Marker that justifies an `unwrap()`/`expect(` in ops code.
const UNWRAP_MARKER: &str = "lint:allow(unwrap)";

/// Marker that justifies a poisoning lock acquisition in service code.
const LOCK_MARKER: &str = "lint:allow(lock-poison)";

/// Files carrying this marker opt in to the hot-clone rule.
const HOT_PATH_MARKER: &str = "lint:hot-path";

/// Marker that justifies a `.clone()` inside a hot-path module.
const HOT_CLONE_MARKER: &str = "lint:allow(hot-clone)";

/// Run every rule over the workspace at `root`.
pub fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in rust_sources(&root.join("crates")) {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if !is_production_path(&rel_str) {
            continue;
        }
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        let lines = production_lines(&text);
        check_marketplace(&rel, &rel_str, &lines, &mut out);
        check_ops_unwrap(&rel, &rel_str, &text, &lines, &mut out);
        check_interior_mutability(&rel, &rel_str, &lines, &mut out);
        check_service_blocking(&rel, &rel_str, &text, &lines, &mut out);
        check_durable_fs(&rel, &rel_str, &lines, &mut out);
        check_hot_clone(&rel, &text, &lines, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// All `.rs` files under `dir`, recursively.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(rust_sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// Production code only: skip test/bench/example trees and xtask
/// itself (whose fixtures contain deliberate violations).
fn is_production_path(rel: &str) -> bool {
    let excluded_dirs = ["/tests/", "/benches/", "/examples/", "/fixtures/"];
    if excluded_dirs.iter().any(|d| rel.contains(d)) {
        return false;
    }
    // The bench crate is measurement code — test-adjacent by design.
    if rel.starts_with("crates/bench/") || rel.starts_with("crates/xtask/") {
        return false;
    }
    rel.starts_with("crates/")
}

/// (1-based line number, text) for every line outside comments and
/// `#[cfg(test)]` blocks.
fn production_lines(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    // Depth of the brace-delimited block introduced right after a
    // `#[cfg(test)]` attribute; `None` when not inside one.
    let mut skip_depth: Option<i64> = None;
    let mut pending_test_attr = false;
    for (i, raw) in text.lines().enumerate() {
        let line = strip_line_comment(raw);
        let trimmed = line.trim();
        if let Some(depth) = &mut skip_depth {
            *depth += brace_delta(trimmed);
            if *depth <= 0 {
                skip_depth = None;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            pending_test_attr = true;
            continue;
        }
        if pending_test_attr {
            // The attribute applies to the next item; skip its block
            // (or just the line, for single-line items).
            let depth = brace_delta(trimmed);
            if depth > 0 {
                skip_depth = Some(depth);
            }
            pending_test_attr = trimmed.starts_with('#'); // attr stack
            continue;
        }
        if trimmed.is_empty() {
            continue;
        }
        out.push((i + 1, line.to_owned()));
    }
    out
}

/// Net `{`/`}` balance of a line, ignoring braces inside string and
/// char literals.
fn brace_delta(line: &str) -> i64 {
    let mut delta = 0i64;
    let mut in_str = false;
    let mut prev_escape = false;
    for c in line.chars() {
        if in_str {
            if prev_escape {
                prev_escape = false;
            } else if c == '\\' {
                prev_escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => delta += 1,
            '}' => delta -= 1,
            _ => {}
        }
    }
    delta
}

/// Drop a trailing `// ...` comment (string-literal aware).
fn strip_line_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut prev_escape = false;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            if prev_escape {
                prev_escape = false;
            } else if c == b'\\' {
                prev_escape = true;
            } else if c == b'"' {
                in_str = false;
            }
        } else if c == b'"' {
            in_str = true;
        } else if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
            return &line[..i];
        }
        i += 1;
    }
    line
}

fn check_marketplace(file: &Path, rel: &str, lines: &[(usize, String)], out: &mut Vec<Violation>) {
    if rel.starts_with("crates/crowd/") || MARKETPLACE_ALLOWLIST.contains(&rel) {
        return;
    }
    for (n, line) in lines {
        if line.contains("Marketplace") {
            out.push(Violation {
                rule: "marketplace-isolation",
                file: file.to_path_buf(),
                line: *n,
                message: "`Marketplace` referenced outside crates/crowd and the \
                          backend boundary; depend on the CrowdBackend trait instead"
                    .to_owned(),
            });
        }
    }
}

fn check_ops_unwrap(
    file: &Path,
    rel: &str,
    raw_text: &str,
    lines: &[(usize, String)],
    out: &mut Vec<Violation>,
) {
    if !rel.starts_with("crates/core/src/ops/") {
        return;
    }
    let raw_lines: Vec<&str> = raw_text.lines().collect();
    // Markers live in comments, which production_lines strips —
    // consult the raw line and its predecessor.
    let has_marker = |n: usize| {
        n >= 1
            && raw_lines
                .get(n - 1)
                .is_some_and(|l| l.contains(UNWRAP_MARKER))
    };
    for (n, line) in lines {
        if !(line.contains(".unwrap()") || line.contains(".expect(")) {
            continue;
        }
        if has_marker(*n) || has_marker(n.saturating_sub(1)) {
            continue;
        }
        out.push(Violation {
            rule: "ops-unwrap",
            file: file.to_path_buf(),
            line: *n,
            message: format!(
                "unwrap()/expect( in ops production code without a \
                 `// {UNWRAP_MARKER}: <why>` justification"
            ),
        });
    }
}

fn check_interior_mutability(
    file: &Path,
    rel: &str,
    lines: &[(usize, String)],
    out: &mut Vec<Violation>,
) {
    if !(rel.starts_with("crates/core/src/") || rel.starts_with("crates/crowd/src/")) {
        return;
    }
    const BANNED: &[(&str, &str)] = &[
        (
            "Rc<",
            "Rc is not Send; use Arc if shared ownership is needed",
        ),
        (
            "RefCell<",
            "RefCell is not Sync; use Mutex/RwLock or restructure",
        ),
        (
            "thread_local!",
            "thread-locals break backend portability across executors",
        ),
        (
            "static mut",
            "static mut is unsound under Send+Sync; use atomics or locks",
        ),
    ];
    for (n, line) in lines {
        for (pat, why) in BANNED {
            if line.contains(pat) {
                out.push(Violation {
                    rule: "interior-mutability",
                    file: file.to_path_buf(),
                    line: *n,
                    message: format!("`{pat}` in backend-reachable code: {why}"),
                });
            }
        }
    }
}

fn check_service_blocking(
    file: &Path,
    rel: &str,
    raw_text: &str,
    lines: &[(usize, String)],
    out: &mut Vec<Violation>,
) {
    let service_core = rel.starts_with("crates/core/src/service/");
    let serve_bin = rel.starts_with("crates/serve/src/");
    if !service_core && !serve_bin {
        return;
    }
    let raw_lines: Vec<&str> = raw_text.lines().collect();
    let has_marker = |n: usize| {
        n >= 1
            && raw_lines
                .get(n - 1)
                .is_some_and(|l| l.contains(LOCK_MARKER))
    };
    const POISONING_LOCKS: &[&str] = &[".lock().unwrap()", ".read().unwrap()", ".write().unwrap()"];
    const UNBOUNDED_READS: &[&str] = &[".read_to_end(", ".read_to_string("];
    for (n, line) in lines {
        if line.contains("thread::sleep") {
            out.push(Violation {
                rule: "service-blocking",
                file: file.to_path_buf(),
                line: *n,
                message: "`thread::sleep` in service code: the scheduler owns virtual \
                          time (and a listener blocks in accept()/frame reads, never \
                          polls); a sleeping thread stalls every tenant's barrier"
                    .to_owned(),
            });
        }
        if POISONING_LOCKS.iter().any(|p| line.contains(p))
            && !has_marker(*n)
            && !has_marker(n.saturating_sub(1))
        {
            out.push(Violation {
                rule: "service-blocking",
                file: file.to_path_buf(),
                line: *n,
                message: format!(
                    "poisoning lock acquisition in service code without a \
                     `// {LOCK_MARKER}: <why>` justification; one panicked query \
                     would poison the shared market for every tenant — prefer \
                     `unwrap_or_else(PoisonError::into_inner)`"
                ),
            });
        }
        if serve_bin {
            if let Some(pat) = UNBOUNDED_READS.iter().find(|p| line.contains(*p)) {
                out.push(Violation {
                    rule: "service-blocking",
                    file: file.to_path_buf(),
                    line: *n,
                    message: format!(
                        "`{pat}` in the listener binary: wire input must go \
                         through read_frame, whose bodies are bounded by \
                         MAX_FRAME_BYTES — an unbounded read lets one client \
                         exhaust memory"
                    ),
                });
            }
        }
    }
}

/// Filesystem-write APIs that only `crates/core/src/store/` may call.
/// Read-side APIs (`File::open`, `fs::read_to_string`, …) are fine —
/// qurk-serve reads script files, for instance.
fn check_durable_fs(file: &Path, rel: &str, lines: &[(usize, String)], out: &mut Vec<Violation>) {
    if rel.starts_with("crates/core/src/store/") {
        return;
    }
    const WRITE_APIS: &[&str] = &[
        "fs::write(",
        "fs::rename(",
        "fs::remove_file(",
        "fs::remove_dir",
        "fs::create_dir",
        "fs::copy(",
        "fs::set_permissions(",
        "File::create(",
        "OpenOptions::new(",
    ];
    for (n, line) in lines {
        if let Some(pat) = WRITE_APIS.iter().find(|p| line.contains(*p)) {
            out.push(Violation {
                rule: "durable-fs",
                file: file.to_path_buf(),
                line: *n,
                message: format!(
                    "`{pat}` outside crates/core/src/store/: all durable writes \
                     must go through the crash-tested qurk::store log, not \
                     ad-hoc filesystem calls"
                ),
            });
        }
    }
}

/// `.clone()` is banned in modules that declared themselves hot paths
/// (via `// lint:hot-path`, anywhere in the file) unless the call site
/// carries a justification marker.
fn check_hot_clone(
    file: &Path,
    raw_text: &str,
    lines: &[(usize, String)],
    out: &mut Vec<Violation>,
) {
    if !raw_text.contains(HOT_PATH_MARKER) {
        return;
    }
    let raw_lines: Vec<&str> = raw_text.lines().collect();
    // Markers live in comments, which production_lines strips —
    // consult the raw line and its predecessor.
    let has_marker = |n: usize| {
        n >= 1
            && raw_lines
                .get(n - 1)
                .is_some_and(|l| l.contains(HOT_CLONE_MARKER))
    };
    for (n, line) in lines {
        if !line.contains(".clone()") {
            continue;
        }
        if has_marker(*n) || has_marker(n.saturating_sub(1)) {
            continue;
        }
        out.push(Violation {
            rule: "hot-clone",
            file: file.to_path_buf(),
            line: *n,
            message: format!(
                ".clone() in a `// {HOT_PATH_MARKER}` module without a \
                 `// {HOT_CLONE_MARKER}: <why>` justification; hot paths \
                 reuse flat scratch buffers instead of allocating"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
    }

    fn real_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf()
    }

    #[test]
    fn real_tree_is_clean() {
        let violations = lint_workspace(&real_root());
        assert!(
            violations.is_empty(),
            "workspace should lint clean:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn seeded_fixture_violations_fire() {
        let violations = lint_workspace(&fixture_root());
        let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
        assert!(
            rules.contains(&"marketplace-isolation"),
            "expected marketplace violation, got {violations:?}"
        );
        assert!(
            rules.contains(&"ops-unwrap"),
            "expected unwrap violation, got {violations:?}"
        );
        assert!(
            rules.contains(&"interior-mutability"),
            "expected interior-mutability violation, got {violations:?}"
        );
        assert!(
            rules.contains(&"service-blocking"),
            "expected service-blocking violation, got {violations:?}"
        );
        assert!(
            rules.contains(&"durable-fs"),
            "expected durable-fs violation, got {violations:?}"
        );
        assert!(
            rules.contains(&"hot-clone"),
            "expected hot-clone violation, got {violations:?}"
        );
    }

    #[test]
    fn fixture_allowances_are_respected() {
        let violations = lint_workspace(&fixture_root());
        // Each rule fires a known number of times: the marked
        // unwraps, the cfg(test) Marketplace use, and the
        // commented-out mentions must all be skipped.
        // service-blocking fires three times: the service fixture's
        // sleep plus the listener fixture's sleep-poll and
        // read_to_end.
        for (rule, expected) in [
            ("ops-unwrap", 1),
            ("marketplace-isolation", 1),
            ("interior-mutability", 1),
            ("service-blocking", 3),
            ("durable-fs", 1),
            ("hot-clone", 1),
        ] {
            let count = violations.iter().filter(|v| v.rule == rule).count();
            assert_eq!(count, expected, "rule {rule}: {violations:?}");
        }
    }

    #[test]
    fn comment_and_test_stripping() {
        let lines = production_lines(
            "fn a() {}\n\
             // Marketplace in a comment\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 use qurk_crowd::Marketplace;\n\
             }\n\
             fn b() {}\n",
        );
        let text: Vec<&str> = lines.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(text, vec!["fn a() {}", "fn b() {}"]);
    }

    #[test]
    fn brace_delta_ignores_strings() {
        assert_eq!(brace_delta("mod t { \"}\" }"), 0);
        assert_eq!(brace_delta("fn f() {"), 1);
        assert_eq!(brace_delta("}"), -1);
    }
}
