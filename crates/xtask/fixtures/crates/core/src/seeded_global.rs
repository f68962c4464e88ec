//! Lint fixture: deliberately violates the global-state rule once.
//! Not compiled — scanned by `lint::tests` only.

use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, OnceLock};

static UNBOUNDED: Mutex<Vec<String>> = Mutex::new(Vec::new());

// lint:allow(global-state): should-not-fire — one counter
static COUNTER: AtomicU64 = AtomicU64::new(0);

static TABLE: OnceLock<Vec<u8>> = OnceLock::new(); // lint:allow(global-state): should-not-fire — set once

// Not a lock, cell or atomic: plain constant data is fine.
static NAMES: &[&str] = &["a", "b"];

fn name() -> &'static str {
    let _ = Mutex::new(0u8);
    NAMES[0]
}

// A static mentioned in a comment must not fire: static X: Mutex<u8>

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    static N: AtomicU64 = AtomicU64::new(0);
}
