//! Seeded fixture for the `service-blocking` rule: exactly TWO
//! violations must fire in this file (the bare `thread::sleep` and the
//! per-query `thread::spawn`); the marked lock, the worker pool's
//! spawn function, the cfg(test) block and the comment mentions are
//! all allowed.

use std::sync::mpsc::{channel, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

pub fn stalls_every_tenant() {
    // VIOLATION: sleeping on a query thread blocks the rendezvous.
    std::thread::sleep(Duration::from_millis(5));
}

pub fn thread_per_query(queries: Vec<Box<dyn FnOnce() + Send>>) {
    for query in queries {
        // VIOLATION: a thread per query instead of the pool's workers.
        let _ = std::thread::spawn(query).join();
    }
}

pub fn marked_lock_is_allowed(m: &Mutex<u32>) -> u32 {
    // lint:allow(lock-poison): fixture demonstrates the marker form.
    *m.lock().unwrap()
}

/// The pool's one spawn function may start a thread.
fn spawn_worker(i: usize) -> (Sender<Box<dyn FnOnce() + Send>>, JoinHandle<()>) {
    let (tx, rx) = channel::<Box<dyn FnOnce() + Send>>();
    let handle = std::thread::Builder::new()
        .name(format!("worker-{i}"))
        .spawn(move || rx.into_iter().for_each(|job| job()))
        .expect("spawn");
    (tx, handle)
}

pub fn pool_of_one() {
    let (tx, handle) = spawn_worker(0);
    drop(tx);
    let _ = handle.join();
}

// thread::sleep and thread::spawn in a comment are fine, as is
// .lock().unwrap() here.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleeps_and_spawns_in_tests_are_fine() {
        std::thread::sleep(std::time::Duration::from_millis(1));
        std::thread::spawn(|| {}).join().unwrap();
        let m = Mutex::new(1);
        assert_eq!(*m.lock().unwrap(), 1);
    }
}
