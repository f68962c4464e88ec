//! The crowd layer's span: a [`CrowdBackend`] decorator that times
//! every call into the backend it wraps.
//!
//! Used only in traced runs, around the bare `Marketplace`, so the
//! untraced end-to-end figures never pay for it. The session stacks its
//! own cache and meter decorators above this one, so cache hits never
//! reach it: what it measures is the simulator alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use qurk::CrowdBackend;
use qurk_crowd::market::RunOutcome;
use qurk_crowd::{Assignment, HitGroupId, HitId, HitSpec, SimTime, WorkerId};

pub struct Timed<B> {
    inner: B,
    // Statistics only; they publish no other data, so Relaxed is enough.
    busy_ns: AtomicU64,
    calls: AtomicU64,
}

impl<B> Timed<B> {
    pub fn new(inner: B) -> Self {
        Timed {
            inner,
            busy_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Seconds spent inside the wrapped backend.
    pub fn busy_secs(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Calls made into the wrapped backend.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn done(&self, start: Instant) {
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl<B: CrowdBackend> CrowdBackend for Timed<B> {
    fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
        let t = Instant::now();
        let r = self.inner.post_group(specs);
        self.done(t);
        r
    }

    fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, assignments: u32) -> HitGroupId {
        let t = Instant::now();
        let r = self.inner.post_group_with_assignments(specs, assignments);
        self.done(t);
        r
    }

    fn run(&mut self, limit_secs: f64) -> RunOutcome {
        let t = Instant::now();
        let r = self.inner.run(limit_secs);
        self.done(t);
        r
    }

    fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
        let t = Instant::now();
        let r = self.inner.assignments(group);
        self.done(t);
        r
    }

    fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        let t = Instant::now();
        let r = self.inner.group_hits(group);
        self.done(t);
        r
    }

    fn group_latencies(&self, group: HitGroupId) -> Vec<f64> {
        let t = Instant::now();
        let r = self.inner.group_latencies(group);
        self.done(t);
        r
    }

    fn group_outstanding(&self, group: HitGroupId) -> u32 {
        let t = Instant::now();
        let r = self.inner.group_outstanding(group);
        self.done(t);
        r
    }

    fn hit_question_count(&self, hit: HitId) -> usize {
        let t = Instant::now();
        let r = self.inner.hit_question_count(hit);
        self.done(t);
        r
    }

    fn ban_workers(&mut self, workers: Vec<WorkerId>) {
        let t = Instant::now();
        self.inner.ban_workers(workers);
        self.done(t);
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn hits_posted(&self) -> usize {
        self.inner.hits_posted()
    }

    fn spend_dollars(&self) -> f64 {
        self.inner.spend_dollars()
    }

    fn assignments_completed(&self) -> u64 {
        self.inner.assignments_completed()
    }

    fn default_assignments(&self) -> u32 {
        self.inner.default_assignments()
    }
}
