//! Compile-time audit: every [`CrowdBackend`] implementation in the
//! workspace is `Send + Sync`, so the planned async service can share
//! backends across tasks without restructuring. Enforced here (the
//! probes fail to *compile* if a backend grows `Rc`/`RefCell`/raw
//! pointers) and complemented by `xtask lint`'s interior-mutability
//! scan.

use qurk::backend::{CachingBackend, MeteringBackend, ReplayBackend};
use std::sync::Mutex;

use qurk::service::TenantBackend;
use qurk_crowd::Marketplace;

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn every_backend_impl_is_send_sync() {
    assert_send_sync::<Marketplace>();
    assert_send_sync::<CachingBackend<Marketplace>>();
    assert_send_sync::<MeteringBackend<CachingBackend<Marketplace>>>();
    assert_send_sync::<ReplayBackend>();
    // Decorators preserve the bounds for any conforming inner backend.
    assert_send_sync::<MeteringBackend<CachingBackend<ReplayBackend>>>();
    // The service layer shares one market, its Task Cache, across
    // query threads.
    assert_send_sync::<Mutex<CachingBackend<Marketplace>>>();
    assert_send_sync::<TenantBackend<Marketplace>>();
    assert_send_sync::<TenantBackend<ReplayBackend>>();
}
