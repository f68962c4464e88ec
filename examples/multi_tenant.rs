//! Two tenants, one marketplace: the multi-tenant query service.
//!
//! Alice and Bob each submit queries against the same `people` table.
//! Their queries run **concurrently** on one shared marketplace clock,
//! and because Bob's filter asks exactly the questions Alice's does,
//! the shared Task Cache posts (and pays for) each HIT once — Bob
//! rides along for free, which his report's `service:` block shows.
//!
//! Run with: `cargo run --example multi_tenant`

use std::sync::Arc;

use qurk::service::QueryService;
use qurk::{Catalog, CrowdBackend, Relation, Schema, Value, ValueType};
use qurk_crowd::truth::{DimensionParams, PredicateTruth};
use qurk_crowd::{CrowdConfig, EntityId, GroundTruth, Marketplace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Hidden ground truth: ten people, the tallest five are "tall",
    //    with a latent height dimension for sorting.
    let mut truth = GroundTruth::new();
    truth.define_dimension("height", DimensionParams::crisp(0.02));
    let items = truth.new_items(10);
    for (i, &item) in items.iter().enumerate() {
        truth.set_predicate(
            item,
            "isTall",
            PredicateTruth {
                value: i >= 5,
                error_rate: 0.03,
            },
        );
        truth.set_score(item, "height", i as f64);
        truth.set_entity(item, EntityId(i as u64));
    }
    let market = Marketplace::new(&CrowdConfig::default().with_seed(7), truth);

    // 2. One catalog both tenants query.
    let mut catalog = Catalog::new();
    let mut people = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, &item) in items.iter().enumerate() {
        people.push(vec![Value::Int(i as i64), Value::Item(item)])?;
    }
    catalog.register_table("people", people);
    catalog.define_tasks(
        r#"TASK isTall(field) TYPE Filter:
            Prompt: "<img src='%s'> Is this person tall?", tuple[field]
           TASK byHeight(field) TYPE Rank:
            OrderDimensionName: "height"
            Html: "<img src='%s'>", tuple[field]
        "#,
    )?;

    // 3. The service: one shared marketplace, two tenants. Alice gets
    //    a $5 budget; Bob is uncapped.
    let mut svc = QueryService::new(Arc::new(catalog), market);
    svc.register_tenant("alice", Some(5.0));
    svc.register_tenant("bob", None);

    // 4. Same filter from both tenants, plus a sort only Alice wants.
    //    All three queries run concurrently in one batch.
    svc.submit("alice", "SELECT p.id FROM people AS p WHERE isTall(p.img)")?;
    svc.submit("bob", "SELECT p.id FROM people AS p WHERE isTall(p.img)")?;
    svc.submit(
        "alice",
        "SELECT p.id FROM people AS p ORDER BY byHeight(p.img)",
    )?;

    for report in svc.run_pending() {
        let report = report?;
        let stats = report
            .service
            .as_ref()
            .expect("service queries carry ServiceStats");
        println!(
            "{:<6} {} rows  spent ${:.3}  saved ${:.3}  {} rounds ({} shared)",
            stats.tenant,
            report.relation.len(),
            report.cost_dollars,
            stats.saved_dollars,
            stats.rounds,
            stats.rounds_shared,
        );
    }

    // 5. The books balance: per-tenant meters sum to the market total,
    //    and Bob's identical specs were never re-posted.
    let market = svc.market();
    let (posted, (cache_hits, _), total) =
        (market.hits_posted(), market.stats(), market.spend_dollars());
    println!(
        "\nmarket: {posted} HITs posted, {cache_hits} specs served from cache, total ${total:.3}",
    );
    println!(
        "tenants: alice ${:.3} + bob ${:.3} == market ${total:.3}",
        svc.tenant_spent("alice")?,
        svc.tenant_spent("bob")?,
    );
    assert!((svc.tenant_spent("alice")? + svc.tenant_spent("bob")? - total).abs() < 1e-9);
    Ok(())
}
