//! The process-wide shared plan tier serves both backends: a plan the
//! simulator computed answers the storage engine's current-configuration
//! planning at the same catalog and statistics seed, a different seed never
//! sees it, and what-if planning neither reads nor publishes shared entries.
//!
//! The tier's only observable is its `fleet.plan_shared_{hit,miss}`
//! counters in the process-global obs registry, so this file holds a single
//! test, and its catalog's table names are unique to it, so no other
//! planning in the process can touch the same shared entries.

use lt_common::obs;
use lt_dbms::{Catalog, Dbms, Hardware, IndexCatalog, KnobSet, SimDb, TuningTarget};
use lt_sql::parse_query;
use lt_store::StoreDb;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table("shared_tier_dim", 20_000)
        .primary_key("std_key", 8)
        .column("std_val", 8, 100.0)
        .finish();
    c.add_table("shared_tier_fact", 200_000)
        .primary_key("stf_key", 8)
        .foreign_key("stf_dim", 8, 20_000.0)
        .column("stf_val", 8, 500.0)
        .finish();
    c
}

/// `(fleet.plan_shared_hit, fleet.plan_shared_miss)` so far.
fn shared_counts() -> (u64, u64) {
    let snap = obs::snapshot();
    let count = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    (
        count("fleet.plan_shared_hit"),
        count("fleet.plan_shared_miss"),
    )
}

#[test]
fn shared_tier_spans_backends_by_seed_and_what_if_never_publishes() {
    obs::set_enabled(true);
    obs::reset();
    let hw = Hardware::p3_2xlarge();
    let q = parse_query(
        "select * from shared_tier_fact, shared_tier_dim \
         where stf_dim = std_key and stf_val < 10",
    )
    .unwrap();

    // The simulator plans from scratch and publishes.
    let sim = SimDb::new(Dbms::Postgres, catalog(), hw, 11);
    let plan = sim.explain(&q);
    assert_eq!(shared_counts(), (0, 1));

    // The storage engine at the same seed finds that plan.
    let store = StoreDb::new(Dbms::Postgres, catalog(), hw, 11);
    assert_eq!(TuningTarget::explain(&store, &q), plan);
    assert_eq!(shared_counts(), (1, 1), "same seed must hit");

    // A different seed is a different plan identity.
    let other = StoreDb::new(Dbms::Postgres, catalog(), hw, 12);
    TuningTarget::explain(&other, &q);
    assert_eq!(shared_counts(), (1, 2), "different seed must miss");

    // What-if planning against exactly the current configuration (the
    // same keys the current plan would use) and against a hypothetical
    // index never touches the tier.
    let what_if = SimDb::new(Dbms::Postgres, catalog(), hw, 13);
    what_if.explain_with_indexes(&q, &IndexCatalog::new());
    what_if.explain_with_knobs(&q, &KnobSet::defaults(Dbms::Postgres));
    let mut hypothetical = IndexCatalog::new();
    let table = what_if.catalog().table_by_name("shared_tier_fact").unwrap();
    let column = what_if
        .catalog()
        .resolve_column(Some("shared_tier_fact"), "stf_dim")
        .unwrap();
    hypothetical.add(table, vec![column], None);
    what_if.explain_with_indexes(&q, &hypothetical);
    assert_eq!(shared_counts(), (1, 2), "what-if must not read the tier");

    // Neither what-if plan was published: a seed-13 store planning the
    // same contexts for real misses both times.
    let mut store = StoreDb::new(Dbms::Postgres, catalog(), hw, 13);
    TuningTarget::explain(&store, &q);
    assert_eq!(
        shared_counts(),
        (1, 3),
        "what-if published the default plan"
    );
    store.create_index(&lt_dbms::IndexSpec {
        table,
        columns: vec![column],
        name: None,
    });
    TuningTarget::explain(&store, &q);
    assert_eq!(shared_counts(), (1, 4), "what-if published the index plan");
    obs::set_enabled(false);
}
