//! The plan cache must be invisible except for speed: a cached plan is
//! always identical to what planning from scratch would produce, and knob
//! or index mutations must never serve a stale plan.

use lt_common::{derive_seed, secs};
use lt_dbms::{Catalog, Configuration, Dbms, Hardware, IndexSpec, Optimizer, SimDb, TuningTarget};
use lt_sql::parse_query;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table("t_small", 10_000)
        .primary_key("sk", 8)
        .column("sv", 8, 100.0)
        .finish();
    c.add_table("t_big", 2_000_000)
        .primary_key("bk", 8)
        .foreign_key("bfk", 8, 10_000.0)
        .column("bv", 8, 500.0)
        .finish();
    c
}

fn db() -> SimDb {
    SimDb::new(Dbms::Postgres, catalog(), Hardware::p3_2xlarge(), 3)
}

const JOIN: &str = "select * from t_big, t_small where bfk = sk and bv < 10";

/// Planning twice returns the identical plan, and both a fresh database
/// and the optimizer called directly, past every cache tier, agree — the
/// caches only change *when* planning happens.
#[test]
fn cached_plan_equals_fresh_plan() {
    let cached = db();
    let q = parse_query(JOIN).unwrap();
    let first = cached.explain(&q);
    let second = cached.explain(&q);
    assert_eq!(first, second);
    let stats = cached.cache_stats();
    assert_eq!(stats.plan_misses, 1, "one planning call");
    assert_eq!(stats.plan_hits, 1, "one cache hit");

    let fresh = db().explain(&q);
    assert_eq!(first, fresh);

    // `SimDb::new` derives the optimizer's statistics seed as
    // `derive_seed(seed, 1)`.
    let stats_seed = derive_seed(3, 1);
    let uncached = Optimizer::new(
        cached.catalog(),
        cached.knobs(),
        cached.indexes(),
        stats_seed,
    )
    .plan(&q);
    assert_eq!(first, uncached);
}

/// Applying knobs that change optimizer behaviour re-plans instead of
/// serving the stale cached plan, and matches a never-cached database
/// configured the same way.
#[test]
fn knob_change_invalidates_cached_plan() {
    let mut cached = db();
    let q = parse_query(JOIN).unwrap();
    let before = cached.explain(&q);

    // Make index scans look expensive and sequential scans cheap — a
    // planner-relevant change that can flip access-path choices.
    let cfg = Configuration::parse(
        "ALTER SYSTEM SET random_page_cost = 40.0;\n\
         ALTER SYSTEM SET cpu_index_tuple_cost = 0.5;",
        Dbms::Postgres,
        cached.catalog(),
    );
    cached.apply_knobs(&cfg);
    let after = cached.explain(&q);

    let mut fresh = db();
    fresh.apply_knobs(&cfg);
    let expected = fresh.explain(&q);
    assert_eq!(
        after, expected,
        "plan under new knobs must match a cache-less database"
    );

    // Reverting the knobs re-hits the original cache entry.
    cached.reset_knobs();
    let reverted = cached.explain(&q);
    assert_eq!(before, reverted);
    let stats = cached.cache_stats();
    assert!(
        stats.plan_hits >= 1,
        "revert must hit the original entry: {stats:?}"
    );
}

/// Creating and dropping an index bumps the catalog epoch, so plans are
/// recomputed against the real index set — no stale index-scan plans.
#[test]
fn index_create_and_drop_invalidate_cached_plan() {
    let mut cached = db();
    let q = parse_query(JOIN).unwrap();
    let epoch0 = cached.indexes().epoch();
    let plan_no_index = cached.explain(&q);

    let spec = IndexSpec {
        table: cached.catalog().table_by_name("t_big").unwrap(),
        columns: vec![cached
            .catalog()
            .resolve_column(Some("t_big"), "bfk")
            .unwrap()],
        name: None,
    };
    let (id, _) = cached.create_index(&spec);
    assert!(
        cached.indexes().epoch() > epoch0,
        "create must bump the epoch"
    );
    let plan_with_index = cached.explain(&q);

    // A fresh database with the same index must agree with the cached one.
    let mut fresh = db();
    fresh.create_index(&spec);
    assert_eq!(plan_with_index, fresh.explain(&q));

    // Dropping the index restores the original plan (cache re-hit, since
    // the index-catalog fingerprint returns to its previous value).
    cached.drop_index(id);
    let plan_dropped = cached.explain(&q);
    assert_eq!(plan_no_index, plan_dropped);
}

/// Executing the same queries repeatedly — the selector's access pattern —
/// is answered from the cache, and the observed times are exactly what a
/// second database replaying the identical call sequence observes (the
/// cache must not perturb the deterministic execution model).
#[test]
fn repeated_execution_hits_cache_with_identical_outcomes() {
    let queries = [
        parse_query(JOIN).unwrap(),
        parse_query("select * from t_big where bv < 100").unwrap(),
        parse_query("select * from t_small where sv < 5").unwrap(),
    ];
    let run_rounds = |db: &mut SimDb| -> Vec<f64> {
        let mut times = Vec::new();
        for _ in 0..3 {
            for q in &queries {
                times.push(db.execute(q, secs(f64::INFINITY)).time.as_f64());
            }
        }
        times
    };
    let mut a = db();
    let mut b = db();
    let times_a = run_rounds(&mut a);
    let times_b = run_rounds(&mut b);
    assert_eq!(times_a, times_b, "cache must not change execution outcomes");

    let stats = a.cache_stats();
    assert!(
        stats.plan_hits >= 6,
        "re-runs must be cache hits: {stats:?}"
    );
    assert_eq!(stats.plan_misses, 3, "one miss per distinct query");
    assert!(stats.extract_hits >= 6);
}

/// What-if planning against a hypothetical index catalog or knob set never
/// pollutes the real planning context.
#[test]
fn what_if_planning_is_isolated() {
    let sim = db();
    let q = parse_query(JOIN).unwrap();
    let real = sim.explain(&q);

    let mut hypothetical = sim.indexes().clone();
    let spec = IndexSpec {
        table: sim.catalog().table_by_name("t_big").unwrap(),
        columns: vec![sim.catalog().resolve_column(Some("t_big"), "bfk").unwrap()],
        name: None,
    };
    hypothetical.add(spec.table, spec.columns.clone(), None);
    let _what_if = sim.explain_with_indexes(&q, &hypothetical);

    let mut knobs = sim.knobs().clone();
    knobs.set_text("random_page_cost", "40.0").unwrap();
    let _what_if_knobs = sim.explain_with_knobs(&q, &knobs);

    // The real planning context is untouched: same plan, served cached.
    let again = sim.explain(&q);
    assert_eq!(real, again);
}
