//! The tuning-target trait: the database surface every tuner consumes.
//!
//! `lambda-tune`'s pipeline, the baselines, drift re-tuning and the fleet
//! cache need nothing from a database beyond the methods below — planning,
//! timed execution, index DDL, knob reconfiguration and catalog/statistics
//! access (paper §4–5: EXPLAIN costs, timed executions, timeout
//! interrupts). [`TuningTarget`] names that surface once; the simulator
//! ([`SimDb`](crate::SimDb)) and the real storage engine (`lt-store`'s
//! `StoreDb`) both implement it, and `SimDb`'s impl *is* its surface: it
//! has no inherent copy of these methods.
//!
//! The trait is object-safe on purpose: `lt-serve` holds its per-session
//! database as `Box<dyn TuningTarget + Send>` and picks the backend per
//! request, from the `"backend"` field of the request body.

use crate::catalog::Catalog;
use crate::config::{Configuration, IndexSpec};
use crate::db::QueryOutcome;
use crate::hardware::Hardware;
use crate::knobs::{Dbms, KnobSet};
use crate::physical::IndexCatalog;
use crate::plan::Plan;
use crate::plan_cache::CacheStats;
use crate::stats::QueryPredicates;
use lt_common::{Fingerprint, IndexId, Secs};
use lt_sql::ast::Query;
use std::sync::Arc;

/// A database system a tuner can observe and reconfigure.
///
/// Timed execution charges a clock (virtual seconds for the simulator,
/// proxy seconds measured on a replica for lt-store); everything else —
/// planning, catalog statistics, index DDL, knob application — is the
/// shared vocabulary of the λ-Tune pipeline and the baselines.
pub trait TuningTarget {
    /// Which system's knob/script dialect this target speaks.
    fn dbms(&self) -> Dbms;
    /// The schema + statistics the optimizer plans against.
    fn catalog(&self) -> &Catalog;
    /// The machine the target (claims to) run on.
    fn hardware(&self) -> Hardware;
    /// Current knob values.
    fn knobs(&self) -> &KnobSet;
    /// Current secondary indexes.
    fn indexes(&self) -> &IndexCatalog;
    /// Fingerprint of the catalog (fleet-cache keying).
    fn catalog_fingerprint(&self) -> Fingerprint;

    /// The tuning clock, seconds since the target was created.
    fn now(&self) -> Secs;
    /// Advances the tuning clock without doing work (models time spent
    /// outside the database: LLM calls, optimizer thinking, …).
    fn clock_advance(&self, d: Secs);
    /// Queries started over the target's lifetime.
    fn queries_executed(&self) -> u64;
    /// Queries that ran to completion (no timeout).
    fn queries_completed(&self) -> u64;

    /// Applies a configuration's knob commands (index commands are the
    /// caller's business via [`TuningTarget::create_index`], or use
    /// [`TuningTarget::apply`]). A configuration fully describes the
    /// parameter state: knobs it does not mention revert to their
    /// defaults. Charges reconfiguration (reload/restart) time once.
    fn apply_knobs(&mut self, config: &Configuration);
    /// Restores default knob values, charging reconfiguration time.
    fn reset_knobs(&mut self);
    /// Builds a secondary index, returning its id and the build time
    /// charged to the clock. Re-creating an existing index returns its id
    /// and charges a 0.01 s catalog lookup only.
    fn create_index(&mut self, spec: &IndexSpec) -> (IndexId, Secs);
    /// Estimated build time of `spec` without building it (what-if).
    fn estimate_index_build(&self, spec: &IndexSpec) -> Secs;
    /// Drops one index, charging drop time; false when the id is unknown.
    fn drop_index(&mut self, id: IndexId) -> bool;
    /// Drops every secondary index, charging per-index drop time.
    fn drop_all_indexes(&mut self);

    /// Runs `query` under the current configuration with a time cap,
    /// charging `min(execution time, timeout)` to the clock.
    fn execute(&mut self, query: &Query, timeout: Secs) -> QueryOutcome;
    /// Plans `query` under the current configuration (free: EXPLAIN).
    fn explain(&self, query: &Query) -> Plan;
    /// Plans `query` as if `hypothetical` were the index set (free what-if
    /// optimization, the primitive behind Dexter / DB2 Advisor).
    fn explain_with_indexes(&self, query: &Query, hypothetical: &IndexCatalog) -> Plan;
    /// Plans `query` as if `knobs` were in force (free what-if).
    fn explain_with_knobs(&self, query: &Query, knobs: &KnobSet) -> Plan;
    /// `EXPLAIN ANALYZE`: the rendered plan plus a real timed execution.
    fn explain_analyze(&mut self, query: &Query) -> (String, QueryOutcome);
    /// Extracted predicates of `query`, memoized per query text.
    fn predicates(&self, query: &Query) -> Arc<QueryPredicates>;

    /// Lifetime plan/extract cache counters.
    fn cache_stats(&self) -> CacheStats;
    /// Cache counters since the last [`TuningTarget::take_cache_window`]
    /// (cumulative counters untouched).
    fn cache_window_stats(&self) -> CacheStats;
    /// Returns the windowed cache counters and starts a fresh window. The
    /// drift monitor calls this per observation interval: a *recent* hit
    /// rate can collapse even while the cumulative rate stays high.
    fn take_cache_window(&self) -> CacheStats;

    /// Applies a whole configuration: its knobs, then every index it
    /// creates, in script order.
    fn apply(&mut self, config: &Configuration) {
        self.apply_knobs(config);
        for spec in config.index_specs() {
            self.create_index(spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDb;
    use lt_sql::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table("lineitem", 6_000_000)
            .primary_key("l_orderkey", 8)
            .column("l_quantity", 8, 50.0)
            .finish();
        c.add_table("orders", 1_500_000)
            .primary_key("o_orderkey", 8)
            .finish();
        c
    }

    fn sim() -> SimDb {
        SimDb::new(Dbms::Postgres, catalog(), Hardware::p3_2xlarge(), 7)
    }

    /// The trait must stay usable as `dyn TuningTarget` (lt-serve boxes
    /// it), and dynamic dispatch must agree with static dispatch.
    #[test]
    fn dynamic_dispatch_matches_static_dispatch() {
        let mut direct = sim();
        let mut boxed: Box<dyn TuningTarget> = Box::new(sim());
        assert_eq!(boxed.catalog_fingerprint(), direct.catalog_fingerprint());
        let queries = [
            "select count(*) from orders",
            "select * from lineitem, orders where l_orderkey = o_orderkey",
        ];
        for sql in queries {
            let q = parse_query(sql).unwrap();
            let a = direct.execute(&q, Secs::INFINITY);
            let b = boxed.execute(&q, Secs::INFINITY);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.time, b.time, "{sql}");
        }
        assert_eq!(direct.now(), boxed.now());
        assert_eq!(direct.queries_completed(), boxed.queries_completed());
    }

    #[test]
    fn apply_through_dyn_sets_knobs_and_builds_every_index() {
        let mut db: Box<dyn TuningTarget> = Box::new(sim());
        let config = Configuration::parse(
            "ALTER SYSTEM SET work_mem = '1GB';\n\
             CREATE INDEX ON lineitem (l_quantity);\n\
             CREATE INDEX ON orders (o_orderkey);",
            Dbms::Postgres,
            db.catalog(),
        );
        db.apply(&config);
        assert_eq!(db.knobs().get_f64("work_mem"), (1u64 << 30) as f64);
        assert_eq!(db.indexes().len(), 2);
        for spec in config.index_specs() {
            assert!(db.indexes().find(spec.table, &spec.columns).is_some());
        }
        assert!(db.now() > Secs::ZERO);
    }
}
