//! The tuning-target trait: the database surface every tuner consumes.
//!
//! `lambda-tune`'s pipeline, the baselines, drift re-tuning and the fleet
//! cache never needed anything from [`SimDb`](crate::SimDb) beyond the
//! methods below — planning, timed execution, index DDL, knob
//! reconfiguration and catalog/statistics access. [`TuningTarget`] names
//! that surface so a second backend (the real storage engine in
//! `lt-store`) can stand in for the simulator behind the same tuners.
//!
//! The trait is object-safe on purpose: `lt-serve` holds its per-session
//! database as `Box<dyn TuningTarget + Send>` and picks the backend per
//! request, from the `"backend"` field of the request body.
//!
//! The `SimDb` implementation is pure delegation to the inherent methods,
//! so existing callers — and the bytes of every committed `results/*.json`
//! — are unaffected by the extraction.

use crate::catalog::Catalog;
use crate::config::{Configuration, IndexSpec};
use crate::db::{QueryOutcome, SimDb};
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
/// measured wall seconds for a real engine); everything else — planning,
/// catalog statistics, index DDL, knob application — is the shared
/// vocabulary of the λ-Tune pipeline and the baselines.
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
    /// caller's business via [`TuningTarget::create_index`]), charging
    /// reconfiguration time to the clock.
    fn apply_knobs(&mut self, config: &Configuration);
    /// Restores default knob values.
    fn reset_knobs(&mut self);
    /// Builds a secondary index (idempotent), returning its id and the
    /// build time charged to the clock.
    fn create_index(&mut self, spec: &IndexSpec) -> (IndexId, Secs);
    /// Estimated build time of `spec` without building it.
    fn estimate_index_build(&self, spec: &IndexSpec) -> Secs;
    /// Drops one index; false when the id is unknown.
    fn drop_index(&mut self, id: IndexId) -> bool;
    /// Drops every secondary index.
    fn drop_all_indexes(&mut self);

    /// Runs `query` under the current configuration with a time cap,
    /// charging the (possibly truncated) execution time to the clock.
    fn execute(&mut self, query: &Query, timeout: Secs) -> QueryOutcome;
    /// Plans `query` under the current configuration.
    fn explain(&self, query: &Query) -> Plan;
    /// Plans `query` as if `hypothetical` were the index set (what-if
    /// advising; nothing is built).
    fn explain_with_indexes(&self, query: &Query, hypothetical: &IndexCatalog) -> Plan;
    /// Plans `query` as if `knobs` were in force (nothing is applied).
    fn explain_with_knobs(&self, query: &Query, knobs: &KnobSet) -> Plan;
    /// `EXPLAIN ANALYZE`: the rendered plan plus a real timed execution.
    fn explain_analyze(&mut self, query: &Query) -> (String, QueryOutcome);
    /// Extracted (cached) predicate summary of `query`.
    fn predicates(&self, query: &Query) -> Arc<QueryPredicates>;

    /// Lifetime plan/extract cache counters.
    fn cache_stats(&self) -> CacheStats;
    /// Cache counters since the last [`TuningTarget::take_cache_window`].
    fn cache_window_stats(&self) -> CacheStats;
    /// Drains and returns the windowed cache counters.
    fn take_cache_window(&self) -> CacheStats;
}

impl TuningTarget for SimDb {
    fn dbms(&self) -> Dbms {
        SimDb::dbms(self)
    }
    fn catalog(&self) -> &Catalog {
        SimDb::catalog(self)
    }
    fn hardware(&self) -> Hardware {
        SimDb::hardware(self)
    }
    fn knobs(&self) -> &KnobSet {
        SimDb::knobs(self)
    }
    fn indexes(&self) -> &IndexCatalog {
        SimDb::indexes(self)
    }
    fn catalog_fingerprint(&self) -> Fingerprint {
        SimDb::catalog_fingerprint(self)
    }
    fn now(&self) -> Secs {
        SimDb::now(self)
    }
    fn clock_advance(&self, d: Secs) {
        SimDb::clock_advance(self, d)
    }
    fn queries_executed(&self) -> u64 {
        SimDb::queries_executed(self)
    }
    fn queries_completed(&self) -> u64 {
        SimDb::queries_completed(self)
    }
    fn apply_knobs(&mut self, config: &Configuration) {
        SimDb::apply_knobs(self, config)
    }
    fn reset_knobs(&mut self) {
        SimDb::reset_knobs(self)
    }
    fn create_index(&mut self, spec: &IndexSpec) -> (IndexId, Secs) {
        SimDb::create_index(self, spec)
    }
    fn estimate_index_build(&self, spec: &IndexSpec) -> Secs {
        SimDb::estimate_index_build(self, spec)
    }
    fn drop_index(&mut self, id: IndexId) -> bool {
        SimDb::drop_index(self, id)
    }
    fn drop_all_indexes(&mut self) {
        SimDb::drop_all_indexes(self)
    }
    fn execute(&mut self, query: &Query, timeout: Secs) -> QueryOutcome {
        SimDb::execute(self, query, timeout)
    }
    fn explain(&self, query: &Query) -> Plan {
        SimDb::explain(self, query)
    }
    fn explain_with_indexes(&self, query: &Query, hypothetical: &IndexCatalog) -> Plan {
        SimDb::explain_with_indexes(self, query, hypothetical)
    }
    fn explain_with_knobs(&self, query: &Query, knobs: &KnobSet) -> Plan {
        SimDb::explain_with_knobs(self, query, knobs)
    }
    fn explain_analyze(&mut self, query: &Query) -> (String, QueryOutcome) {
        SimDb::explain_analyze(self, query)
    }
    fn predicates(&self, query: &Query) -> Arc<QueryPredicates> {
        SimDb::predicates(self, query)
    }
    fn cache_stats(&self) -> CacheStats {
        SimDb::cache_stats(self)
    }
    fn cache_window_stats(&self) -> CacheStats {
        SimDb::cache_window_stats(self)
    }
    fn take_cache_window(&self) -> CacheStats {
        SimDb::take_cache_window(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The trait must stay usable as `dyn TuningTarget` (lt-serve boxes
    /// it), and delegation must agree with the inherent methods.
    #[test]
    fn simdb_behind_the_trait_matches_the_inherent_surface() {
        let mut inherent = SimDb::new(Dbms::Postgres, catalog(), Hardware::p3_2xlarge(), 7);
        let mut boxed: Box<dyn TuningTarget> = Box::new(SimDb::new(
            Dbms::Postgres,
            catalog(),
            Hardware::p3_2xlarge(),
            7,
        ));
        assert_eq!(boxed.catalog_fingerprint(), inherent.catalog_fingerprint());
        let queries = [
            "select count(*) from orders",
            "select * from lineitem, orders where l_orderkey = o_orderkey",
        ];
        for sql in queries {
            let q = parse_query(sql).unwrap();
            let a = inherent.execute(&q, Secs::INFINITY);
            let b = boxed.execute(&q, Secs::INFINITY);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.time, b.time, "{sql}");
        }
        assert_eq!(inherent.now(), boxed.now());
        assert_eq!(inherent.queries_completed(), boxed.queries_completed());
    }
}
