//! The simulated DBMS.
//!
//! [`SimDb`] is what tuners hold: it owns the catalog, the active knob set,
//! the materialized indexes and the virtual clock. Every operation that
//! would take wall-clock time on a real system — executing a query,
//! building an index, applying a configuration (restart/reload) — advances
//! the clock; everything else (EXPLAIN, what-if planning) is free, matching
//! how the paper's tuners budget their time.
//!
//! Its surface is its [`TuningTarget`] impl. The inherent methods beyond
//! `new` and [`SimDb::set_cost_constants`] are the three hooks lt-store's
//! `StoreDb` plans and builds through, so that a `StoreDb` wraps a `SimDb`
//! of the same catalog and seed instead of copying its bookkeeping:
//! [`SimDb::plan`], [`SimDb::estimator`] and [`SimDb::create_index_with`].

use crate::catalog::Catalog;
use crate::config::{Configuration, IndexSpec};
use crate::executor::{ExecutionContext, ExecutionModel};
use crate::hardware::Hardware;
use crate::knobs::{Dbms, KnobSet};
use crate::physical::{Index, IndexCatalog};
use crate::plan::Plan;
use crate::plan_cache::{CacheStats, PlanCache};
use crate::stats::{Estimator, QueryPredicates};
use crate::target::TuningTarget;
use lt_common::{derive_seed, obs, secs, IndexId, Secs, VirtualClock};
use lt_sql::ast::Query;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Result of executing one query under a timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOutcome {
    /// True when the query finished before the timeout.
    pub completed: bool,
    /// Time charged to the clock: the full execution time when completed,
    /// the timeout otherwise.
    pub time: Secs,
}

/// A simulated database instance.
pub struct SimDb {
    dbms: Dbms,
    catalog: Catalog,
    hardware: Hardware,
    knobs: KnobSet,
    indexes: IndexCatalog,
    clock: VirtualClock,
    model: ExecutionModel,
    exec_counter: u64,
    knob_fingerprint: u64,
    queries_executed: u64,
    queries_completed: u64,
    plan_cache: PlanCache,
    /// `knobs.planner_fingerprint()`, refreshed on knob mutation so the hot
    /// execute path doesn't rehash the knob set per query.
    planner_fp: lt_common::Fingerprint,
}

impl SimDb {
    /// Creates an instance with default knobs and no indexes. `seed` fixes
    /// the misestimation pattern and execution noise.
    pub fn new(dbms: Dbms, catalog: Catalog, hardware: Hardware, seed: u64) -> Self {
        let knobs = KnobSet::defaults(dbms);
        let planner_fp = knobs.planner_fingerprint();
        let model = ExecutionModel::new(derive_seed(seed, 1), derive_seed(seed, 2));
        let plan_cache = PlanCache::new(catalog.fingerprint(), model.stats_seed);
        SimDb {
            dbms,
            catalog,
            hardware,
            knobs,
            indexes: IndexCatalog::new(),
            clock: VirtualClock::new(),
            model,
            exec_counter: 0,
            knob_fingerprint: 0,
            queries_executed: 0,
            queries_completed: 0,
            plan_cache,
            planner_fp,
        }
    }

    /// Replaces the execution-time cost constants (calibration:
    /// `store_bench` fits these against lt-store measurements). Plans and
    /// cached predicates are unaffected — the optimizer prices plans with
    /// its own cost model, so only *executed* times change.
    pub fn set_cost_constants(&mut self, costs: crate::executor::CostConstants) {
        self.model.set_costs(costs);
    }

    /// Plans `query` under the *current* knobs and indexes through the plan
    /// cache (see [`PlanCache::plan`]), with its extracted predicates.
    pub fn plan(&self, query: &Query) -> (Arc<QueryPredicates>, Arc<Plan>) {
        self.plan_tagged(query_tag(query), query)
    }

    /// The cardinality estimator the optimizer plans with: this instance's
    /// catalog and statistics seed.
    pub fn estimator(&self) -> Estimator<'_> {
        Estimator::new(&self.catalog, self.model.stats_seed)
    }

    /// Adds `spec` to the index catalog and charges the build time `build`
    /// returns for it (given this instance and the catalog entry just
    /// added). An index that already exists charges a 0.01 s catalog lookup
    /// and never calls `build`. [`TuningTarget::create_index`] is this hook
    /// priced by the execution model.
    pub fn create_index_with(
        &mut self,
        spec: &IndexSpec,
        build: impl FnOnce(&SimDb, &Index) -> Secs,
    ) -> (IndexId, Secs) {
        if let Some(existing) = self.indexes.find(spec.table, &spec.columns) {
            let t = secs(0.01);
            self.clock.advance(t);
            return (existing, t);
        }
        let mut span = obs::span_vt("dbms.index_build", self.clock.now());
        let id = self
            .indexes
            .add(spec.table, spec.columns.clone(), spec.name.clone());
        let t = build(self, self.indexes.get(id).expect("just added"));
        self.clock.advance(t);
        span.vt_end(self.clock.now());
        obs::counter("dbms.index_builds", 1);
        self.refresh_fingerprint();
        (id, t)
    }

    /// [`SimDb::plan`] for a query already fingerprinted as `tag`.
    fn plan_tagged(&self, tag: u64, query: &Query) -> (Arc<QueryPredicates>, Arc<Plan>) {
        self.plan_cache.plan(
            tag,
            query,
            &self.catalog,
            &self.knobs,
            self.planner_fp,
            &self.indexes,
        )
    }

    fn ctx(&self) -> ExecutionContext<'_> {
        ExecutionContext {
            catalog: &self.catalog,
            knobs: &self.knobs,
            indexes: &self.indexes,
            hardware: &self.hardware,
        }
    }

    fn refresh_fingerprint(&mut self) {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (name, value) in self.knobs.non_default() {
            name.hash(&mut h);
            value.as_f64().to_bits().hash(&mut h);
        }
        for idx in self.indexes.iter() {
            idx.table.hash(&mut h);
            idx.columns.hash(&mut h);
        }
        self.knob_fingerprint = h.finish();
        self.planner_fp = self.knobs.planner_fingerprint();
    }
}

impl TuningTarget for SimDb {
    fn dbms(&self) -> Dbms {
        self.dbms
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn hardware(&self) -> Hardware {
        self.hardware
    }

    fn knobs(&self) -> &KnobSet {
        &self.knobs
    }

    fn indexes(&self) -> &IndexCatalog {
        &self.indexes
    }

    fn catalog_fingerprint(&self) -> lt_common::Fingerprint {
        self.plan_cache.catalog_fingerprint()
    }

    fn now(&self) -> Secs {
        self.clock.now()
    }

    fn clock_advance(&self, d: Secs) {
        self.clock.advance(d);
    }

    fn queries_executed(&self) -> u64 {
        self.queries_executed
    }

    fn queries_completed(&self) -> u64 {
        self.queries_completed
    }

    // ---- configuration ----

    fn apply_knobs(&mut self, config: &Configuration) {
        self.knobs = KnobSet::defaults(self.dbms);
        let mut changed = 0;
        for (name, value) in config.knob_changes() {
            // Parse-time validation guarantees the knob exists.
            if self.knobs.set(name, value).is_ok() {
                changed += 1;
            }
        }
        self.clock.advance(self.model.reconfigure_time(changed));
        obs::counter("dbms.reconfigure", 1);
        self.refresh_fingerprint();
    }

    fn reset_knobs(&mut self) {
        self.knobs = KnobSet::defaults(self.dbms);
        self.clock.advance(self.model.reconfigure_time(0));
        obs::counter("dbms.reconfigure", 1);
        self.refresh_fingerprint();
    }

    fn create_index(&mut self, spec: &IndexSpec) -> (IndexId, Secs) {
        self.create_index_with(spec, |db, index| {
            db.model.index_build_time(index, &db.ctx())
        })
    }

    fn estimate_index_build(&self, spec: &IndexSpec) -> Secs {
        let probe = Index {
            id: IndexId(u32::MAX),
            table: spec.table,
            columns: spec.columns.clone(),
            name: String::new(),
        };
        self.model.index_build_time(&probe, &self.ctx())
    }

    fn drop_index(&mut self, id: IndexId) -> bool {
        let existed = self.indexes.remove(id);
        if existed {
            self.clock.advance(self.model.index_drop_time());
            self.refresh_fingerprint();
        }
        existed
    }

    fn drop_all_indexes(&mut self) {
        let n = self.indexes.len() as f64;
        self.indexes.clear();
        self.clock
            .advance(secs(n * self.model.index_drop_time().as_f64()));
        self.refresh_fingerprint();
    }

    // ---- queries ----

    fn execute(&mut self, query: &Query, timeout: Secs) -> QueryOutcome {
        let tag = query_tag(query);
        let (preds, plan) = self.plan_tagged(tag, query);
        let time = self.model.execution_time(
            &plan,
            &preds,
            &self.ctx(),
            tag,
            self.knob_fingerprint,
            self.exec_counter,
        );
        self.exec_counter += 1;
        self.queries_executed += 1;
        obs::counter("dbms.query_exec", 1);
        if time <= timeout {
            self.clock.advance(time);
            self.queries_completed += 1;
            QueryOutcome {
                completed: true,
                time,
            }
        } else {
            self.clock.advance(timeout);
            obs::counter("dbms.query_timeout", 1);
            QueryOutcome {
                completed: false,
                time: timeout,
            }
        }
    }

    /// Annotates every operator with estimated vs actual rows and its time.
    fn explain_analyze(&mut self, query: &Query) -> (String, QueryOutcome) {
        let (preds, plan) = self.plan(query);
        let profile = self.model.profile(&plan, &preds, &self.ctx());
        let outcome = self.execute(query, lt_common::Secs::INFINITY);
        let mut text = String::new();
        for p in &profile {
            for _ in 0..p.depth {
                text.push_str("  ");
            }
            text.push_str(&format!(
                "{}  (rows est={:.0} actual={:.0}) (time={:.3}s)\n",
                p.op, p.est_rows, p.actual_rows, p.seconds
            ));
        }
        text.push_str(&format!("Execution Time: {:.3}\n", outcome.time));
        (text, outcome)
    }

    fn explain(&self, query: &Query) -> Plan {
        (*self.plan(query).1).clone()
    }

    fn explain_with_indexes(&self, query: &Query, hypothetical: &IndexCatalog) -> Plan {
        self.plan_cache.plan_what_if(
            query,
            &self.catalog,
            &self.knobs,
            self.planner_fp,
            hypothetical,
        )
    }

    fn explain_with_knobs(&self, query: &Query, knobs: &KnobSet) -> Plan {
        let knobs_fp = knobs.planner_fingerprint();
        self.plan_cache
            .plan_what_if(query, &self.catalog, knobs, knobs_fp, &self.indexes)
    }

    fn predicates(&self, query: &Query) -> Arc<QueryPredicates> {
        self.plan_cache.predicates(&self.catalog, query)
    }

    fn cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    fn cache_window_stats(&self) -> CacheStats {
        self.plan_cache.window_stats()
    }

    fn take_cache_window(&self) -> CacheStats {
        self.plan_cache.take_window()
    }
}

/// Stable identifier of a query derived from its text.
pub fn query_tag(query: &Query) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    query.to_string().hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Optimizer;
    use lt_sql::parse_query;

    fn db() -> SimDb {
        let mut c = Catalog::new();
        c.add_table("lineitem", 6_000_000)
            .primary_key("l_orderkey", 8)
            .column("l_shipdate", 4, 2_500.0)
            .column("l_quantity", 8, 50.0)
            .column("l_pad", 100, 100.0)
            .finish();
        c.add_table("orders", 1_500_000)
            .primary_key("o_orderkey", 8)
            .column("o_pad", 60, 100.0)
            .finish();
        SimDb::new(Dbms::Postgres, c, Hardware::p3_2xlarge(), 99)
    }

    #[test]
    fn execute_advances_clock_by_query_time() {
        let mut db = db();
        let q = parse_query("select count(*) from orders").unwrap();
        let before = db.now();
        let out = db.execute(&q, Secs::INFINITY);
        assert!(out.completed);
        assert_eq!(db.now(), before + out.time);
        assert_eq!(db.queries_executed(), 1);
        assert_eq!(db.queries_completed(), 1);
    }

    #[test]
    fn timeout_interrupts_and_charges_timeout_only() {
        let mut db = db();
        let q =
            parse_query("select * from lineitem, orders where l_orderkey = o_orderkey").unwrap();
        let tiny = secs(1e-3);
        let before = db.now();
        let out = db.execute(&q, tiny);
        assert!(!out.completed);
        assert_eq!(out.time, tiny);
        assert_eq!(db.now(), before + tiny);
        assert_eq!(db.queries_completed(), 0);
    }

    #[test]
    fn apply_knobs_charges_reconfiguration_time() {
        let mut db = db();
        let cfg = Configuration::parse(
            "ALTER SYSTEM SET work_mem = '1GB';",
            Dbms::Postgres,
            db.catalog(),
        );
        let before = db.now();
        db.apply_knobs(&cfg);
        assert!(db.now() > before);
        assert_eq!(db.knobs().get_f64("work_mem"), (1u64 << 30) as f64);
    }

    #[test]
    fn create_index_charges_build_time_and_is_idempotent() {
        let mut db = db();
        let spec = IndexSpec {
            table: db.catalog().table_by_name("lineitem").unwrap(),
            columns: vec![db.catalog().resolve_column(None, "l_orderkey").unwrap()],
            name: None,
        };
        let (id1, t1) = db.create_index(&spec);
        assert!(t1 > secs(0.01));
        let (id2, t2) = db.create_index(&spec);
        assert_eq!(id1, id2);
        assert!(t2 <= secs(0.01));
        assert_eq!(db.indexes().len(), 1);
    }

    #[test]
    fn create_index_with_on_an_existing_index_charges_a_lookup_only() {
        let mut db = db();
        let spec = IndexSpec {
            table: db.catalog().table_by_name("orders").unwrap(),
            columns: vec![db.catalog().resolve_column(None, "o_orderkey").unwrap()],
            name: None,
        };
        let (id, t) = db.create_index_with(&spec, |_, _| secs(3.0));
        assert_eq!(t, secs(3.0));
        let before = db.now();
        let (again, t) = db.create_index_with(&spec, |_, _| panic!("built twice"));
        assert_eq!((again, t), (id, secs(0.01)));
        assert_eq!(db.now(), before + secs(0.01));
        assert_eq!(db.indexes().len(), 1);
    }

    #[test]
    fn drop_all_indexes_clears_catalog() {
        let mut db = db();
        let spec = IndexSpec {
            table: db.catalog().table_by_name("orders").unwrap(),
            columns: vec![db.catalog().resolve_column(None, "o_orderkey").unwrap()],
            name: None,
        };
        db.create_index(&spec);
        db.drop_all_indexes();
        assert!(db.indexes().is_empty());
    }

    #[test]
    fn tuned_config_beats_default_on_a_join() {
        let mut db = db();
        let q =
            parse_query("select * from lineitem, orders where l_orderkey = o_orderkey").unwrap();
        let t_default = db.execute(&q, Secs::INFINITY).time;
        let cfg = Configuration::parse(
            "ALTER SYSTEM SET work_mem = '4GB';\n\
             ALTER SYSTEM SET shared_buffers = '15GB';\n\
             ALTER SYSTEM SET max_parallel_workers_per_gather = '4';",
            Dbms::Postgres,
            db.catalog(),
        );
        db.apply_knobs(&cfg);
        let t_tuned = db.execute(&q, Secs::INFINITY).time;
        assert!(
            t_tuned < t_default,
            "tuned {t_tuned} should beat default {t_default}"
        );
    }

    #[test]
    fn explain_is_free() {
        let db = db();
        let q = parse_query("select count(*) from orders").unwrap();
        let before = db.now();
        let plan = db.explain(&q);
        assert!(plan.total_cost() > 0.0);
        assert_eq!(db.now(), before);
    }

    #[test]
    fn unrelated_index_creation_keeps_cached_plans_valid() {
        let mut db = db();
        let q = parse_query("select count(*) from orders").unwrap();
        db.execute(&q, Secs::INFINITY);
        let misses_before = db.cache_stats().plan_misses;
        // Lazy index creation on a table the query never touches (the
        // evaluator does this between tuning rounds) must not invalidate
        // the cached plan.
        let spec = IndexSpec {
            table: db.catalog().table_by_name("lineitem").unwrap(),
            columns: vec![db.catalog().resolve_column(None, "l_shipdate").unwrap()],
            name: None,
        };
        db.create_index(&spec);
        db.execute(&q, Secs::INFINITY);
        let stats = db.cache_stats();
        assert_eq!(stats.plan_misses, misses_before, "plan was re-planned");
        assert!(stats.plan_hits >= 1);
        // An index on the query's own table *does* key a fresh plan.
        let spec = IndexSpec {
            table: db.catalog().table_by_name("orders").unwrap(),
            columns: vec![db.catalog().resolve_column(None, "o_orderkey").unwrap()],
            name: None,
        };
        db.create_index(&spec);
        db.execute(&q, Secs::INFINITY);
        assert_eq!(db.cache_stats().plan_misses, misses_before + 1);
    }

    #[test]
    fn what_if_indexes_change_plans_without_materializing() {
        let db = db();
        let q = parse_query("select * from orders where o_orderkey = 5").unwrap();
        let mut hyp = IndexCatalog::new();
        hyp.add(
            db.catalog().table_by_name("orders").unwrap(),
            vec![db.catalog().resolve_column(None, "o_orderkey").unwrap()],
            None,
        );
        let mut cheap = KnobSet::defaults(Dbms::Postgres);
        cheap.set_text("random_page_cost", "1.1").unwrap();
        cheap.set_text("effective_cache_size", "45GB").unwrap();
        // Compare plan costs with and without the hypothetical index under
        // index-friendly knobs.
        let base = db.explain_with_knobs(&q, &cheap);
        let opt = Optimizer::new(db.catalog(), &cheap, &hyp, 1);
        let with_idx = opt.plan(&q);
        assert!(with_idx.total_cost() < base.total_cost());
        assert!(db.indexes().is_empty());
    }

    #[test]
    fn explain_analyze_reports_est_vs_actual() {
        let mut db = db();
        let q =
            parse_query("select * from lineitem, orders where l_orderkey = o_orderkey").unwrap();
        let (text, outcome) = db.explain_analyze(&q);
        assert!(outcome.completed);
        assert!(text.contains("rows est="), "{text}");
        assert!(text.contains("actual="), "{text}");
        assert!(text.contains("Execution Time"), "{text}");
        // The join node appears with both children indented below it.
        assert!(
            text.contains("Hash Join") || text.contains("Merge Join"),
            "{text}"
        );
    }

    #[test]
    fn reset_knobs_restores_defaults() {
        let mut db = db();
        let cfg = Configuration::parse(
            "ALTER SYSTEM SET work_mem = '1GB';",
            Dbms::Postgres,
            db.catalog(),
        );
        db.apply_knobs(&cfg);
        db.reset_knobs();
        assert!(db.knobs().non_default().is_empty());
    }
}
