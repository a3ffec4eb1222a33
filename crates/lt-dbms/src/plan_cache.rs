//! Memoized planning for [`SimDb`](crate::SimDb), and so for lt-store's
//! `StoreDb`, which plans through an embedded `SimDb`.
//!
//! Planning is pure: the chosen plan depends only on (catalog, statistics
//! seed, query, planner-relevant knobs, index set). λ-Tune's selector
//! re-executes the same (configuration, query) pairs across its
//! geometric-timeout rounds and the benchmark matrix replays whole workloads
//! per configuration, so the same planning work used to be redone thousands
//! of times per run. [`PlanCache`] memoizes both the Selinger planning result
//! and the per-query predicate extraction, and is the one place either
//! backend plans through.
//!
//! Session-local entries are keyed by [`PlanKey`] — (query fingerprint,
//! planner-knob fingerprint, index-catalog fingerprint) — so mutations
//! invalidate by *changing the key* rather than by flushing: applying knobs
//! or creating / dropping an index moves the respective fingerprint (see
//! `KnobSet::planner_fingerprint` and `IndexCatalog::fingerprint`, whose
//! epoch bumps on every mutation), while returning to a previously seen
//! configuration re-hits the old entries, which is exactly the selector's
//! access pattern.
//!
//! Interior mutability keeps the read paths usable from `&self` methods
//! (`explain`, what-if planning).

use crate::catalog::Catalog;
use crate::db::query_tag;
use crate::knobs::KnobSet;
use crate::optimizer::Optimizer;
use crate::physical::IndexCatalog;
use crate::plan::Plan;
use crate::stats::{extract, QueryPredicates};
use lt_common::lru::{Counters, Memo};
use lt_common::Fingerprint;
use lt_sql::ast::Query;
use std::sync::{Arc, Mutex};

/// Bound on cached plans (and predicate sets) per session. Sized to hold
/// every (query, configuration) pair a full benchmark-matrix selector run
/// touches with room to spare; under fleet load many sessions live in one
/// process, so each still needs a ceiling.
const PLAN_CAP: usize = 65_536;

/// Cache key: the complete planning context of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Fingerprint of the query text.
    pub query: u64,
    /// `KnobSet::planner_fingerprint()` of the knobs planned under.
    pub knobs: Fingerprint,
    /// `IndexCatalog::fingerprint()` of the index set planned against.
    pub indexes: Fingerprint,
}

/// Hit/miss counters, snapshot via [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plans served from the cache.
    pub plan_hits: u64,
    /// Plans computed by the optimizer.
    pub plan_misses: u64,
    /// Predicate extractions served from the cache.
    pub extract_hits: u64,
    /// Predicate extractions computed from the AST.
    pub extract_misses: u64,
}

impl CacheStats {
    /// Fraction of planning calls answered from the cache (0 when idle).
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }

    fn since(self, start: CacheStats) -> CacheStats {
        CacheStats {
            plan_hits: self.plan_hits - start.plan_hits,
            plan_misses: self.plan_misses - start.plan_misses,
            extract_hits: self.extract_hits - start.extract_hits,
            extract_misses: self.extract_misses - start.extract_misses,
        }
    }
}

/// Memoizes planning and predicate extraction (see module docs).
#[derive(Debug)]
pub struct PlanCache {
    /// Fingerprint of the catalog this session plans against.
    catalog_fp: Fingerprint,
    /// Statistics seed of the session's execution model.
    stats_seed: u64,
    plans: Memo<PlanKey, Arc<Plan>>,
    predicates: Memo<u64, Arc<QueryPredicates>>,
    /// Cumulative counters when the current window began. Drift detection
    /// needs a *recent* hit rate — a collapse is invisible in cumulative
    /// counters once they are large.
    window_start: Mutex<CacheStats>,
}

impl PlanCache {
    /// Empty cache for a session planning against the catalog
    /// fingerprinted as `catalog_fp` with statistics seed `stats_seed`.
    pub fn new(catalog_fp: Fingerprint, stats_seed: u64) -> Self {
        Self::with_cap(catalog_fp, stats_seed, PLAN_CAP)
    }

    /// [`PlanCache::new`] bounded to `cap` plans/predicate sets. Used by
    /// tests that exercise eviction.
    pub fn with_cap(catalog_fp: Fingerprint, stats_seed: u64, cap: usize) -> Self {
        PlanCache {
            catalog_fp,
            stats_seed,
            plans: Memo::new(
                cap,
                Counters {
                    hit: "dbms.plan_cache.hit",
                    miss: "dbms.plan_cache.miss",
                    evict: "dbms.plan_cache.evict",
                },
            ),
            predicates: Memo::new(
                cap,
                Counters {
                    hit: "dbms.extract_cache.hit",
                    miss: "dbms.extract_cache.miss",
                    evict: "dbms.extract_cache.evict",
                },
            ),
            window_start: Mutex::default(),
        }
    }

    /// Fingerprint of the catalog this cache plans against.
    pub fn catalog_fingerprint(&self) -> Fingerprint {
        self.catalog_fp
    }

    /// Extracted predicates of `query`. Extraction depends only on the
    /// query and the (immutable) schema catalog, so the query fingerprint
    /// alone keys the entry.
    pub fn predicates(&self, catalog: &Catalog, query: &Query) -> Arc<QueryPredicates> {
        self.predicates_of(query_tag(query), catalog, query)
    }

    fn predicates_of(&self, tag: u64, catalog: &Catalog, query: &Query) -> Arc<QueryPredicates> {
        self.predicates
            .get_or_insert_with(tag, || Arc::new(extract(query, catalog)))
    }

    /// Plans `query` (fingerprinted as `tag`, see
    /// [`query_tag`](crate::db::query_tag)) under `knobs` and `indexes`,
    /// through the session cache. `knobs_fp` is
    /// `knobs.planner_fingerprint()`, which targets keep precomputed so the
    /// hot execute path doesn't rehash the knob set.
    ///
    /// The index component of the key is the canonical fingerprint of the
    /// indexes on *this query's tables* only: creating an index on an
    /// unrelated table (the evaluator builds indexes lazily between tuning
    /// rounds) leaves every other query's cached plan valid.
    pub fn plan(
        &self,
        tag: u64,
        query: &Query,
        catalog: &Catalog,
        knobs: &KnobSet,
        knobs_fp: Fingerprint,
        indexes: &IndexCatalog,
    ) -> (Arc<QueryPredicates>, Arc<Plan>) {
        let preds = self.predicates_of(tag, catalog, query);
        let key = PlanKey {
            query: tag,
            knobs: knobs_fp,
            indexes: indexes.fingerprint_for_tables(&preds.tables),
        };
        let plan = self.plans.get_or_insert_with(key, || {
            Arc::new(
                Optimizer::new(catalog, knobs, indexes, self.stats_seed).plan_extracted(&preds),
            )
        });
        (preds, plan)
    }

    /// Plans `query` as if `knobs` (fingerprinted as `knobs_fp`) and
    /// `indexes` were in force — what-if planning, nothing is applied.
    /// Memoized like [`PlanCache::plan`].
    pub fn plan_what_if(
        &self,
        query: &Query,
        catalog: &Catalog,
        knobs: &KnobSet,
        knobs_fp: Fingerprint,
        indexes: &IndexCatalog,
    ) -> Plan {
        let (_, plan) = self.plan(query_tag(query), query, catalog, knobs, knobs_fp, indexes);
        (*plan).clone()
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            plan_hits: self.plans.hits(),
            plan_misses: self.plans.misses(),
            extract_hits: self.predicates.hits(),
            extract_misses: self.predicates.misses(),
        }
    }

    /// Counters accumulated since the last [`PlanCache::take_window`] (or
    /// since construction).
    pub fn window_stats(&self) -> CacheStats {
        let start = *lt_common::lock(&self.window_start);
        self.stats().since(start)
    }

    /// Returns the windowed counters and starts the next window. The
    /// cumulative counters are unaffected.
    pub fn take_window(&self) -> CacheStats {
        let mut start = lt_common::lock(&self.window_start);
        let now = self.stats();
        now.since(std::mem::replace(&mut *start, now))
    }

    /// Number of distinct plans currently cached.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plan has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanNode, PlanOp};
    use lt_common::TableId;

    fn leaf(cost: f64) -> Plan {
        Plan {
            root: PlanNode::leaf(
                PlanOp::SeqScan {
                    table: TableId(0),
                    selectivity: 1.0,
                },
                1.0,
                cost,
                8.0,
            ),
            join_costs: Vec::new(),
        }
    }

    fn plan_or_insert(
        cache: &PlanCache,
        key: PlanKey,
        plan_fn: impl FnOnce() -> Plan,
    ) -> Arc<Plan> {
        cache.plans.get_or_insert_with(key, || Arc::new(plan_fn()))
    }

    fn predicates_or_insert(
        cache: &PlanCache,
        query: u64,
        extract_fn: impl FnOnce() -> QueryPredicates,
    ) -> Arc<QueryPredicates> {
        cache
            .predicates
            .get_or_insert_with(query, || Arc::new(extract_fn()))
    }

    fn key(q: u64, k: u64, i: u64) -> PlanKey {
        PlanKey {
            query: q,
            knobs: Fingerprint(k),
            indexes: Fingerprint(i),
        }
    }

    #[test]
    fn hit_returns_cached_plan_without_replanning() {
        let cache = PlanCache::new(Fingerprint(0), 0);
        let a = plan_or_insert(&cache, key(1, 2, 3), || leaf(10.0));
        let b = plan_or_insert(&cache, key(1, 2, 3), || panic!("must not replan"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.plan_hits, s.plan_misses), (1, 1));
        assert!((s.plan_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn any_key_component_change_is_a_miss() {
        let cache = PlanCache::new(Fingerprint(0), 0);
        plan_or_insert(&cache, key(1, 2, 3), || leaf(1.0));
        plan_or_insert(&cache, key(9, 2, 3), || leaf(2.0));
        plan_or_insert(&cache, key(1, 9, 3), || leaf(3.0));
        plan_or_insert(&cache, key(1, 2, 9), || leaf(4.0));
        assert_eq!(cache.stats().plan_misses, 4);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn predicate_extraction_is_memoized_per_query() {
        let cache = PlanCache::new(Fingerprint(0), 0);
        let a = predicates_or_insert(&cache, 7, QueryPredicates::default);
        let b = predicates_or_insert(&cache, 7, || panic!("must not re-extract"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.extract_hits, s.extract_misses), (1, 1));
    }

    #[test]
    fn take_window_resets_window_but_not_cumulative() {
        let cache = PlanCache::new(Fingerprint(0), 0);
        plan_or_insert(&cache, key(1, 2, 3), || leaf(1.0));
        plan_or_insert(&cache, key(1, 2, 3), || leaf(1.0));
        predicates_or_insert(&cache, 7, QueryPredicates::default);
        let w = cache.take_window();
        assert_eq!((w.plan_hits, w.plan_misses), (1, 1));
        assert_eq!((w.extract_hits, w.extract_misses), (0, 1));
        // The window restarts empty; cumulative counters keep the history.
        assert_eq!(cache.window_stats(), CacheStats::default());
        assert_eq!(cache.stats().plan_hits, 1);
        assert_eq!(cache.stats().plan_misses, 1);
        // A hit in the next window shows up in both views again.
        plan_or_insert(&cache, key(1, 2, 3), || panic!("must not replan"));
        assert_eq!(cache.window_stats().plan_hits, 1);
        assert_eq!(cache.stats().plan_hits, 2);
    }

    #[test]
    fn cap_bounds_cached_plans_and_evicts_coldest() {
        let cache = PlanCache::with_cap(Fingerprint(0), 0, 2);
        plan_or_insert(&cache, key(1, 0, 0), || leaf(1.0));
        plan_or_insert(&cache, key(2, 0, 0), || leaf(2.0));
        plan_or_insert(&cache, key(1, 0, 0), || panic!("must not replan")); // refresh 1
        plan_or_insert(&cache, key(3, 0, 0), || leaf(3.0)); // evicts 2
        assert_eq!(cache.len(), 2);
        plan_or_insert(&cache, key(2, 0, 0), || leaf(2.0)); // re-planned: was evicted
        assert_eq!(cache.stats().plan_misses, 4);
    }

    #[test]
    fn empty_cache_reports_zero_rate() {
        let cache = PlanCache::new(Fingerprint(0), 0);
        assert_eq!(cache.stats().plan_hit_rate(), 0.0);
        assert!(cache.is_empty());
    }
}
