//! Streaming workload profiles: feature-hashed sketches of what a session
//! is actually executing.
//!
//! Each executed query is reduced to a small set of `u64` features:
//!
//! - `t:<table name>` — one per referenced table,
//! - `j:<a.x>=<b.y>` — one per join edge, endpoint names sorted so the
//!   edge hashes identically regardless of parse order,
//! - `f:<t.col>:<shape>` — one per filter term: the predicate histogram's
//!   axis (which column is filtered, with which shape — equality, range,
//!   `IN`, …),
//! - `s:<bucket>` — the query's estimated filter selectivity (product of
//!   per-table estimates from [`lt_dbms::stats::Estimator`]) bucketed on
//!   a log₂ scale.
//!
//! Features hash *names*, not catalog ids, so profiles from different
//! catalogs (a TPC-H session suddenly receiving TPC-DS queries) land in
//! one comparable space. A [`Profile`] is a multiset of those features —
//! a frequency vector — with counts in a `BTreeMap` so that iteration
//! order, and therefore every floating-point divergence sum downstream,
//! is deterministic.

use lt_common::{hash_one, Secs};
use lt_dbms::stats::{Estimator, FilterKind, QueryPredicates};
use lt_dbms::Catalog;
use lt_workloads::Workload;
use std::collections::BTreeMap;

/// Deepest selectivity bucket: anything rarer than 2⁻⁴⁰ saturates here.
const MAX_SELECTIVITY_BUCKET: i64 = 40;

/// One executed query, reduced to the drift monitor's inputs.
#[derive(Debug, Clone)]
pub struct QueryObservation {
    /// Hashed features; see the module docs.
    pub features: Vec<u64>,
    /// Query fingerprint (`lt_dbms::db::query_tag`) identifying repeats of
    /// the same statement for per-query latency baselines.
    pub tag: u64,
    /// Virtual execution latency.
    pub latency: Secs,
    /// Whether the plan was served from the plan cache, when known.
    pub plan_cache_hit: Option<bool>,
}

impl QueryObservation {
    /// Builds the observation for one executed query.
    pub fn new(
        catalog: &Catalog,
        preds: &QueryPredicates,
        tag: u64,
        latency: Secs,
        plan_cache_hit: Option<bool>,
    ) -> QueryObservation {
        QueryObservation {
            features: features(catalog, preds),
            tag,
            latency,
            plan_cache_hit,
        }
    }
}

/// Hashes one query's predicate analysis into profile features.
pub fn features(catalog: &Catalog, preds: &QueryPredicates) -> Vec<u64> {
    feature_labels(catalog, preds)
        .iter()
        .map(hash_one)
        .collect()
}

/// The human-readable label strings behind [`features`] (each feature is
/// exactly `hash_one` of its label, in the same order). The delta-prompt
/// builder works on labels — it must name tables and joins to the LLM,
/// which a hash cannot — while the monitor's profiles stay hashed.
pub fn feature_labels(catalog: &Catalog, preds: &QueryPredicates) -> Vec<String> {
    let mut out = Vec::with_capacity(preds.tables.len() + preds.joins.len() + 1);
    for &table in &preds.tables {
        out.push(format!("t:{}", catalog.table(table).name));
    }
    for join in &preds.joins {
        let name = |col| {
            let c = catalog.column(col);
            format!("{}.{}", catalog.table(c.table).name, c.name)
        };
        let (mut a, mut b) = (name(join.left), name(join.right));
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        out.push(format!("j:{a}={b}"));
    }
    for (table, terms) in &preds.filters {
        let table = &catalog.table(*table).name;
        for term in terms {
            let column = &catalog.column(term.column).name;
            out.push(format!("f:{table}.{column}:{}", filter_shape(term.kind)));
        }
    }
    out.push(format!("s:{}", selectivity_bucket(catalog, preds)));
    out
}

/// Stable name of a filter shape — the predicate histogram's axis. `IN`
/// lists collapse to one shape regardless of length, so a drifting list
/// size alone does not move the frequency vector.
fn filter_shape(kind: FilterKind) -> &'static str {
    match kind {
        FilterKind::Equality => "eq",
        FilterKind::Inequality => "ne",
        FilterKind::Range => "range",
        FilterKind::Between => "between",
        FilterKind::LikePrefix => "like_prefix",
        FilterKind::LikeContains => "like_contains",
        FilterKind::InList(_) => "in_list",
        FilterKind::IsNull => "is_null",
        FilterKind::IsNotNull => "is_not_null",
        FilterKind::SemiJoin => "semi_join",
        FilterKind::AntiJoin => "anti_join",
    }
}

/// Log₂ bucket of the query's estimated combined filter selectivity.
/// Estimation is seeded with 0: the bucket must depend only on the query
/// shape and schema statistics, never on a session's noise seed.
fn selectivity_bucket(catalog: &Catalog, preds: &QueryPredicates) -> i64 {
    let est = Estimator::new(catalog, 0);
    let mut selectivity = 1.0f64;
    for terms in preds.filters.values() {
        selectivity *= est.estimated_table_selectivity(terms);
    }
    if selectivity <= 0.0 {
        return MAX_SELECTIVITY_BUCKET;
    }
    (-selectivity.log2())
        .floor()
        .clamp(0.0, MAX_SELECTIVITY_BUCKET as f64) as i64
}

/// A frequency vector over hashed features; see the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Profile {
    /// Empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Reference profile of a tuning workload: every query counted once.
    pub fn from_workload(catalog: &Catalog, workload: &Workload) -> Profile {
        let mut p = Profile::new();
        for q in &workload.queries {
            p.add(&features(
                catalog,
                &lt_dbms::stats::extract(&q.parsed, catalog),
            ));
        }
        p
    }

    /// Counts one query's features into the profile.
    pub fn add(&mut self, features: &[u64]) {
        for &f in features {
            *self.counts.entry(f).or_insert(0) += 1;
        }
        self.total += features.len() as u64;
    }

    /// Removes one query's features (sliding-window eviction). Counts
    /// never go negative: removing features that were never added is a
    /// logic error upstream and saturates at zero.
    pub fn remove(&mut self, features: &[u64]) {
        for &f in features {
            if let Some(c) = self.counts.get_mut(&f) {
                *c -= 1;
                self.total -= 1;
                if *c == 0 {
                    self.counts.remove(&f);
                }
            }
        }
    }

    /// Total feature count (multiset size).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct features.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// True when nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Jensen–Shannon divergence (base 2, in `[0, 1]`) between the two
    /// normalized frequency vectors. Symmetric, finite even for disjoint
    /// supports, and deterministic: both maps iterate in sorted key order,
    /// so the summation order never depends on insertion history.
    pub fn jensen_shannon(&self, other: &Profile) -> f64 {
        if self.is_empty() || other.is_empty() {
            return if self.is_empty() && other.is_empty() {
                0.0
            } else {
                1.0
            };
        }
        let mut iter_a = self.counts.iter().peekable();
        let mut iter_b = other.counts.iter().peekable();
        let (na, nb) = (self.total as f64, other.total as f64);
        let mut sum = 0.0;
        let mut term = |p: f64, q: f64| {
            let m = 0.5 * (p + q);
            if p > 0.0 {
                sum += 0.5 * p * (p / m).log2();
            }
            if q > 0.0 {
                sum += 0.5 * q * (q / m).log2();
            }
        };
        loop {
            match (iter_a.peek(), iter_b.peek()) {
                (Some(&(ka, &ca)), Some(&(kb, &cb))) => {
                    if ka < kb {
                        term(ca as f64 / na, 0.0);
                        iter_a.next();
                    } else if kb < ka {
                        term(0.0, cb as f64 / nb);
                        iter_b.next();
                    } else {
                        term(ca as f64 / na, cb as f64 / nb);
                        iter_a.next();
                        iter_b.next();
                    }
                }
                (Some(&(_, &ca)), None) => {
                    term(ca as f64 / na, 0.0);
                    iter_a.next();
                }
                (None, Some(&(_, &cb))) => {
                    term(0.0, cb as f64 / nb);
                    iter_b.next();
                }
                (None, None) => break,
            }
        }
        // Clamp the accumulated rounding error back into the JSD range.
        sum.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_dbms::stats::extract;
    use lt_workloads::Benchmark;

    #[test]
    fn jsd_is_zero_on_identical_and_one_on_disjoint() {
        let mut a = Profile::new();
        a.add(&[1, 2, 3]);
        assert_eq!(a.jensen_shannon(&a.clone()), 0.0);
        let mut b = Profile::new();
        b.add(&[4, 5, 6]);
        assert!((a.jensen_shannon(&b) - 1.0).abs() < 1e-12);
        // Symmetry.
        assert_eq!(a.jensen_shannon(&b), b.jensen_shannon(&a));
    }

    #[test]
    fn add_then_remove_restores_the_profile() {
        let mut p = Profile::new();
        p.add(&[1, 1, 2]);
        let snapshot = p.clone();
        p.add(&[2, 3]);
        p.remove(&[2, 3]);
        assert_eq!(p, snapshot);
        assert_eq!(p.total(), 3);
        assert_eq!(p.distinct(), 2);
    }

    #[test]
    fn features_hash_names_not_ids() {
        // The same query shape on SF-1 and SF-10 catalogs (identical names,
        // different stats scale) must produce identical table/join features.
        let sf1 = Benchmark::TpchSf1.load();
        let sf10 = Benchmark::TpchSf10.load();
        let q = sf1.by_label("q3").expect("q3 exists");
        let f1 = features(&sf1.catalog, &extract(&q.parsed, &sf1.catalog));
        let f10 = features(&sf10.catalog, &extract(&q.parsed, &sf10.catalog));
        // All but the (stats-dependent) selectivity bucket must agree.
        assert_eq!(f1[..f1.len() - 1], f10[..f10.len() - 1]);
    }

    #[test]
    fn tpch_and_tpcds_reference_profiles_diverge() {
        let tpch = Benchmark::TpchSf1.load();
        let tpcds = Benchmark::TpcdsSf1.load();
        let a = Profile::from_workload(&tpch.catalog, &tpch);
        let b = Profile::from_workload(&tpcds.catalog, &tpcds);
        let d = a.jensen_shannon(&b);
        assert!(d > 0.5, "cross-benchmark divergence {d} too low");
        assert!(a.jensen_shannon(&a.clone()) < 1e-12);
    }
}
