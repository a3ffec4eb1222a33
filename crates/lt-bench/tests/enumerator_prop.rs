//! Property suite for the DPccp join enumerator behind
//! `Optimizer::plan_extracted`, checked against the two reference planners:
//! (a) DPccp produces exactly the plan naive all-subsets DP
//!     (`plan_naive_dp`) produces, on random connected *and* disconnected
//!     join graphs,
//! (b) above `DP_ONLY_RELATION_LIMIT` the planner never returns a plan
//!     costlier than greedy's (`plan_greedy`), and on chain, star and
//!     clique graphs DP's plan is strictly cheaper,
//! (c) every benchmark query plans exactly as naive DP plans it,
//! (d) beyond `DP_RELATION_LIMIT` the planner returns greedy's plan.

use lt_common::rng::{seeded_rng, Rng};
use lt_dbms::{
    stats::{extract, FilterKind, FilterTerm, JoinEdge, QueryPredicates},
    Catalog, Dbms, IndexCatalog, KnobSet, Optimizer, DP_ONLY_RELATION_LIMIT, DP_RELATION_LIMIT,
};
use lt_workloads::Benchmark;

/// n-table catalog where table `i` holds `rows(i)` rows, a primary key, and
/// a foreign key toward every other table with `rows / fk_div` distinct
/// values, so arbitrary join graphs resolve.
fn catalog_with(n: usize, rows: impl Fn(usize) -> u64, fk_div: f64) -> Catalog {
    let mut c = Catalog::new();
    for i in 0..n {
        let rows = rows(i);
        let name = format!("t{i}");
        let mut b = c.add_table(&name, rows).primary_key("id", 8);
        for j in 0..n {
            if j != i {
                let fk_name = format!("fk{j}");
                b = b.foreign_key(&fk_name, 8, (rows as f64 / fk_div).max(1.0));
            }
        }
        b.finish();
    }
    c
}

fn test_catalog(n: usize) -> Catalog {
    catalog_with(n, |i| 1_000 + 37_000 * ((i * 7 + 3) % n) as u64, 8.0)
}

fn pk(c: &Catalog, i: usize) -> lt_common::ColumnId {
    c.resolve_column(Some(&format!("t{i}")), "id").unwrap()
}

fn fk(c: &Catalog, i: usize, j: usize) -> lt_common::ColumnId {
    c.resolve_column(Some(&format!("t{i}")), &format!("fk{j}"))
        .unwrap()
}

/// Random join graph over tables `lo..hi`: a random spanning tree plus
/// random extra edges, guaranteeing connectivity within the slice.
fn random_component(c: &Catalog, rng: &mut Rng, lo: usize, hi: usize, joins: &mut Vec<JoinEdge>) {
    for i in lo + 1..hi {
        let j = rng.gen_range(lo..i);
        joins.push(JoinEdge {
            left: fk(c, i, j),
            right: pk(c, j),
        });
    }
    for i in lo..hi {
        for j in lo..i {
            if rng.gen_bool(0.15) {
                joins.push(JoinEdge {
                    left: fk(c, j, i),
                    right: pk(c, i),
                });
            }
        }
    }
}

/// Random predicates: the join graph plus a sprinkle of filters so the
/// memoized selectivity paths get exercised with varied inputs.
fn random_preds(c: &Catalog, rng: &mut Rng, n: usize, components: usize) -> QueryPredicates {
    let mut joins = Vec::new();
    if components <= 1 || n < 2 {
        random_component(c, rng, 0, n, &mut joins);
    } else {
        let cut = rng.gen_range(1..n);
        random_component(c, rng, 0, cut, &mut joins);
        random_component(c, rng, cut, n, &mut joins);
    }
    let mut preds = QueryPredicates {
        tables: (0..n)
            .map(|i| c.table_by_name(&format!("t{i}")).unwrap())
            .collect(),
        joins,
        ..Default::default()
    };
    for i in 0..n {
        if rng.gen_bool(0.4) {
            let kind = *rng
                .choose(&[
                    FilterKind::Equality,
                    FilterKind::Range,
                    FilterKind::InList(4),
                ])
                .unwrap();
            let table = preds.tables[i];
            preds.filters.entry(table).or_default().push(FilterTerm {
                column: pk(c, i),
                kind,
            });
        }
    }
    preds
}

fn optimizer<'a>(c: &'a Catalog, knobs: &'a KnobSet, idx: &'a IndexCatalog) -> Optimizer<'a> {
    Optimizer::new(c, knobs, idx, 42)
}

#[test]
fn dpccp_equals_naive_dp_on_random_graphs() {
    let knobs = KnobSet::defaults(Dbms::Postgres);
    for n in 2..=10usize {
        let c = test_catalog(n);
        let mut idx = IndexCatalog::new();
        for i in 0..n {
            idx.add(
                c.table_by_name(&format!("t{i}")).unwrap(),
                vec![pk(&c, i)],
                None,
            );
        }
        for seed in 0..10u64 {
            for components in [1usize, 2] {
                if components == 2 && n < 2 {
                    continue;
                }
                let mut rng = seeded_rng(seed * 1000 + n as u64);
                let preds = random_preds(&c, &mut rng, n, components);
                let opt = optimizer(&c, &knobs, &idx);
                let a = opt.plan_extracted(&preds);
                let b = opt.plan_naive_dp(&preds);
                assert_eq!(
                    a, b,
                    "DPccp diverged from naive DP (n={n} seed={seed} components={components})"
                );
            }
        }
    }
}

/// Join graph of one shape over every table of `c` (chain: t0–t1–…; star:
/// t0 at the hub; clique: every pair joined).
fn shaped_preds(c: &Catalog, n: usize, shape: &str) -> QueryPredicates {
    let mut joins = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let joined = match shape {
                "chain" => j == i + 1,
                "star" => i == 0,
                _ => true,
            };
            if joined {
                joins.push(JoinEdge {
                    left: fk(c, i, j),
                    right: pk(c, j),
                });
            }
        }
    }
    QueryPredicates {
        tables: (0..n)
            .map(|i| c.table_by_name(&format!("t{i}")).unwrap())
            .collect(),
        joins,
        ..Default::default()
    }
}

#[test]
fn dp_beyond_legacy_limit_never_beats_greedy_on_cost() {
    let knobs = KnobSet::defaults(Dbms::Postgres);
    let idx = IndexCatalog::new();
    for n in (DP_ONLY_RELATION_LIMIT + 1)..=DP_RELATION_LIMIT {
        let c = test_catalog(n);
        for seed in 0..3u64 {
            let mut rng = seeded_rng(seed * 77 + n as u64);
            let preds = random_preds(&c, &mut rng, n, 1);
            let opt = optimizer(&c, &knobs, &idx);
            let dp = opt.plan_extracted(&preds);
            let greedy = opt.plan_greedy(&preds);
            assert!(
                dp.root.est_cost <= greedy.root.est_cost,
                "DP plan costlier than greedy (n={n} seed={seed}): {} > {}",
                dp.root.est_cost,
                greedy.root.est_cost
            );
        }
    }
    for n in [13usize, 15, 17] {
        let c = catalog_with(n, |i| 10_000 + 90_000 * i as u64, 10.0);
        for shape in ["chain", "star", "clique"] {
            let preds = shaped_preds(&c, n, shape);
            let opt = optimizer(&c, &knobs, &idx);
            let dp = opt.plan_extracted(&preds);
            let greedy = opt.plan_greedy(&preds);
            assert!(
                dp.root.est_cost < greedy.root.est_cost,
                "DP plan not cheaper than greedy ({shape} n={n}): {} >= {}",
                dp.root.est_cost,
                greedy.root.est_cost
            );
        }
    }
}

#[test]
fn beyond_the_dp_limit_plans_are_greedy() {
    let knobs = KnobSet::defaults(Dbms::Postgres);
    let idx = IndexCatalog::new();
    let n = DP_RELATION_LIMIT + 1;
    let c = test_catalog(n);
    let preds = random_preds(&c, &mut seeded_rng(n as u64), n, 1);
    let opt = optimizer(&c, &knobs, &idx);
    assert_eq!(opt.plan_extracted(&preds), opt.plan_greedy(&preds));
}

#[test]
fn legacy_limit_plans_match_legacy_enumerator_on_every_bench_query() {
    for bench in Benchmark::all() {
        let w = bench.load();
        let knob_sets = {
            let mut v = vec![KnobSet::defaults(Dbms::Postgres)];
            let mut k = KnobSet::defaults(Dbms::Postgres);
            k.set_text("random_page_cost", "1.1").unwrap();
            k.set_text("effective_cache_size", "45GB").unwrap();
            v.push(k);
            let mut k = KnobSet::defaults(Dbms::Postgres);
            k.set_text("work_mem", "64kB").unwrap();
            v.push(k);
            v
        };
        let mut idx_keys = IndexCatalog::new();
        for col in w.catalog.columns() {
            if col.primary_key || col.foreign_key {
                idx_keys.add(col.table, vec![col.id], None);
            }
        }
        let idx_sets = [IndexCatalog::new(), idx_keys];
        for knobs in &knob_sets {
            for idx in &idx_sets {
                for q in &w.queries {
                    let preds = extract(&q.parsed, &w.catalog);
                    if preds.tables.is_empty() {
                        continue;
                    }
                    // Above the DP-only width the planner may keep greedy's
                    // plan, and naive DP is no longer its exact oracle.
                    assert!(
                        preds.tables.len() <= DP_ONLY_RELATION_LIMIT,
                        "{} {} joins {} relations",
                        bench.name(),
                        q.label,
                        preds.tables.len()
                    );
                    let opt = Optimizer::new(&w.catalog, knobs, idx, 42);
                    assert_eq!(
                        opt.plan_extracted(&preds),
                        opt.plan_naive_dp(&preds),
                        "{} {}: plan differs from naive DP",
                        bench.name(),
                        q.label
                    );
                }
            }
        }
    }
}
