//! Planner micro-benchmark: old (naive all-subsets DP) vs new (DPccp)
//! join enumerator, timed per benchmark and bucketed by relation count.
//!
//! Writes `results/BENCH_planner.json` — the repo's committed perf
//! baseline for plan construction. `--smoke` runs one repetition per
//! query and writes to `results/BENCH_planner.smoke.json` instead, so a
//! CI pass never clobbers the committed numbers with noisy timings.
//!
//! For queries beyond the legacy relation limit (n > 13) the old planner
//! never ran DP at all, so alongside the timings the report records the
//! join-cost evidence the re-baselined results rely on: the DPccp plan's
//! estimated cost next to the greedy plan's on every such query.

use lt_bench::{base_seed, smoke_arg, write_results};
use lt_common::json;
use lt_dbms::{
    stats::{extract, JoinEdge, QueryPredicates},
    Catalog, Dbms, IndexCatalog, JoinEnumerator, KnobSet, Optimizer, LEGACY_DP_RELATION_LIMIT,
};
use lt_workloads::Benchmark;
use std::time::Instant;

/// Per-query measurement for one enumerator.
struct Sample {
    relations: usize,
    mean_ns: f64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

fn time_enumerator(
    opt: &Optimizer,
    queries: &[(String, lt_dbms::stats::QueryPredicates)],
    enumerator: JoinEnumerator,
    reps: usize,
) -> Vec<Sample> {
    queries
        .iter()
        .map(|(_, preds)| {
            let start = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(opt.plan_extracted_with(preds, enumerator));
            }
            Sample {
                relations: preds.tables.len(),
                mean_ns: start.elapsed().as_nanos() as f64 / reps as f64,
            }
        })
        .collect()
}

fn bucket_stats(samples: &[Sample], relations: usize) -> Option<json::Value> {
    let mut us: Vec<f64> = samples
        .iter()
        .filter(|s| s.relations == relations)
        .map(|s| s.mean_ns / 1e3)
        .collect();
    if us.is_empty() {
        return None;
    }
    us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total_s: f64 = us.iter().sum::<f64>() / 1e6;
    Some(json!({
        "plans_per_sec": us.len() as f64 / total_s,
        "p50_us": percentile(&us, 0.50),
        "p95_us": percentile(&us, 0.95),
    }))
}

/// Builds an n-table catalog and a join graph of the given shape over it
/// (chain: t0–t1–…; star: t0 at the hub; clique: every pair joined).
fn synthetic_graph(shape: &str, n: usize) -> (Catalog, QueryPredicates) {
    let mut c = Catalog::new();
    for i in 0..n {
        let rows = 10_000 + 90_000 * i as u64;
        let name = format!("t{i}");
        let mut b = c.add_table(&name, rows).primary_key("id", 8);
        for j in 0..n {
            if j != i {
                let fk_name = format!("fk{j}");
                b = b.foreign_key(&fk_name, 8, (rows as f64 / 10.0).max(1.0));
            }
        }
        b.finish();
    }
    let pk = |c: &Catalog, i: usize| c.resolve_column(Some(&format!("t{i}")), "id").unwrap();
    let fk = |c: &Catalog, i: usize, j: usize| {
        c.resolve_column(Some(&format!("t{i}")), &format!("fk{j}"))
            .unwrap()
    };
    let mut joins = Vec::new();
    match shape {
        "chain" => {
            for i in 0..n - 1 {
                joins.push(JoinEdge {
                    left: fk(&c, i, i + 1),
                    right: pk(&c, i + 1),
                });
            }
        }
        "star" => {
            for i in 1..n {
                joins.push(JoinEdge {
                    left: fk(&c, 0, i),
                    right: pk(&c, i),
                });
            }
        }
        "clique" => {
            for i in 0..n {
                for j in i + 1..n {
                    joins.push(JoinEdge {
                        left: fk(&c, i, j),
                        right: pk(&c, j),
                    });
                }
            }
        }
        other => panic!("unknown shape {other}"),
    }
    let tables = (0..n)
        .map(|i| c.table_by_name(&format!("t{i}")).unwrap())
        .collect();
    let preds = QueryPredicates {
        tables,
        joins,
        ..Default::default()
    };
    (c, preds)
}

fn main() {
    let smoke = smoke_arg();
    let reps = if smoke { 1 } else { 5 };
    let seed = base_seed();
    println!("Planner micro-benchmark: naive all-subsets DP (old) vs DPccp (new)");
    println!("(per-query plan construction, {reps} rep(s), seed {seed})\n");

    let mut benches = Vec::new();
    for bench in Benchmark::all() {
        let w = bench.load();
        let knobs = KnobSet::defaults(Dbms::Postgres);
        // Scenario-1-style physical design: single-column index on every
        // primary/foreign key, so index-nested-loop paths participate.
        let mut idx = IndexCatalog::new();
        for col in w.catalog.columns() {
            if col.primary_key || col.foreign_key {
                idx.add(col.table, vec![col.id], None);
            }
        }
        let opt = Optimizer::new(&w.catalog, &knobs, &idx, seed);
        let queries: Vec<(String, lt_dbms::stats::QueryPredicates)> = w
            .queries
            .iter()
            .map(|q| (q.label.clone(), extract(&q.parsed, &w.catalog)))
            .filter(|(_, p)| !p.tables.is_empty())
            .collect();

        // Old = the pre-DPccp planner: naive DP to 13 relations, greedy
        // beyond. New = DPccp to the current default limit, greedy beyond.
        let old = time_enumerator(&opt, &queries, JoinEnumerator::Legacy, reps);
        let new = time_enumerator(&opt, &queries, JoinEnumerator::Auto, reps);

        println!("== {} ({} queries) ==", bench.name(), queries.len());
        println!("  rels | queries | old p50/p95 [µs] | new p50/p95 [µs] | speedup(p50)");
        let mut rel_counts: Vec<usize> = queries.iter().map(|(_, p)| p.tables.len()).collect();
        rel_counts.sort_unstable();
        rel_counts.dedup();
        let mut buckets = Vec::new();
        for &n in &rel_counts {
            let (Some(o), Some(nw)) = (bucket_stats(&old, n), bucket_stats(&new, n)) else {
                continue;
            };
            let count = queries.iter().filter(|(_, p)| p.tables.len() == n).count();
            let (op50, op95) = (
                o.get("p50_us").unwrap().as_f64().unwrap(),
                o.get("p95_us").unwrap().as_f64().unwrap(),
            );
            let (np50, np95) = (
                nw.get("p50_us").unwrap().as_f64().unwrap(),
                nw.get("p95_us").unwrap().as_f64().unwrap(),
            );
            println!(
                "  {n:>4} | {count:>7} | {:>8.1}/{:>8.1} | {:>8.1}/{:>8.1} | {:>6.2}x",
                op50,
                op95,
                np50,
                np95,
                if np50 > 0.0 { op50 / np50 } else { 0.0 },
            );
            buckets.push(json!({
                "relations": n,
                "queries": count,
                "old": o,
                "new": nw,
            }));
        }

        // Join-cost evidence for the raised limit: every query the old
        // planner handed to greedy but the new default plans with full DP.
        let mut large = Vec::new();
        for (label, preds) in &queries {
            let n = preds.tables.len();
            if n <= LEGACY_DP_RELATION_LIMIT {
                continue;
            }
            let dp = opt.plan_extracted_with(preds, JoinEnumerator::Auto);
            let greedy = opt.plan_extracted_with(preds, JoinEnumerator::Greedy);
            let dp_cost = dp.root.est_cost;
            let greedy_cost = greedy.root.est_cost;
            if dp_cost > greedy_cost {
                eprintln!(
                    "warning: DP plan costlier than greedy on {label} ({dp_cost} > {greedy_cost})"
                );
            }
            println!(
                "  {label}: n={n} dp_cost={dp_cost:.0} greedy_cost={greedy_cost:.0} ({:.3}x)",
                dp_cost / greedy_cost
            );
            large.push(json!({
                "query": label.as_str(),
                "relations": n,
                "dp_cost": dp_cost,
                "greedy_cost": greedy_cost,
            }));
        }
        println!();

        benches.push(json!({
            "benchmark": bench.name(),
            "queries": queries.len(),
            "buckets": buckets,
            "beyond_legacy_limit": large,
        }));
    }

    // No benchmark query in this repro exceeds the legacy limit (our JOB
    // uses the single-alias family variants, capping at 12 relations), so
    // synthetic chain/star/clique graphs at n = 13…17 demonstrate what the
    // raised default buys: full DP where the old planner fell back to
    // greedy, at microsecond-scale planning times.
    println!("== synthetic join graphs (n beyond the benchmarks) ==");
    println!("  shape  |  n | old [µs] | new [µs] | dp_cost/greedy_cost");
    let mut synthetic = Vec::new();
    for &n in &[13usize, 15, 17] {
        for shape in ["chain", "star", "clique"] {
            let (catalog, preds) = synthetic_graph(shape, n);
            let idx = IndexCatalog::new();
            let knobs = KnobSet::defaults(Dbms::Postgres);
            let opt = Optimizer::new(&catalog, &knobs, &idx, seed);
            let qs = vec![(format!("{shape}-{n}"), preds)];
            let old = time_enumerator(&opt, &qs, JoinEnumerator::Legacy, reps);
            let new = time_enumerator(&opt, &qs, JoinEnumerator::Auto, reps);
            let dp = opt.plan_extracted_with(&qs[0].1, JoinEnumerator::Auto);
            let greedy = opt.plan_extracted_with(&qs[0].1, JoinEnumerator::Greedy);
            let ratio = dp.root.est_cost / greedy.root.est_cost;
            println!(
                "  {shape:<6} | {n:>2} | {:>8.1} | {:>8.1} | {ratio:.3}",
                old[0].mean_ns / 1e3,
                new[0].mean_ns / 1e3,
            );
            synthetic.push(json!({
                "shape": shape,
                "relations": n,
                "old_us": old[0].mean_ns / 1e3,
                "new_us": new[0].mean_ns / 1e3,
                "dp_cost": dp.root.est_cost,
                "greedy_cost": greedy.root.est_cost,
            }));
        }
    }
    println!();

    let file = if smoke {
        "BENCH_planner.smoke.json"
    } else {
        "BENCH_planner.json"
    };
    write_results(
        file,
        &json!({
            "bench": "planner",
            "reps": reps as f64,
            "seed": seed as f64,
            "legacy_dp_limit": LEGACY_DP_RELATION_LIMIT as f64,
            "benchmarks": benches,
            "synthetic": synthetic,
        }),
    );
    println!("written to results/{file}");
}
