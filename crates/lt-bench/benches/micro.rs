//! Micro-benchmarks backing the design choices DESIGN.md calls out: ILP
//! compression solve times, the DP scheduler's exponential growth (and why
//! §5.4 caps it at 13), k-means clustering, optimizer planning throughput,
//! and the plan cache's effect on repeated planning.
//!
//! Plain `std::time::Instant` timing (the workspace builds with zero
//! external crates): each case runs a few warmup iterations, then reports
//! the mean over timed iterations; the cold ILP cases time one solve each
//! and print its branch-and-bound node count.
//!
//! Usage: `cargo bench -p lt-bench` or
//! `cargo run --release -p lt-bench --bin` is *not* needed — this is the
//! `micro` bench target (`harness = false`).

use lambda_tune::{cluster_queries, extract_snippets, find_optimal_order, Compressor};
use lt_common::derive_seed;
use lt_dbms::{Dbms, Hardware, IndexCatalog, KnobSet, Optimizer, SimDb, TuningTarget};
use lt_workloads::Benchmark;
use std::hint::black_box;
use std::time::Instant;

/// Times `f` over `iters` iterations after `warmup` untimed ones and
/// prints the mean per-iteration time.
fn bench(name: &str, warmup: usize, iters: usize, mut f: impl FnMut()) {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed().as_secs_f64() / iters as f64;
    let (value, unit) = if per_iter >= 1e-3 {
        (per_iter * 1e3, "ms")
    } else {
        (per_iter * 1e6, "µs")
    };
    println!("{name:<44} {value:>10.2} {unit}/iter  ({iters} iters)");
}

fn bench_ilp_compression() {
    use lt_common::obs;
    // Node counts come from the solver's `ilp.nodes` counter.
    obs::set_enabled(true);
    for (slug, benchmark, budgets) in [
        ("job", Benchmark::Job, &[100usize, 300, 800, 8000][..]),
        ("tpcds", Benchmark::TpcdsSf1, &[8000][..]),
    ] {
        let workload = benchmark.load();
        let db = SimDb::new(
            Dbms::Postgres,
            workload.catalog.clone(),
            Hardware::p3_2xlarge(),
            1,
        );
        let snippets = extract_snippets(&db, &workload);
        let compressor = Compressor::new(&workload.catalog);
        // The compression memo is process-wide and keyed by budget, so only
        // the first call per budget solves; time exactly that call. 8000 is
        // the default budget (context window / 16).
        for &budget in budgets {
            obs::reset();
            bench(
                &format!("ilp_compression_{slug}/{budget}/cold"),
                0,
                1,
                || {
                    black_box(compressor.compress(black_box(&snippets), budget).unwrap());
                },
            );
            let nodes = obs::snapshot()
                .counters
                .iter()
                .find(|(n, _)| *n == "ilp.nodes")
                .map_or(0, |(_, v)| *v);
            println!("    branch-and-bound nodes: {nodes}");
        }
    }
    obs::reset();
    obs::set_enabled(false);
}

fn bench_dp_scheduler() {
    for n in [6usize, 9, 11, 13] {
        let items: Vec<Vec<usize>> = (0..n).map(|i| vec![i % 5, (i + 2) % 5]).collect();
        let costs: Vec<f64> = (0..5).map(|i| 1.0 + i as f64).collect();
        bench(&format!("dp_scheduler/{n}"), 2, 10, || {
            black_box(find_optimal_order(black_box(&items), black_box(&costs)));
        });
    }
}

fn bench_clustering() {
    let items: Vec<Vec<usize>> = (0..113).map(|i| vec![i % 14, (i + 5) % 14]).collect();
    bench("kmeans_cluster_113_queries", 2, 20, || {
        black_box(cluster_queries(black_box(&items), 14, 13, 7));
    });
}

fn bench_optimizer() {
    for benchmark in [Benchmark::TpchSf1, Benchmark::Job] {
        let workload = benchmark.load();
        let db = SimDb::new(
            Dbms::Postgres,
            workload.catalog.clone(),
            Hardware::p3_2xlarge(),
            1,
        );
        // Cold: every query is extracted and planned by the optimizer
        // itself, bypassing the plan cache.
        let knobs = KnobSet::defaults(Dbms::Postgres);
        let indexes = IndexCatalog::new();
        let stats_seed = derive_seed(1, 1);
        bench(
            &format!("optimizer_plan_workload/{}/cold", benchmark.name()),
            1,
            5,
            || {
                for q in &workload.queries {
                    let optimizer = Optimizer::new(&workload.catalog, &knobs, &indexes, stats_seed);
                    black_box(optimizer.plan(&q.parsed));
                }
            },
        );
        // Warm: repeated planning on one SimDb is served by the plan cache.
        bench(
            &format!("optimizer_plan_workload/{}/warm", benchmark.name()),
            1,
            5,
            || {
                for q in &workload.queries {
                    black_box(db.explain(&q.parsed));
                }
            },
        );
        let stats = db.cache_stats();
        println!(
            "    plan cache: {} hits / {} misses ({:.1}% hit rate)",
            stats.plan_hits,
            stats.plan_misses,
            stats.plan_hit_rate() * 100.0
        );
    }
}

fn bench_snippet_extraction() {
    let workload = Benchmark::TpchSf1.load();
    let db = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        1,
    );
    bench("extract_snippets_tpch", 2, 10, || {
        black_box(extract_snippets(black_box(&db), black_box(&workload)));
    });
}

/// Observability overhead: the disabled path (one relaxed atomic load per
/// call site) must be free; the enabled path shows the true recording cost
/// for contrast. A query-execution round-trip with tracing off vs on shows
/// the end-to-end effect on the instrumented hot path.
fn bench_obs_overhead() {
    use lt_common::obs;
    let workload = Benchmark::TpchSf1.load();
    let q = &workload.queries[0].parsed;

    obs::set_enabled(false);
    bench("obs_span_disabled", 1000, 2_000_000, || {
        black_box(obs::span("bench.noop"));
    });
    bench("obs_counter_disabled", 1000, 2_000_000, || {
        obs::counter("bench.noop", 1);
    });
    let mut db = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        1,
    );
    bench("execute_query_trace_off", 5, 2000, || {
        black_box(db.execute(black_box(q), lt_common::Secs::INFINITY));
    });

    obs::set_enabled(true);
    obs::reset();
    bench("obs_span_enabled", 1000, 200_000, || {
        black_box(obs::span("bench.noop"));
    });
    obs::reset();
    bench("obs_counter_enabled", 1000, 200_000, || {
        obs::counter("bench.noop", 1);
    });
    obs::reset();
    let mut db = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        1,
    );
    bench("execute_query_trace_on", 5, 2000, || {
        black_box(db.execute(black_box(q), lt_common::Secs::INFINITY));
    });
    obs::reset();
    obs::set_enabled(false);
}

fn main() {
    bench_ilp_compression();
    bench_dp_scheduler();
    bench_clustering();
    bench_optimizer();
    bench_snippet_extraction();
    bench_obs_overhead();
}
