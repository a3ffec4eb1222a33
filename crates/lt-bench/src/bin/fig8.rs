//! Figure 8: comparing index recommendation tools — λ-Tune restricted to
//! index recommendations vs Dexter vs the DB2 Index Advisor vs no indexes,
//! on TPC-H, TPC-DS and JOB (PostgreSQL, default parameters, log-scale y
//! in the paper).
//!
//! Usage: `cargo run --release -p lt-bench --bin fig8`

use lambda_tune::{LambdaTune, LambdaTuneOptions};
use lt_baselines::common::measure_workload;
use lt_baselines::{Db2Advisor, Dexter};
use lt_bench::{base_seed, make_db, parallel_map, Scenario};
use lt_common::json;
use lt_common::Secs;
use lt_dbms::{Dbms, IndexSpec, TuningTarget};
use lt_workloads::Benchmark;

/// Measures the workload with the given index set under default knobs.
fn measure_with_indexes(scenario: Scenario, seed: u64, specs: &[IndexSpec]) -> f64 {
    let (mut db, workload) = make_db(scenario, seed);
    for spec in specs {
        db.create_index(spec);
    }
    let (time, done) = measure_workload(&mut db, &workload, Secs::INFINITY);
    assert!(done);
    time.as_f64()
}

fn main() {
    let _obs = lt_bench::ObsRun::start("fig8");
    let seed = base_seed();
    println!("Figure 8: Comparing Index Recommendation Tools");
    println!("(workload execution time [s] under default parameters; log scale in the paper)\n");
    println!(
        "{:<10} {:>12} {:>10} {:>12} {:>12}",
        "Benchmark", "No Indexes", "λ-Tune", "Dexter", "DB2 Advisor"
    );

    // The three benchmark columns are independent; each one tunes and
    // measures on its own thread, then rows print in benchmark order.
    let benchmarks = vec![Benchmark::TpchSf1, Benchmark::TpcdsSf1, Benchmark::Job];
    let measured = parallel_map(benchmarks, |benchmark| {
        let scenario = Scenario {
            benchmark,
            dbms: Dbms::Postgres,
            initial_indexes: false,
        };

        // λ-Tune, index recommendations only.
        let (mut db, workload) = make_db(scenario, seed);
        let llm = lt_llm::LlmClient::new(lt_llm::SimulatedLlm::new());
        let options = LambdaTuneOptions {
            indexes_only: true,
            seed,
            ..Default::default()
        };
        let result = LambdaTune::new(options)
            .tune(&mut db, &workload, &llm)
            .expect("tuning succeeds");
        let lambda_specs: Vec<IndexSpec> = result
            .best_config
            .map(|c| c.index_specs().into_iter().cloned().collect())
            .unwrap_or_default();

        let (probe_db, probe_w) = make_db(scenario, seed);
        let dexter_specs = Dexter::default().recommend(&probe_db, &probe_w);
        let db2_specs = Db2Advisor::default().recommend(&probe_db, &probe_w);

        let none = measure_with_indexes(scenario, seed, &[]);
        let lambda = measure_with_indexes(scenario, seed, &lambda_specs);
        let dexter = measure_with_indexes(scenario, seed, &dexter_specs);
        let db2 = measure_with_indexes(scenario, seed, &db2_specs);
        (
            benchmark,
            none,
            lambda,
            dexter,
            db2,
            lambda_specs,
            dexter_specs,
            db2_specs,
        )
    });

    let mut rows = Vec::new();
    for (benchmark, none, lambda, dexter, db2, lambda_specs, dexter_specs, db2_specs) in measured {
        println!(
            "{:<10} {:>12.1} {:>10.1} {:>12.1} {:>12.1}",
            benchmark.name(),
            none,
            lambda,
            dexter,
            db2
        );
        rows.push(json!({
            "benchmark": benchmark.name(),
            "no_indexes_s": none,
            "lambda_tune_s": lambda,
            "dexter_s": dexter,
            "db2_advisor_s": db2,
            "lambda_indexes": lambda_specs.len(),
            "dexter_indexes": dexter_specs.len(),
            "db2_indexes": db2_specs.len(),
        }));
    }
    println!("\nPaper shape: λ-Tune's indexes cut run time significantly vs no indexes,");
    println!("but the specialized advisors (Dexter, DB2) usually match or beat it —");
    println!("except on TPC-DS, where λ-Tune competes (it has a broader scope).");

    lt_bench::write_results("fig8.json", &json!({ "figure": "8", "rows": rows }));
}
