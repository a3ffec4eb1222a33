//! Quickstart: tune a simulated PostgreSQL for TPC-H with λ-Tune.
//!
//! ```sh
//! cargo run --release -p lambda-tune --example quickstart
//! ```
//!
//! The example walks the full pipeline: build a workload, stand up the
//! simulated DBMS, run λ-Tune with the simulated LLM, and compare the
//! winning configuration against the defaults.

use lambda_tune::{LambdaTune, LambdaTuneOptions};
use lt_common::Secs;
use lt_dbms::{Dbms, Hardware, SimDb, TuningTarget};
use lt_llm::{LlmClient, SimulatedLlm};
use lt_workloads::{measure_workload, Benchmark};

fn main() {
    // 1. Load a benchmark workload: catalog (schema + statistics) and the
    //    22 TPC-H queries at scale factor 1.
    let workload = Benchmark::TpchSf1.load();
    println!(
        "workload: {} — {} queries over {} tables (~{:.1} GB)",
        workload.name,
        workload.len(),
        workload.catalog.tables().len(),
        workload.catalog.total_bytes() as f64 / (1u64 << 30) as f64,
    );

    // 2. Stand up the simulated DBMS on the paper's hardware (61 GB RAM,
    //    8 cores). All times below are simulated seconds.
    let mut db = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        42, // seed: fixes misestimation patterns and execution noise
    );

    // 3. Measure the default configuration for reference.
    let mut reference = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        42,
    );
    let (default_time, _) = measure_workload(&mut reference, &workload, Secs::INFINITY);
    println!("default configuration: workload runs in {default_time:.1}");

    // 4. Run λ-Tune: compress the workload into a prompt, sample k = 5
    //    configurations from the (simulated) LLM, select the best with
    //    geometric timeouts.
    let llm = LlmClient::new(SimulatedLlm::new());
    let options = LambdaTuneOptions {
        seed: 42,
        ..Default::default()
    };
    let result = LambdaTune::new(options)
        .tune(&mut db, &workload, &llm)
        .expect("tuning succeeds");

    let best = result.best_config.expect("one configuration completed");
    println!(
        "\nλ-Tune finished in {:.0} of tuning time ({} LLM calls, ~${:.2} in fees):",
        result.tuning_time,
        result.llm_usage.calls,
        result.llm_usage.cost_usd(),
    );
    println!(
        "  best workload time: {:.1}  (default: {default_time:.1})",
        result.best_time
    );
    println!(
        "  speedup: {:.1}x",
        default_time.as_f64() / result.best_time.as_f64()
    );

    println!("\nwinning configuration script:");
    for line in best.to_script(Dbms::Postgres, db.catalog()).lines() {
        println!("  {line}");
    }
}
