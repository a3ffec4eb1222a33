//! Using λ-Tune and the what-if index advisors as pure index
//! recommendation tools on the Join Order Benchmark (the paper's Figure 8
//! scenario), and inspecting how the optimizer's plans change.
//!
//! ```sh
//! cargo run --release -p lambda-tune --example index_advisor
//! ```

use lambda_tune::{LambdaTune, LambdaTuneOptions};
use lt_common::Secs;
use lt_dbms::{Dbms, Hardware, SimDb, TuningTarget};
use lt_llm::{LlmClient, SimulatedLlm};
use lt_workloads::{measure_workload, Benchmark};

fn main() {
    let workload = Benchmark::Job.load();
    let mut db = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        9,
    );

    // Run λ-Tune restricted to index recommendations (no knob changes).
    let llm = LlmClient::new(SimulatedLlm::new());
    let options = LambdaTuneOptions {
        indexes_only: true,
        seed: 9,
        ..Default::default()
    };
    let result = LambdaTune::new(options)
        .tune(&mut db, &workload, &llm)
        .expect("tuning succeeds");
    let config = result.best_config.expect("a configuration completed");

    println!(
        "λ-Tune recommends {} indexes for JOB:",
        config.index_specs().len()
    );
    for spec in config.index_specs() {
        let table = &workload.catalog.table(spec.table).name;
        let cols: Vec<&str> = spec
            .columns
            .iter()
            .map(|c| workload.catalog.column(*c).name.as_str())
            .collect();
        println!("  CREATE INDEX ON {table} ({})", cols.join(", "));
    }

    // Show a before/after plan for one query.
    let q = &workload.queries[1]; // JOB family 2a
    let mut before_db = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        9,
    );
    println!(
        "\nplan for JOB {} without indexes:\n{}",
        q.label,
        before_db.explain(&q.parsed).explain()
    );
    for spec in config.index_specs() {
        before_db.create_index(spec);
    }
    println!(
        "with λ-Tune's indexes:\n{}",
        before_db.explain(&q.parsed).explain()
    );

    // Measure the whole workload with and without the indexes.
    let measure = |specs: &[&lt_dbms::IndexSpec]| -> Secs {
        let mut m = SimDb::new(
            Dbms::Postgres,
            workload.catalog.clone(),
            Hardware::p3_2xlarge(),
            9,
        );
        for s in specs {
            m.create_index(s);
        }
        measure_workload(&mut m, &workload, Secs::INFINITY).0
    };
    let without = measure(&[]);
    let with = measure(&config.index_specs());
    println!("workload: {without:.1} without indexes → {with:.1} with λ-Tune's indexes");
}
