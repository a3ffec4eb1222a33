//! Tuning TPC-H on both PostgreSQL and MySQL, inspecting the pipeline
//! stage by stage: snippet extraction, workload compression, the generated
//! prompt, the sampled configurations and the selection trajectory.
//!
//! ```sh
//! cargo run --release -p lambda-tune --example tune_tpch
//! ```

use lambda_tune::{extract_snippets, SelectorOptions};
use lambda_tune::{Compressor, ConfigSelector, Evaluator, PromptBuilder};
use lt_common::derive_seed;
use lt_dbms::{Configuration, Dbms, Hardware, SimDb, TuningTarget};
use lt_llm::{LlmClient, SimulatedLlm};
use lt_workloads::Benchmark;

fn main() {
    let workload = Benchmark::TpchSf1.load();
    for dbms in [Dbms::Postgres, Dbms::Mysql] {
        println!("================ {dbms} ================");
        let mut db = SimDb::new(dbms, workload.catalog.clone(), Hardware::p3_2xlarge(), 7);

        // Stage 1: extract valued join snippets via EXPLAIN (§3.2).
        let snippets = extract_snippets(&db, &workload);
        println!("\n{} join snippets; the 5 most valuable:", snippets.len());
        let compressor = Compressor::new(db.catalog());
        for s in snippets.iter().take(5) {
            println!(
                "  {} ⋈ {}   V(p) = {:.0}",
                compressor.render_column(s.left),
                compressor.render_column(s.right),
                s.value
            );
        }

        // Stage 2: ILP-compress into a token budget (§3.3).
        let compressed = compressor
            .compress(&snippets, 300)
            .expect("compression succeeds");
        println!(
            "\ncompressed workload: {} lines, {} tokens, {:.0}% of join value:",
            compressed.lines.len(),
            compressed.tokens,
            compressed.coverage() * 100.0
        );
        for line in compressed.lines.iter().take(4) {
            println!("  {line}");
        }

        // Stage 3: build the prompt (§3.1, Listing 1) and sample k = 3
        // configurations.
        let prompt = PromptBuilder::new(dbms, db.hardware()).build(&compressed);
        println!(
            "\nprompt is {} tokens; sampling 3 configurations…",
            lt_llm::count_tokens(&prompt)
        );
        let llm = LlmClient::new(SimulatedLlm::new());
        let configs: Vec<Configuration> = (0..3)
            .map(|i| {
                let response = llm
                    .complete(&prompt, 0.7, derive_seed(7, i))
                    .expect("simulated model never fails");
                Configuration::parse(&response, dbms, db.catalog())
            })
            .collect();
        for (i, c) in configs.iter().enumerate() {
            println!(
                "  config {i}: {} knob changes, {} indexes",
                c.knob_changes().count(),
                c.index_specs().len()
            );
        }

        // Stage 4: select the best configuration (§4, Algorithm 2).
        let selector = ConfigSelector::new(SelectorOptions::default(), Evaluator::default());
        let selection = selector.select(&mut db, &workload, &configs);
        match selection.best {
            Some(i) => println!(
                "\nwinner: config {i} — workload in {:.1} after {} rounds",
                selection.best_time, selection.rounds
            ),
            None => println!("\nno configuration completed (try a larger timeout)"),
        }
        for p in &selection.trajectory {
            println!(
                "  at tuning time {:.0}: best workload time {:.1}",
                p.opt_time, p.best_workload_time
            );
        }
        println!();
    }
}
