//! End-to-end integration tests: the full λ-Tune pipeline against every
//! benchmark workload and both simulated DBMS flavours.

use lambda_tune::{LambdaTune, LambdaTuneOptions};
use lt_common::Secs;
use lt_dbms::{Dbms, Hardware, SimDb, TuningTarget};
use lt_llm::{LlmClient, SimulatedLlm};
use lt_workloads::{measure_workload, Benchmark, Workload};

fn default_workload_time(workload: &Workload, dbms: Dbms, seed: u64) -> Secs {
    let mut db = SimDb::new(dbms, workload.catalog.clone(), Hardware::p3_2xlarge(), seed);
    measure_workload(&mut db, workload, Secs::INFINITY).0
}

fn tune(workload: &Workload, dbms: Dbms, seed: u64) -> lambda_tune::TuneResult {
    let mut db = SimDb::new(dbms, workload.catalog.clone(), Hardware::p3_2xlarge(), seed);
    let llm = LlmClient::new(SimulatedLlm::new());
    LambdaTune::new(LambdaTuneOptions {
        seed,
        ..Default::default()
    })
    .tune(&mut db, workload, &llm)
    .expect("pipeline never errors on benchmark workloads")
}

#[test]
fn lambda_tune_beats_defaults_on_every_benchmark_postgres() {
    for benchmark in Benchmark::all() {
        if benchmark == Benchmark::TpchSf10 {
            continue; // covered by the MySQL test below; keep runtime down
        }
        let workload = benchmark.load();
        let default = default_workload_time(&workload, Dbms::Postgres, 3);
        let result = tune(&workload, Dbms::Postgres, 3);
        let best = result.best_time;
        assert!(
            best < default,
            "{benchmark}: λ-Tune {best} should beat default {default}"
        );
        assert!(result.best_config.is_some());
        assert_eq!(result.configs.len(), 5);
    }
}

#[test]
fn lambda_tune_beats_defaults_on_mysql() {
    for benchmark in [Benchmark::TpchSf1, Benchmark::TpchSf10] {
        let workload = benchmark.load();
        let default = default_workload_time(&workload, Dbms::Mysql, 5);
        let result = tune(&workload, Dbms::Mysql, 5);
        assert!(
            result.best_time < default,
            "{benchmark}/MySQL: {} !< {default}",
            result.best_time
        );
        // MySQL configurations must only use MySQL knobs (parse-validated).
        for config in &result.configs {
            for (name, _) in config.knob_changes() {
                assert!(
                    lt_dbms::knobs::knob_def(Dbms::Mysql, name).is_some(),
                    "knob {name} is not a MySQL knob"
                );
            }
        }
    }
}

#[test]
fn tuning_is_reproducible_for_a_seed() {
    let workload = Benchmark::TpcdsSf1.load();
    let a = tune(&workload, Dbms::Postgres, 11);
    let b = tune(&workload, Dbms::Postgres, 11);
    assert_eq!(a.best_time, b.best_time);
    assert_eq!(a.best_index, b.best_index);
    assert_eq!(a.tuning_time, b.tuning_time);
    assert_eq!(a.llm_usage, b.llm_usage);
}

#[test]
fn different_seeds_change_sampled_configurations() {
    let workload = Benchmark::TpchSf1.load();
    let a = tune(&workload, Dbms::Postgres, 1);
    let b = tune(&workload, Dbms::Postgres, 2);
    let fingerprints = |r: &lambda_tune::TuneResult| -> Vec<u64> {
        r.configs.iter().map(|c| c.fingerprint()).collect()
    };
    assert_ne!(fingerprints(&a), fingerprints(&b));
}

#[test]
fn monetary_fees_scale_with_token_budget() {
    let workload = Benchmark::Job.load();
    let run_with_budget = |budget: usize| {
        let mut db = SimDb::new(
            Dbms::Postgres,
            workload.catalog.clone(),
            Hardware::p3_2xlarge(),
            7,
        );
        let llm = LlmClient::new(SimulatedLlm::new());
        LambdaTune::new(LambdaTuneOptions {
            token_budget: Some(budget),
            seed: 7,
            ..Default::default()
        })
        .tune(&mut db, &workload, &llm)
        .unwrap()
        .llm_usage
    };
    let small = run_with_budget(64);
    let large = run_with_budget(2000);
    assert!(small.prompt_tokens < large.prompt_tokens);
    assert!(small.cost_usd() < large.cost_usd());
}

#[test]
fn winning_config_applies_cleanly_to_a_fresh_instance() {
    let workload = Benchmark::TpchSf1.load();
    let result = tune(&workload, Dbms::Postgres, 13);
    let best = result.best_config.unwrap();
    let mut fresh = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        13,
    );
    fresh.apply(&best);
    // Re-measured time is close to the selector's measurement (execution
    // noise aside).
    let (total, completed) = measure_workload(&mut fresh, &workload, Secs::INFINITY);
    assert!(completed);
    let ratio = total / result.best_time;
    assert!(
        (0.7..1.3).contains(&ratio),
        "re-measured {total} vs selected {}",
        result.best_time
    );
}
