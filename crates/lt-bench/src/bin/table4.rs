//! Table 4: number of configurations evaluated per baseline (PostgreSQL).
//!
//! Writes `results/table4.json`, then exits 1 naming each failed shape
//! check (see [`shape_violations`]).
//!
//! Usage: `cargo run --release -p lt-bench --bin table4`

use lt_bench::{base_seed, parallel_map, run_tuner, tuner_names, Scenario};
use lt_common::json;
use lt_dbms::Dbms;
use lt_workloads::Benchmark;

/// Table 4's shape, checked on rows of per-tuner counts (in
/// [`tuner_names`] order): λ-Tune evaluates exactly its 5 LLM samples and
/// ParamTree 1 in every row, and each iterative tuner evaluates fewer
/// configurations at TPC-H 10 GB than at 1 GB with the same index
/// setting. Returns one message per failed check.
fn shape_violations(rows: &[(Scenario, Vec<u64>)]) -> Vec<String> {
    let column = |name| tuner_names().iter().position(|&t| t == name);
    let count = |counts: &[u64], name| counts[column(name).expect("a Table 4 tuner")];
    let mut violations = Vec::new();
    for (scenario, counts) in rows {
        for (name, expected) in [("λ-Tune", 5), ("ParamTree", 1)] {
            if count(counts, name) != expected {
                violations.push(format!(
                    "{}: {name} evaluated {} configurations, expected {expected}",
                    scenario.label(),
                    count(counts, name)
                ));
            }
        }
    }
    let sf1 = rows
        .iter()
        .filter(|(s, _)| s.benchmark == Benchmark::TpchSf1);
    for (small, small_counts) in sf1 {
        let large = Scenario {
            benchmark: Benchmark::TpchSf10,
            ..*small
        };
        let (_, large_counts) = rows
            .iter()
            .find(|(s, _)| *s == large)
            .expect("a 10 GB row per 1 GB row");
        for name in ["UDO", "DB-Bert", "GPTuner", "LlamaTune"] {
            let (n1, n10) = (count(small_counts, name), count(large_counts, name));
            if n10 >= n1 {
                violations.push(format!(
                    "{name} evaluated {n10} configurations on {} but {n1} on {}; \
                     expected fewer at 10 GB",
                    large.label(),
                    small.label()
                ));
            }
        }
    }
    violations
}

fn main() {
    let obs = lt_bench::ObsRun::start("table4");
    let seed = base_seed();
    let tuners = tuner_names();
    println!("Table 4: Number of Configurations Evaluated per Baseline (Postgres)\n");
    println!(
        "{:<14} {:>7} {:>8} {:>7} {:>8} {:>8} {:>10} {:>10}",
        "Scenario", "InitIdx", "λ-Tune", "UDO", "DB-Bert", "GPTuner", "LlamaTune", "ParamTree"
    );

    let mut scenarios = Vec::new();
    for benchmark in [Benchmark::TpchSf1, Benchmark::TpchSf10] {
        for initial_indexes in [true, false] {
            scenarios.push(Scenario {
                benchmark,
                dbms: Dbms::Postgres,
                initial_indexes,
            });
        }
    }
    // All 4 × 6 cells run concurrently; rows are consumed in table order.
    let cells: Vec<_> = scenarios
        .iter()
        .flat_map(|&scenario| tuners.iter().map(move |&name| (name, scenario)))
        .collect();
    let cell_counts = parallel_map(cells, |(name, scenario)| {
        run_tuner(name, scenario, seed).configs_evaluated
    });
    let mut cell_counts = cell_counts.into_iter();
    let mut json_rows = Vec::new();
    let mut rows = Vec::new();
    for scenario in scenarios {
        let benchmark = scenario.benchmark;
        let initial_indexes = scenario.initial_indexes;
        let counts: Vec<u64> = tuners
            .iter()
            .map(|_| cell_counts.next().expect("one cell per tuner"))
            .collect();
        println!(
            "{:<14} {:>7} {:>8} {:>7} {:>8} {:>8} {:>10} {:>10}",
            benchmark.name(),
            if initial_indexes { "Yes" } else { "No" },
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            counts[4],
            counts[5],
        );
        json_rows.push(json!({
            "scenario": scenario.label(),
            "counts": tuners.iter().zip(&counts).map(|(n, c)| (n.to_string(), *c)).collect::<std::collections::BTreeMap<_,_>>(),
        }));
        rows.push((scenario, counts));
    }
    println!("\nPaper shape: λ-Tune evaluates exactly the 5 LLM configurations; ParamTree 1;");
    println!("UDO the most (sample-based); counts shrink at scale factor 10 for the");
    println!("iterative tuners as each trial takes longer.");

    lt_bench::write_results("table4.json", &json!({ "table": "4", "rows": json_rows }));
    drop(obs);
    let violations = shape_violations(&rows);
    for v in &violations {
        eprintln!("table4 shape check FAILED: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(counts: [[u64; 6]; 4]) -> Vec<(Scenario, Vec<u64>)> {
        let scenario = |benchmark, initial_indexes| Scenario {
            benchmark,
            dbms: Dbms::Postgres,
            initial_indexes,
        };
        let scenarios = [
            scenario(Benchmark::TpchSf1, true),
            scenario(Benchmark::TpchSf1, false),
            scenario(Benchmark::TpchSf10, true),
            scenario(Benchmark::TpchSf10, false),
        ];
        scenarios.into_iter().zip(counts.map(Vec::from)).collect()
    }

    /// `results/table4.json` at `LT_SEED=42`: λ-Tune, UDO, DB-Bert,
    /// GPTuner, LlamaTune, ParamTree per row.
    const SEED_42: [[u64; 6]; 4] = [
        [5, 26, 18, 23, 6, 1],
        [5, 10, 18, 22, 6, 1],
        [5, 6, 6, 9, 2, 1],
        [5, 2, 6, 8, 2, 1],
    ];

    #[test]
    fn seed_42_counts_have_the_paper_shape() {
        assert_eq!(shape_violations(&rows(SEED_42)), Vec::<String>::new());
    }

    #[test]
    fn four_lambda_tune_configs_is_a_violation() {
        let mut counts = SEED_42;
        counts[2][0] = 4;
        let violations = shape_violations(&rows(counts));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("λ-Tune evaluated 4"),
            "{violations:?}"
        );
    }

    #[test]
    fn as_many_udo_configs_at_10_gb_is_a_violation() {
        let mut counts = SEED_42;
        counts[3][1] = counts[1][1];
        let violations = shape_violations(&rows(counts));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].starts_with("UDO evaluated 10"),
            "{violations:?}"
        );
    }
}
