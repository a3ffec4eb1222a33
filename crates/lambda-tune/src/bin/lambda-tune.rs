//! λ-Tune command-line interface.
//!
//! Tunes a simulated DBMS for one of the built-in benchmark workloads and
//! prints a tuning report:
//!
//! ```sh
//! cargo run --release -p lambda-tune --bin lambda-tune -- \
//!     --benchmark tpch --dbms postgres --samples 5 --seed 42
//! ```
//!
//! Options:
//!
//! * `--benchmark tpch|tpch10|tpcds|job` (default `tpch`)
//! * `--dbms postgres|mysql` (default `postgres`)
//! * `--backend sim|store` tuning target: the virtual-time simulator or the
//!   lt-store physical engine (default `sim`)
//! * `--samples <k>` LLM samples (default 5)
//! * `--temperature <t>` (default 0.7)
//! * `--token-budget <n>` workload-description budget (default: fit)
//! * `--params-only` / `--indexes-only` tuning scope
//! * `--obfuscate` hide identifiers from the LLM
//! * `--seed <n>` (default 42)

use lambda_tune::{LambdaTune, LambdaTuneOptions};
use lt_dbms::{Dbms, Hardware};
use lt_llm::{LlmClient, SimulatedLlm};
use lt_store::Backend;
use lt_workloads::Benchmark;
use std::process::ExitCode;

struct Args {
    benchmark: Benchmark,
    dbms: Dbms,
    backend: Backend,
    options: LambdaTuneOptions,
}

/// `LT_TRACE=1` session: root span for the run; prints the phase-summary
/// table to stderr on exit (also when tuning fails, via Drop).
struct TraceSession(Option<lt_common::obs::SpanGuard>);

impl TraceSession {
    fn start() -> Self {
        TraceSession(lt_common::obs::enabled().then(|| {
            lt_common::obs::reset();
            lt_common::obs::span("run")
        }))
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if let Some(root) = self.0.take() {
            drop(root);
            eprintln!("\n-- trace summary --");
            eprint!("{}", lt_common::obs::snapshot().summary_table());
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut benchmark = Benchmark::TpchSf1;
    let mut dbms = Dbms::Postgres;
    let mut backend = Backend::Sim;
    let mut options = LambdaTuneOptions {
        seed: 42,
        ..Default::default()
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--benchmark" => {
                benchmark = match value("--benchmark")?.as_str() {
                    "tpch" => Benchmark::TpchSf1,
                    "tpch10" => Benchmark::TpchSf10,
                    "tpcds" => Benchmark::TpcdsSf1,
                    "job" => Benchmark::Job,
                    other => return Err(format!("unknown benchmark {other}")),
                };
            }
            "--dbms" => {
                dbms = match value("--dbms")?.to_ascii_lowercase().as_str() {
                    "postgres" | "postgresql" | "pg" => Dbms::Postgres,
                    "mysql" | "ms" => Dbms::Mysql,
                    other => return Err(format!("unknown dbms {other}")),
                };
            }
            "--backend" => {
                let name = value("--backend")?.to_ascii_lowercase();
                backend = Backend::parse(&name)
                    .ok_or_else(|| format!("unknown backend {name} (sim|store)"))?;
            }
            "--samples" => {
                options.num_configs = value("--samples")?
                    .parse()
                    .map_err(|e| format!("--samples: {e}"))?;
            }
            "--temperature" => {
                options.temperature = value("--temperature")?
                    .parse()
                    .map_err(|e| format!("--temperature: {e}"))?;
            }
            "--token-budget" => {
                options.token_budget = Some(
                    value("--token-budget")?
                        .parse()
                        .map_err(|e| format!("--token-budget: {e}"))?,
                );
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--params-only" => options.params_only = true,
            "--indexes-only" => options.indexes_only = true,
            "--obfuscate" => options.obfuscate = true,
            "--no-compressor" => options.use_compressor = false,
            "--no-scheduler" => options.use_scheduler = false,
            "--help" | "-h" => {
                println!(
                    "usage: lambda-tune [--benchmark tpch|tpch10|tpcds|job] \
                     [--dbms postgres|mysql] [--backend sim|store] \
                     [--samples K] [--temperature T] \
                     [--token-budget N] [--seed N] [--params-only] \
                     [--indexes-only] [--obfuscate] [--no-compressor] \
                     [--no-scheduler]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other} (try --help)")),
        }
    }
    Ok(Args {
        benchmark,
        dbms,
        backend,
        options,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let _trace = TraceSession::start();
    let workload = args.benchmark.load();
    println!(
        "λ-Tune: tuning {} for {} ({} queries, seed {}, backend {})",
        args.dbms.name(),
        workload.name,
        workload.len(),
        args.options.seed,
        args.backend.name()
    );

    let mut db = args.backend.open(
        args.dbms,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        args.options.seed,
    );
    let llm = LlmClient::new(SimulatedLlm::new());
    let result = match LambdaTune::new(args.options).tune(db.as_mut(), &workload, &llm) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tuning failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("\n== tuning report ==");
    println!("tuning time       : {:.0}", result.tuning_time);
    println!("selector rounds   : {}", result.rounds);
    println!(
        "LLM usage         : {} calls, {} prompt + {} completion tokens (~${:.2})",
        result.llm_usage.calls,
        result.llm_usage.prompt_tokens,
        result.llm_usage.completion_tokens,
        result.llm_usage.cost_usd()
    );
    println!("workload tokens   : {}", result.workload_tokens);

    match (&result.best_config, result.best_index) {
        (Some(best), Some(i)) => {
            println!(
                "best configuration: sample #{i}, workload runs in {:.1}",
                result.best_time
            );
            println!("\n-- configuration script --");
            print!("{}", best.to_script(args.dbms, db.catalog()));
            println!("\n-- improvement trajectory --");
            for p in &result.trajectory {
                println!(
                    "  t={:>8.0}  best workload time {:.1}",
                    p.opt_time, p.best_workload_time
                );
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("no configuration completed the workload");
            ExitCode::FAILURE
        }
    }
}
