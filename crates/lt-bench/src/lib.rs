//! Benchmark harness shared by the table/figure binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§6); this library provides the scenario matrix, the
//! per-scenario environment construction (catalog, initial indexes, eval
//! timeouts) and the tuner registry, so every binary runs the *same*
//! experimental setup the paper describes:
//!
//! * **Scenario 1** (Figure 3): parameter tuning only; primary-/foreign-key
//!   indexes are pre-built for everyone.
//! * **Scenario 2** (Figure 4): physical design in scope; λ-Tune and UDO
//!   tune indexes themselves, the parameter-only baselines get Dexter's
//!   recommended indexes pre-built (exactly the paper's setup).
//!
//! Environment knobs: `LT_TRIALS` overrides the number of trials (default
//! 3), `LT_SEED` the base seed, `LT_TRACE=1` enables the observability
//! layer (see [`ObsRun`]).

use lambda_tune::{LambdaTuneOptions, TrajectoryPoint};
use lt_baselines::{
    common::measure_workload, DbBert, Dexter, GpTuner, LambdaTuneBaseline, LlamaTune, ParamTree,
    Tuner, TunerRun, Udo,
};
pub use lt_common::env::base_seed;
use lt_common::{env, secs, Secs};
use lt_dbms::{Dbms, Hardware, IndexSpec, SimDb, TuningTarget};
use lt_workloads::{Benchmark, Workload};

/// One experimental scenario: a benchmark on a DBMS, with or without
/// pre-built initial indexes (= parameter-tuning-only scope).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Workload + catalog.
    pub benchmark: Benchmark,
    /// Target system.
    pub dbms: Dbms,
    /// True = Scenario 1 (PK/FK indexes pre-built, parameters only).
    pub initial_indexes: bool,
}

impl Scenario {
    /// Scenario label as printed in Table 3.
    pub fn label(&self) -> String {
        format!(
            "{} {} {}",
            self.benchmark.name(),
            match self.dbms {
                Dbms::Postgres => "PG",
                Dbms::Mysql => "MS",
            },
            if self.initial_indexes { "Yes" } else { "No" }
        )
    }

    /// Virtual tuning-time budget granted to budgeted tuners.
    pub fn budget(&self) -> Secs {
        match self.benchmark {
            Benchmark::TpchSf1 => secs(900.0),
            Benchmark::TpchSf10 => secs(3000.0),
            Benchmark::TpcdsSf1 => secs(900.0),
            Benchmark::Job => secs(1500.0),
        }
    }
}

/// The 14 scenarios of Table 3, in the paper's row order.
pub fn table3_scenarios() -> Vec<Scenario> {
    let mut rows = Vec::new();
    for initial_indexes in [true, false] {
        for benchmark in [Benchmark::TpchSf1, Benchmark::TpchSf10, Benchmark::Job] {
            for dbms in [Dbms::Postgres, Dbms::Mysql] {
                rows.push(Scenario {
                    benchmark,
                    dbms,
                    initial_indexes,
                });
            }
        }
    }
    for dbms in [Dbms::Postgres, Dbms::Mysql] {
        rows.push(Scenario {
            benchmark: Benchmark::TpcdsSf1,
            dbms,
            initial_indexes: false,
        });
    }
    // Paper order: indexes-yes block first (TPC-H 1/10, JOB), then
    // indexes-no including TPC-DS.
    rows
}

/// Builds the simulated database for a scenario (no initial indexes yet).
pub fn make_db(scenario: Scenario, seed: u64) -> (SimDb, Workload) {
    let workload = scenario.benchmark.load();
    let db = SimDb::new(
        scenario.dbms,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        seed,
    );
    (db, workload)
}

/// Primary-/foreign-key index specs referenced by the workload (Scenario
/// 1's pre-built "default indexes").
pub fn key_index_specs(db: &SimDb, workload: &Workload) -> Vec<IndexSpec> {
    let mut referenced: std::collections::HashSet<lt_common::ColumnId> =
        std::collections::HashSet::new();
    for wq in &workload.queries {
        let preds = lt_dbms::stats::extract(&wq.parsed, db.catalog());
        for edge in &preds.joins {
            referenced.insert(edge.left);
            referenced.insert(edge.right);
        }
        for terms in preds.filters.values() {
            referenced.extend(terms.iter().map(|t| t.column));
        }
    }
    db.catalog()
        .columns()
        .iter()
        .filter(|c| (c.primary_key || c.foreign_key) && referenced.contains(&c.id))
        .map(|c| IndexSpec {
            table: c.table,
            columns: vec![c.id],
            name: None,
        })
        .collect()
}

/// Materializes the Scenario-1 initial indexes (charges build time once,
/// before tuning starts, like the paper's setup phase).
pub fn build_initial_indexes(db: &mut SimDb, workload: &Workload) {
    for spec in key_index_specs(db, workload) {
        db.create_index(&spec);
    }
}

/// The tuner lineup of Table 3 / Figures 3–4, in column order.
pub fn tuner_names() -> [&'static str; 6] {
    [
        "λ-Tune",
        "UDO",
        "DB-Bert",
        "GPTuner",
        "LlamaTune",
        "ParamTree",
    ]
}

/// Runs one named tuner on a scenario and returns its run. Handles the
/// scenario-specific setup: initial indexes, Dexter pre-indexes for
/// parameter-only baselines in Scenario 2, eval timeouts and tuning scope.
pub fn run_tuner(name: &str, scenario: Scenario, seed: u64) -> TunerRun {
    let (mut db, workload) = make_db(scenario, seed);
    let params_only = scenario.initial_indexes;
    let tunes_indexes = matches!(name, "λ-Tune" | "UDO");
    if scenario.initial_indexes {
        build_initial_indexes(&mut db, &workload);
    } else if !tunes_indexes {
        // Scenario 2: parameter-only baselines run on Dexter's indexes
        // (paper: "we create indexes recommended by Dexter before tuning
        // starts").
        let specs = Dexter::default().recommend(&db, &workload);
        for spec in specs {
            db.create_index(&spec);
        }
    }
    // Eval timeout for baselines: proportional to the default-configuration
    // workload time (the paper anchors it at 3× λ-Tune's worst config).
    let (default_time, _) = probe_default_time(scenario, seed);
    let eval_timeout = default_time * 3.0;
    let budget = scenario.budget();

    match name {
        "λ-Tune" => {
            let options = LambdaTuneOptions {
                params_only,
                seed,
                ..Default::default()
            };
            LambdaTuneBaseline::new(options).tune(&mut db, &workload, budget)
        }
        "UDO" => {
            let options = lt_baselines::udo::UdoOptions {
                eval_timeout,
                tune_indexes: !params_only,
                seed,
                ..Default::default()
            };
            Udo::new(options).tune(&mut db, &workload, budget)
        }
        "DB-Bert" => {
            let options = lt_baselines::dbbert::DbBertOptions {
                eval_timeout,
                seed,
                ..Default::default()
            };
            DbBert::new(options).tune(&mut db, &workload, budget)
        }
        "GPTuner" => {
            let options = lt_baselines::gptuner::GpTunerOptions {
                eval_timeout,
                seed,
                ..Default::default()
            };
            GpTuner::new(options).tune(&mut db, &workload, budget)
        }
        "LlamaTune" => {
            let options = lt_baselines::llamatune::LlamaTuneOptions {
                eval_timeout,
                seed,
                ..Default::default()
            };
            LlamaTune::new(options).tune(&mut db, &workload, budget)
        }
        "ParamTree" => {
            let options = lt_baselines::paramtree::ParamTreeOptions {
                eval_timeout,
                ..Default::default()
            };
            ParamTree::new(options).tune(&mut db, &workload, budget)
        }
        other => panic!("unknown tuner {other}"),
    }
}

/// Workload time under the default configuration for a scenario (with the
/// scenario's initial indexes if any). Used to anchor eval timeouts and to
/// scale figures.
pub fn probe_default_time(scenario: Scenario, seed: u64) -> (Secs, Secs) {
    let (mut db, workload) = make_db(scenario, seed);
    if scenario.initial_indexes {
        build_initial_indexes(&mut db, &workload);
    }
    let start = db.now();
    let (time, done) = measure_workload(&mut db, &workload, Secs::INFINITY);
    assert!(done, "default configuration must complete without timeout");
    (time, db.now() - start)
}

/// The command line every bench driver accepts: no argument (the full
/// run, which rewrites the committed `results/BENCH_*.json`) or exactly
/// `--smoke`. Anything else is `None`, so a mistyped flag can never fall
/// through to the full run.
pub fn smoke_mode(args: &[String]) -> Option<bool> {
    match args {
        [] => Some(false),
        [flag] if flag == "--smoke" => Some(true),
        _ => None,
    }
}

/// [`smoke_mode`] of this process's arguments; prints a usage line and
/// exits 2 on anything else.
pub fn smoke_arg() -> bool {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    smoke_mode(&args.collect::<Vec<_>>()).unwrap_or_else(|| {
        let bin = std::path::Path::new(&bin).file_name().unwrap_or_default();
        eprintln!("usage: {} [--smoke]", bin.to_string_lossy());
        std::process::exit(2);
    })
}

/// Number of trials (paper: 3). Override with `LT_TRIALS`.
pub fn trials() -> usize {
    env::get("LT_TRIALS", 3, |&n| n > 0)
}

/// Worker threads for the benchmark matrix. Defaults to the machine's
/// available parallelism; override with `LT_BENCH_THREADS` (1 = sequential).
pub fn bench_threads() -> usize {
    env::opt("LT_BENCH_THREADS", &"available parallelism", |&n| n > 0).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Applies `f` to every item on a scoped thread pool of [`bench_threads`]
/// workers and returns the results **in input order**.
///
/// Benchmark cells (trial × tuner × scenario) are embarrassingly parallel:
/// each one builds its own `SimDb` from a per-cell deterministic seed, so
/// running them concurrently and emitting in index order produces output
/// byte-identical to a sequential run. Work is handed out through an atomic
/// cursor so long cells (e.g. TPC-H SF10 under UDO) don't stall a whole
/// stripe of short ones.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = bench_threads().min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("item taken once");
                let out = f(item);
                *results[i].lock().unwrap() = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled slot"))
        .collect()
}

/// Averages trajectories across trials onto a common time grid, returning
/// `(grid_time, mean, min, max)` rows — the shaded-band data of the
/// paper's line plots.
pub fn trajectory_band(
    runs: &[Vec<TrajectoryPoint>],
    grid_points: usize,
) -> Vec<(f64, f64, f64, f64)> {
    let horizon = runs
        .iter()
        .flat_map(|r| r.iter().map(|p| p.opt_time.as_f64()))
        .fold(0.0f64, f64::max);
    if horizon <= 0.0 {
        return Vec::new();
    }
    let value_at = |run: &[TrajectoryPoint], t: f64| -> Option<f64> {
        run.iter()
            .filter(|p| p.opt_time.as_f64() <= t)
            .map(|p| p.best_workload_time.as_f64())
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            })
    };
    (1..=grid_points)
        .filter_map(|i| {
            let t = horizon * i as f64 / grid_points as f64;
            let values: Vec<f64> = runs.iter().filter_map(|r| value_at(r, t)).collect();
            if values.is_empty() {
                return None;
            }
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(0.0f64, f64::max);
            Some((t, mean, min, max))
        })
        .collect()
}

/// Formats a Markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    cells.join(" | ")
}

/// Per-binary observability session: opens the root `run` span and, on
/// drop, prints the phase-summary table to stderr and writes the event log
/// to `results/<name>.trace.json` — the cost-breakdown sidecar of the
/// binary's `results/<name>.json`. Inert unless `LT_TRACE=1`.
///
/// The summary goes to **stderr** so `LT_TRACE=1` never perturbs the
/// byte-identical stdout the determinism gate compares. With
/// `LT_BENCH_THREADS=1` every span lands on the main thread under the root
/// span, so the per-phase exclusive times sum exactly to the run's wall
/// time (see the `trace_check` binary).
pub struct ObsRun {
    name: &'static str,
    root: Option<lt_common::obs::SpanGuard>,
}

impl ObsRun {
    /// Starts a session (clears any earlier registry contents so the trace
    /// covers exactly this run).
    pub fn start(name: &'static str) -> ObsRun {
        let root = if lt_common::obs::enabled() {
            lt_common::obs::reset();
            Some(lt_common::obs::span("run"))
        } else {
            None
        };
        ObsRun { name, root }
    }
}

impl Drop for ObsRun {
    fn drop(&mut self) {
        let Some(root) = self.root.take() else { return };
        drop(root); // completes the root span so the snapshot includes it
        let snap = lt_common::obs::snapshot();
        eprintln!("\n-- trace summary: {} --", self.name);
        eprint!("{}", snap.summary_table());
        let path = format!("results/{}.trace.json", self.name);
        if let Err(e) = std::fs::create_dir_all("results") {
            eprintln!("error: cannot create results/: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(&path, snap.to_json().to_string_pretty()) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("trace written to {path}");
    }
}

/// Writes a result artifact to `results/<file>`, exiting nonzero on
/// failure so CI and scripts notice (a silently missing artifact used to
/// pass every gate).
pub fn write_results(file: &str, value: &lt_common::json::Value) {
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("error: cannot create results/: {e}");
        std::process::exit(1);
    }
    let path = format!("results/{file}");
    if let Err(e) = std::fs::write(&path, lt_common::json::to_string_pretty(value)) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Shared runner for Figures 3 and 4: trajectory panels per (benchmark,
/// DBMS) with mean/min/max bands over trials.
///
/// All (scenario, tuner, trial) cells run concurrently on [`parallel_map`];
/// printing and JSON emission happen afterwards in the sequential order, so
/// stdout and `results/fig{N}.json` are byte-identical to a 1-thread run.
pub fn run_trajectory_figure(initial_indexes: bool, figure: &str, title: &str) {
    use lt_common::json;
    let seed = base_seed();
    let n_trials = trials();
    println!("Figure {figure}: {title}");
    println!(
        "(x = optimization time [s], y = best execution time found [s]; \
         mean [min, max] over {n_trials} trials)\n"
    );

    let scenarios: Vec<Scenario> = table3_scenarios()
        .into_iter()
        .filter(|s| s.initial_indexes == initial_indexes)
        .collect();
    let mut cells = Vec::new();
    for &scenario in &scenarios {
        for name in tuner_names() {
            for t in 0..n_trials {
                cells.push((name, scenario, seed + t as u64));
            }
        }
    }
    let trajectories = parallel_map(cells, |(name, scenario, cell_seed)| {
        run_tuner(name, scenario, cell_seed).trajectory
    });
    let mut trajectories = trajectories.into_iter();

    let mut panels = Vec::new();
    for scenario in scenarios {
        println!("== {} ==", scenario.label());
        let mut panel = Vec::new();
        for name in tuner_names() {
            let runs: Vec<_> = (0..n_trials)
                .map(|_| trajectories.next().expect("one trajectory per cell"))
                .collect();
            let band = trajectory_band(&runs, 8);
            if band.is_empty() {
                println!("  {name:<10} (no configuration completed within budget)");
                continue;
            }
            let series: Vec<String> = band
                .iter()
                .map(|(t, mean, min, max)| format!("({t:.0}s, {mean:.1} [{min:.1},{max:.1}])"))
                .collect();
            println!("  {name:<10} {}", series.join(" "));
            panel.push(json!({
                "tuner": name,
                "points": band.iter().map(|(t, mean, min, max)| json!({
                    "opt_time_s": t, "mean_s": mean, "min_s": min, "max_s": max
                })).collect::<Vec<_>>(),
            }));
        }
        println!();
        panels.push(json!({ "panel": scenario.label(), "series": panel }));
    }
    println!("Paper shape: λ-Tune reaches its (near-)final value fastest; hint-based");
    println!("tuners (DB-Bert, GPTuner) follow; UDO and LlamaTune converge slowest.");

    write_results(
        &format!("fig{figure}.json"),
        &json!({ "figure": figure, "panels": panels }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_matrix_matches_table3() {
        let rows = table3_scenarios();
        assert_eq!(rows.len(), 14);
        let with_idx = rows.iter().filter(|s| s.initial_indexes).count();
        assert_eq!(with_idx, 6);
        // TPC-DS appears only without initial indexes.
        assert!(rows
            .iter()
            .filter(|s| s.benchmark == Benchmark::TpcdsSf1)
            .all(|s| !s.initial_indexes));
    }

    #[test]
    fn key_indexes_cover_referenced_keys_only() {
        let scenario = Scenario {
            benchmark: Benchmark::TpchSf1,
            dbms: Dbms::Postgres,
            initial_indexes: true,
        };
        let (db, w) = make_db(scenario, 1);
        let specs = key_index_specs(&db, &w);
        assert!(!specs.is_empty());
        for s in &specs {
            let col = db.catalog().column(s.columns[0]);
            assert!(col.primary_key || col.foreign_key);
        }
    }

    #[test]
    fn initial_indexes_speed_up_the_default_config() {
        let without = Scenario {
            benchmark: Benchmark::TpchSf1,
            dbms: Dbms::Postgres,
            initial_indexes: false,
        };
        let with = Scenario {
            initial_indexes: true,
            ..without
        };
        let (t_without, _) = probe_default_time(without, 1);
        let (t_with, _) = probe_default_time(with, 1);
        // Key indexes can only help under the default optimizer settings if
        // plans use them; at minimum they must not slow queries down much.
        assert!(t_with <= t_without * 1.1, "{t_with} vs {t_without}");
    }

    #[test]
    fn smoke_mode_accepts_nothing_or_exactly_smoke() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(smoke_mode(&args(&[])), Some(false));
        assert_eq!(smoke_mode(&args(&["--smoke"])), Some(true));
        assert_eq!(smoke_mode(&args(&["--smok"])), None);
        assert_eq!(smoke_mode(&args(&["--smoke", "x"])), None);
    }

    #[test]
    fn trajectory_band_tracks_running_minimum() {
        let runs = vec![
            vec![
                TrajectoryPoint {
                    opt_time: secs(10.0),
                    best_workload_time: secs(100.0),
                },
                TrajectoryPoint {
                    opt_time: secs(20.0),
                    best_workload_time: secs(50.0),
                },
            ],
            vec![TrajectoryPoint {
                opt_time: secs(15.0),
                best_workload_time: secs(80.0),
            }],
        ];
        let band = trajectory_band(&runs, 4);
        assert!(!band.is_empty());
        let last = band.last().unwrap();
        assert!(
            (last.1 - 65.0).abs() < 1e-9,
            "mean of 50 and 80, got {}",
            last.1
        );
        assert_eq!(last.2, 50.0);
        assert_eq!(last.3, 80.0);
    }
}
