//! Storage-engine benchmark + cost-model calibration (`BENCH_store`).
//!
//! Exercises the real `lt-store` backend on scaled-down replicas of the
//! paper's workloads and closes the loop back to the simulator:
//!
//! 1. **Knob sweeps** — `shared_buffers` and `work_mem` each swept on a
//!    fresh [`StoreDb`]; the buffer-pool hit rate must rise with the pool
//!    and the spill count must fall with the sort/hash budget, proving the
//!    engine genuinely responds to the knobs the tuner turns.
//! 2. **Calibration** — fits the simulator's [`CostConstants`] (I/O, CPU
//!    and spill multipliers, coordinate descent in log space) so simulated
//!    query times track the engine's deterministic proxy times; the RMS
//!    `log10(sim/store)` residual must be lower after the fit than before.
//! 3. **Tuning** — runs the full λ-Tune pipeline against the engine and
//!    replays the winning configuration on a fresh instance, checking it
//!    beats the default configuration on measured (proxy) time.
//!
//! Everything in `results/BENCH_store.json` derives from deterministic
//! counters and holds no wall-clock value, so the determinism gate
//! compares it whole; the trace sidecar's `sweep`, `calibrate` and `tune`
//! spans carry the wall time.

use lambda_tune::{LambdaTune, LambdaTuneOptions};
use lt_bench::{base_seed, parallel_map, smoke_arg, write_results, ObsRun};
use lt_common::{json, obs, Secs};
use lt_dbms::{Configuration, CostConstants, Dbms, Hardware, SimDb, TuningTarget};
use lt_llm::{LlmClient, SimulatedLlm};
use lt_store::StoreDb;
use lt_workloads::{measure_workload, Benchmark, Workload};

/// Which knob a sweep cell varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepKnob {
    SharedBuffers,
    WorkMem,
}

/// One measured sweep point.
struct SweepPoint {
    value: &'static str,
    hit_rate: f64,
    spills: u64,
    spill_pages: u64,
    proxy_seconds: f64,
}

fn hardware() -> Hardware {
    Hardware::p3_2xlarge()
}

fn fresh_store(w: &Workload, seed: u64) -> StoreDb {
    StoreDb::new(Dbms::Postgres, w.catalog.clone(), hardware(), seed)
}

/// Measures one sweep cell on a fresh engine: applies the knob script,
/// warms the pool with one workload pass, then measures a steady-state
/// pass. Hit rate and spill counters come from the measured pass only.
fn sweep_cell(benchmark: Benchmark, knob: SweepKnob, value: &'static str, seed: u64) -> SweepPoint {
    let _span = obs::span("sweep");
    let w = benchmark.load();
    let mut db = fresh_store(&w, seed);
    let script = match knob {
        SweepKnob::SharedBuffers => format!("ALTER SYSTEM SET shared_buffers = '{value}';"),
        // Hold the pool fixed while work_mem varies so spill deltas are
        // attributable to the sort/hash budget alone.
        SweepKnob::WorkMem => format!(
            "ALTER SYSTEM SET shared_buffers = '1GB';\nALTER SYSTEM SET work_mem = '{value}';"
        ),
    };
    let config = Configuration::parse(&script, Dbms::Postgres, &w.catalog);
    db.apply_knobs(&config);
    measure_workload(&mut db, &w, Secs::INFINITY); // warm-up pass
    let bp0 = db.pool_stats();
    let ex0 = db.exec_totals();
    let proxy_seconds = measure_workload(&mut db, &w, Secs::INFINITY).0.as_f64();
    let bp1 = db.pool_stats();
    let ex1 = db.exec_totals();
    let hits = bp1.hits - bp0.hits;
    let misses = bp1.misses - bp0.misses;
    SweepPoint {
        value,
        hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        spills: ex1.spills - ex0.spills,
        spill_pages: ex1.spill_pages - ex0.spill_pages,
        proxy_seconds,
    }
}

/// RMS of `log10(sim/store)` over per-query time pairs.
fn rms_log10(sim: &[f64], store: &[f64]) -> f64 {
    let n = sim.len().max(1) as f64;
    let sum: f64 = sim
        .iter()
        .zip(store)
        .map(|(s, t)| (s.max(1e-12) / t.max(1e-12)).log10().powi(2))
        .sum();
    (sum / n).sqrt()
}

/// Per-query simulated times under scaled cost constants, on a fresh
/// simulator so calibration candidates never contaminate each other.
fn sim_times(w: &Workload, seed: u64, mults: [f64; 3]) -> Vec<f64> {
    let mut db = SimDb::new(Dbms::Postgres, w.catalog.clone(), hardware(), seed);
    db.set_cost_constants(CostConstants::scaled(mults[0], mults[1], mults[2]));
    w.queries
        .iter()
        .map(|q| db.execute(&q.parsed, Secs::INFINITY).time.as_f64())
        .collect()
}

struct Calibration {
    mults: [f64; 3],
    rms_before: f64,
    rms_after: f64,
    evals: usize,
}

/// Fits (io, cpu, spill) multipliers by coordinate descent over relative
/// factors in log space — derivative-free, deterministic, and monotone in
/// the objective (a candidate is only accepted when it strictly improves).
fn calibrate(benchmark: Benchmark, seed: u64, smoke: bool) -> Calibration {
    let _span = obs::span("calibrate");
    let w = benchmark.load();
    let store_times: Vec<f64> = {
        let mut db = fresh_store(&w, seed);
        w.queries
            .iter()
            .map(|q| db.execute(&q.parsed, Secs::INFINITY).time.as_f64())
            .collect()
    };
    let mut evals = 0usize;
    let mut eval = |m: [f64; 3]| {
        evals += 1;
        rms_log10(&sim_times(&w, seed, m), &store_times)
    };
    let mut mults = [1.0f64; 3];
    let rms_before = eval(mults);
    let mut best = rms_before;
    let factors = [0.25, 0.5, 0.7937, 1.26, 2.0, 4.0];
    let passes = if smoke { 2 } else { 3 };
    for _ in 0..passes {
        for dim in 0..3 {
            for &f in &factors {
                let mut candidate = mults;
                candidate[dim] = (candidate[dim] * f).clamp(0.05, 20.0);
                let r = eval(candidate);
                if r + 1e-12 < best {
                    best = r;
                    mults = candidate;
                }
            }
        }
    }
    Calibration {
        mults,
        rms_before,
        rms_after: best,
        evals,
    }
}

struct TuningOutcome {
    default_proxy_seconds: f64,
    tuned_proxy_seconds: f64,
    winner_knobs: usize,
    winner_indexes: usize,
}

/// Full λ-Tune run against the storage engine, then an apples-to-apples
/// replay: the winning configuration on a fresh engine vs. the default on
/// a fresh engine, both cold, both measured in proxy seconds.
fn tuning_phase(benchmark: Benchmark, seed: u64, smoke: bool) -> TuningOutcome {
    let _span = obs::span("tune");
    let w = benchmark.load();
    let mut default_db = fresh_store(&w, seed);
    let default_proxy_seconds = measure_workload(&mut default_db, &w, Secs::INFINITY)
        .0
        .as_f64();
    drop(default_db);

    let llm = LlmClient::new(SimulatedLlm::new());
    let options = LambdaTuneOptions {
        seed,
        num_configs: if smoke { 2 } else { 5 },
        ..Default::default()
    };
    let tuner = LambdaTune::new(options);
    let mut tune_db = fresh_store(&w, seed);
    let result = tuner
        .tune(&mut tune_db, &w, &llm)
        .expect("tuning run must succeed");
    drop(tune_db);
    let best = result
        .best_config
        .expect("selector must produce a winning configuration");

    let mut tuned_db = fresh_store(&w, seed);
    tuned_db.apply(&best);
    let tuned_proxy_seconds = measure_workload(&mut tuned_db, &w, Secs::INFINITY)
        .0
        .as_f64();
    TuningOutcome {
        default_proxy_seconds,
        tuned_proxy_seconds,
        winner_knobs: best.knob_changes().count(),
        winner_indexes: best.index_specs().len(),
    }
}

fn sweep_json(points: &[&SweepPoint], knob: SweepKnob) -> json::Value {
    json::Value::Array(
        points
            .iter()
            .map(|p| match knob {
                SweepKnob::SharedBuffers => json!({
                    "value": p.value,
                    "hit_rate": p.hit_rate,
                    "proxy_seconds": p.proxy_seconds,
                }),
                SweepKnob::WorkMem => json!({
                    "value": p.value,
                    "spills": p.spills as i64,
                    "spill_pages": p.spill_pages as i64,
                    "proxy_seconds": p.proxy_seconds,
                }),
            })
            .collect(),
    )
}

fn main() {
    let smoke = smoke_arg();
    let _obs = ObsRun::start("BENCH_store");
    let seed = base_seed();
    let benchmarks: Vec<Benchmark> = if smoke {
        vec![Benchmark::TpchSf1]
    } else {
        vec![Benchmark::TpchSf1, Benchmark::Job]
    };
    let sb_points: &[&'static str] = if smoke {
        &["128MB", "1GB", "15GB"]
    } else {
        &["128MB", "512MB", "2GB", "15GB"]
    };
    let wm_points: &[&'static str] = if smoke {
        &["4MB", "64MB", "4GB"]
    } else {
        &["4MB", "32MB", "256MB", "4GB"]
    };
    println!(
        "BENCH_store: lt-store knob sweeps + cost calibration ({})",
        if smoke { "smoke" } else { "full" }
    );

    // Every sweep cell builds its own engine from the same seed, so the
    // matrix is embarrassingly parallel and thread-count independent.
    let mut cells: Vec<(usize, SweepKnob, &'static str)> = Vec::new();
    for (bi, _) in benchmarks.iter().enumerate() {
        for &v in sb_points {
            cells.push((bi, SweepKnob::SharedBuffers, v));
        }
        for &v in wm_points {
            cells.push((bi, SweepKnob::WorkMem, v));
        }
    }
    let sweep_results = parallel_map(cells, |(bi, knob, value)| {
        (bi, knob, sweep_cell(benchmarks[bi], knob, value, seed))
    });

    // Calibration + tuning per benchmark (independent, so also parallel).
    let fits = parallel_map(benchmarks.clone(), |b| {
        (calibrate(b, seed, smoke), tuning_phase(b, seed, smoke))
    });

    let mut bench_docs = Vec::new();
    for (bi, benchmark) in benchmarks.iter().enumerate() {
        let sb: Vec<&SweepPoint> = sweep_results
            .iter()
            .filter(|(i, k, _)| *i == bi && *k == SweepKnob::SharedBuffers)
            .map(|(_, _, p)| p)
            .collect();
        let wm: Vec<&SweepPoint> = sweep_results
            .iter()
            .filter(|(i, k, _)| *i == bi && *k == SweepKnob::WorkMem)
            .map(|(_, _, p)| p)
            .collect();
        let hit_rate_increases = sb.windows(2).all(|w| w[1].hit_rate >= w[0].hit_rate - 1e-9)
            && sb.last().unwrap().hit_rate > sb.first().unwrap().hit_rate;
        // A workload whose plans never build large hashes or sorts (JOB:
        // tiny filtered dimension build sides, single-group MIN()
        // aggregates) legitimately spills zero pages at every budget; the
        // strict-decrease requirement only applies when the tightest
        // budget forces spills at all.
        let spills_at_min = wm.first().unwrap().spills;
        let spills_decrease = wm.windows(2).all(|w| w[1].spills <= w[0].spills)
            && (spills_at_min == 0 || wm.last().unwrap().spills < spills_at_min);
        assert!(
            hit_rate_increases,
            "{}: hit rate must rise with shared_buffers: {:?}",
            benchmark.name(),
            sb.iter().map(|p| (p.value, p.hit_rate)).collect::<Vec<_>>()
        );
        assert!(
            spills_decrease,
            "{}: spills must fall with work_mem: {:?}",
            benchmark.name(),
            wm.iter().map(|p| (p.value, p.spills)).collect::<Vec<_>>()
        );
        let (calib, tuning) = &fits[bi];
        assert!(
            calib.rms_after < calib.rms_before,
            "{}: calibrated cost fit must beat the uncalibrated one (rms log10 {:.3} vs {:.3})",
            benchmark.name(),
            calib.rms_after,
            calib.rms_before
        );
        let improved = tuning.tuned_proxy_seconds < tuning.default_proxy_seconds;
        let improvement_pct = 100.0 * (tuning.default_proxy_seconds - tuning.tuned_proxy_seconds)
            / tuning.default_proxy_seconds;
        assert!(
            improved,
            "{}: tuned configuration must beat the default ({:.3}s vs {:.3}s)",
            benchmark.name(),
            tuning.tuned_proxy_seconds,
            tuning.default_proxy_seconds
        );

        println!("\n== {} ==", benchmark.name());
        println!("  shared_buffers sweep (steady-state hit rate):");
        for p in &sb {
            println!(
                "    {:>6}  hit_rate {:.4}  proxy {:.3}s",
                p.value, p.hit_rate, p.proxy_seconds
            );
        }
        println!("  work_mem sweep (spilled operators per pass):");
        for p in &wm {
            println!(
                "    {:>6}  spills {:>3}  spill_pages {:>6}  proxy {:.3}s",
                p.value, p.spills, p.spill_pages, p.proxy_seconds
            );
        }
        println!(
            "  calibration: io x{:.3} cpu x{:.3} spill x{:.3}  rms log10 {:.3} -> {:.3} ({} evals)",
            calib.mults[0],
            calib.mults[1],
            calib.mults[2],
            calib.rms_before,
            calib.rms_after,
            calib.evals
        );
        println!(
            "  tuning: default {:.3}s -> tuned {:.3}s ({:+.1}% | {} knobs, {} indexes)",
            tuning.default_proxy_seconds,
            tuning.tuned_proxy_seconds,
            improvement_pct,
            tuning.winner_knobs,
            tuning.winner_indexes
        );

        bench_docs.push(json!({
            "name": benchmark.name(),
            "queries": benchmark.load().len() as i64,
            "shared_buffers_sweep": sweep_json(&sb, SweepKnob::SharedBuffers),
            "hit_rate_increases": hit_rate_increases,
            "work_mem_sweep": sweep_json(&wm, SweepKnob::WorkMem),
            "spills_at_min_work_mem": spills_at_min as i64,
            "spills_decrease": spills_decrease,
            "calibration": json!({
                "io_mult": calib.mults[0],
                "cpu_mult": calib.mults[1],
                "spill_mult": calib.mults[2],
                "rms_log10_before": calib.rms_before,
                "rms_log10_after": calib.rms_after,
                "evals": calib.evals as i64,
            }),
            "tuning": json!({
                "default_proxy_seconds": tuning.default_proxy_seconds,
                "tuned_proxy_seconds": tuning.tuned_proxy_seconds,
                "improvement_pct": improvement_pct,
                "improved": improved,
                "winner_knobs": tuning.winner_knobs as i64,
                "winner_indexes": tuning.winner_indexes as i64,
            }),
        }));
    }

    let doc = json!({
        "benchmark": "BENCH_store",
        "smoke": smoke,
        "seed": seed as i64,
        "backend": "store",
        "benchmarks": json::Value::Array(bench_docs),
    });
    let file = if smoke {
        "BENCH_store.smoke.json"
    } else {
        "BENCH_store.json"
    };
    write_results(file, &doc);
    println!("\nresults written to results/{file}");
}
