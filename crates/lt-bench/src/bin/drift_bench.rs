//! Drift-detection and warm-start re-tuning benchmark.
//!
//! Three sections, each an acceptance bound of the lt-drift subsystem:
//!
//! 1. **False positives** — stationary streams must raise zero alarms.
//! 2. **Detection** — every shifted class (mix, scale, predicate) must be
//!    detected within 500 queries of the shift point, on every trial seed.
//! 3. **Re-tune quality** — the warm-start re-tune must land within 5 % of
//!    the full-budget re-tune's workload time while spending at most half
//!    its LLM-token and evaluation-time budget.
//!
//! Writes `results/BENCH_drift.json` — the committed evidence for the
//! bounds above. `--smoke` shrinks stream lengths and trial counts and
//! writes to `results/BENCH_drift.smoke.json` instead, so a CI pass never
//! clobbers the committed numbers.
//!
//! Determinism: every cell seeds its own simulated database and detector
//! from the base seed, cells run on [`parallel_map`] and are emitted in
//! input order, and no wall-clock value enters stdout or the JSON — the
//! CI gate diffs this artifact across `LT_BENCH_THREADS=1` and `=4`.

use lt_bench::{base_seed, parallel_map, smoke_arg, trials, write_results, ObsRun};
use lt_common::{derive_seed, json};
use lt_drift::{compare_retune, run_stream, DriftConfig, StreamRunReport};
use lt_synth::{PhasedStreamSpec, ShiftClass};

/// Detection-latency acceptance bound (queries after the shift point).
const DETECT_BOUND: u64 = 500;
/// Warm-start quality bound: `warm_time / full_time` must stay below this.
const QUALITY_BOUND: f64 = 1.05;
/// Warm-start budget bound on tokens and evaluation time.
const BUDGET_BOUND: f64 = 0.5;

fn events_json(report: &StreamRunReport) -> json::Value {
    json::Value::Array(report.events.iter().map(|e| e.to_json()).collect())
}

fn main() {
    let smoke = smoke_arg();
    let seed = base_seed();
    let n_trials = if smoke { 1 } else { trials() };
    let stationary_len = if smoke { 1_500 } else { 10_000 };
    let (shift_at, shifted_len) = (600, 1_400);
    let config = DriftConfig::default();
    let _obs = ObsRun::start("BENCH_drift");
    println!("Drift benchmark: detectors + warm-start re-tuning");
    println!("(seed {seed}, {n_trials} trial(s), stationary len {stationary_len}, shift at {shift_at}/{shifted_len})\n");

    let mut all_pass = true;

    // 1. False positives: stationary streams, every alarm is false.
    let stationary: Vec<StreamRunReport> = parallel_map(
        (0..n_trials)
            .map(|t| PhasedStreamSpec {
                shift: ShiftClass::Stationary,
                shift_at: 0,
                len: stationary_len,
                seed: derive_seed(seed, t as u64),
            })
            .collect(),
        |spec| run_stream(spec, &config),
    );
    let false_alarms: usize = stationary.iter().map(|r| r.false_alarms).sum();
    let fp_pass = false_alarms == 0;
    all_pass &= fp_pass;
    println!("== false positives ==");
    for r in &stationary {
        println!(
            "  stationary seed {:>20}: {} alarms over {} queries",
            r.spec.seed, r.false_alarms, r.spec.len
        );
    }
    println!(
        "  total: {false_alarms} false alarms over {} streams — {}\n",
        stationary.len(),
        if fp_pass { "PASS" } else { "FAIL" }
    );

    // 2. Detection latency per shift class.
    let cells: Vec<(ShiftClass, u64)> = ShiftClass::shifted()
        .into_iter()
        .flat_map(|class| (0..n_trials).map(move |t| (class, t as u64)))
        .collect();
    let reports = parallel_map(cells.clone(), |(class, t)| {
        run_stream(
            PhasedStreamSpec {
                shift: class,
                shift_at,
                len: shifted_len,
                seed: derive_seed(seed, 100 + t),
            },
            &config,
        )
    });
    println!("== detection latency (bound: {DETECT_BOUND} queries) ==");
    let mut detection = Vec::new();
    for class in ShiftClass::shifted() {
        let class_reports: Vec<&StreamRunReport> = cells
            .iter()
            .zip(&reports)
            .filter(|((c, _), _)| *c == class)
            .map(|(_, r)| r)
            .collect();
        let latencies: Vec<Option<u64>> =
            class_reports.iter().map(|r| r.detection_latency).collect();
        let pre_shift: usize = class_reports.iter().map(|r| r.false_alarms).sum();
        let detected = latencies.iter().filter(|l| l.is_some()).count();
        let max_latency = latencies.iter().filter_map(|l| *l).max();
        let class_pass = pre_shift == 0
            && detected == class_reports.len()
            && max_latency.is_some_and(|m| m <= DETECT_BOUND);
        all_pass &= class_pass;
        let shown: Vec<String> = latencies
            .iter()
            .map(|l| l.map_or("miss".to_string(), |v| v.to_string()))
            .collect();
        println!(
            "  {:<15} detected {detected}/{} latencies [{}] pre-shift alarms {pre_shift} — {}",
            class.name(),
            class_reports.len(),
            shown.join(", "),
            if class_pass { "PASS" } else { "FAIL" }
        );
        detection.push(json!({
            "class": class.name(),
            "runs": class_reports.len() as f64,
            "detected": detected as f64,
            "pre_shift_alarms": pre_shift as f64,
            "latencies": json::Value::Array(
                latencies
                    .iter()
                    .map(|l| l.map_or(json::Value::Null, |v| json::Value::Int(v as i64)))
                    .collect(),
            ),
            "bound": DETECT_BOUND as f64,
            "events": json::Value::Array(class_reports.iter().map(|r| events_json(r)).collect()),
            "pass": class_pass,
        }));
    }
    println!();

    // 3. Warm-start re-tune quality vs the full-budget re-tune.
    let comparisons = parallel_map((0..n_trials as u64).collect::<Vec<_>>(), |t| {
        (seed + t, compare_retune(seed + t))
    });
    println!("== warm-start re-tune (quality ≤ {QUALITY_BOUND}, budget ≤ {BUDGET_BOUND}) ==");
    let mut per_seed = Vec::new();
    let mut ratios = Vec::new();
    let mut token_fractions = Vec::new();
    let mut time_fractions = Vec::new();
    for (s, outcome) in &comparisons {
        match outcome {
            Ok(c) => {
                let token_fraction = c.warm_tokens as f64 / c.full_tokens.max(1) as f64;
                let time_fraction = c.warm_tuning_time / c.full_tuning_time.max(1e-9);
                let seed_pass = c.quality_ratio <= QUALITY_BOUND
                    && token_fraction <= BUDGET_BOUND
                    && time_fraction <= BUDGET_BOUND;
                all_pass &= seed_pass;
                println!(
                    "  seed {s}: stale {:.1}s full {:.1}s warm {:.1}s quality {:.4} tokens {:.2}x time {:.2}x — {}",
                    c.stale_time,
                    c.full_time,
                    c.warm_time,
                    c.quality_ratio,
                    token_fraction,
                    time_fraction,
                    if seed_pass { "PASS" } else { "FAIL" }
                );
                ratios.push(c.quality_ratio);
                token_fractions.push(token_fraction);
                time_fractions.push(time_fraction);
                per_seed.push(json!({
                    "seed": *s as f64,
                    "stale_time_s": c.stale_time,
                    "full_time_s": c.full_time,
                    "warm_time_s": c.warm_time,
                    "quality_ratio": c.quality_ratio,
                    "token_fraction": token_fraction,
                    "time_fraction": time_fraction,
                    "pass": seed_pass,
                }));
            }
            Err(e) => {
                all_pass = false;
                println!("  seed {s}: FAIL ({e})");
                per_seed.push(json!({ "seed": *s as f64, "error": format!("{e}") }));
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    println!(
        "  mean: quality {:.4} tokens {:.2}x time {:.2}x\n",
        mean(&ratios),
        mean(&token_fractions),
        mean(&time_fractions)
    );

    let file = if smoke {
        "BENCH_drift.smoke.json"
    } else {
        "BENCH_drift.json"
    };
    write_results(
        file,
        &json!({
            "bench": "drift",
            "seed": seed as f64,
            "trials": n_trials as f64,
            "stationary_len": stationary_len as f64,
            "shift_at": shift_at as f64,
            "shifted_len": shifted_len as f64,
            "false_positives": json!({
                "streams": stationary.len() as f64,
                "queries_per_stream": stationary_len as f64,
                "total_false_alarms": false_alarms as f64,
                "pass": fp_pass,
            }),
            "detection": json::Value::Array(detection),
            "retune": json!({
                "per_seed": json::Value::Array(per_seed),
                "mean_quality_ratio": mean(&ratios),
                "mean_token_fraction": mean(&token_fractions),
                "mean_time_fraction": mean(&time_fractions),
                "quality_bound": QUALITY_BOUND,
                "budget_bound": BUDGET_BOUND,
            }),
            "pass": all_pass,
        }),
    );
    println!("written to results/{file}");
    println!("{}", if all_pass { "PASS" } else { "FAIL" });
    if !all_pass {
        std::process::exit(1);
    }
}
