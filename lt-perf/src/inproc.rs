//! The two in-process workloads and the child processes they start.
//!
//! * `cold-job`: each session is a fresh `lt-perf session` process that
//!   loads JOB and runs `LambdaTune::tune` at the defaults, as the CLI
//!   does, so every process-wide cache (compression memo, global plan
//!   tier) starts cold and the ILP compression dominates.
//! * `store-tpch`: sessions of `StoreDb::new` plus `LambdaTune::tune` on
//!   TPC-H in one process, one after another, so query execution on the
//!   storage engine dominates.

use crate::pipeline::{self, Backend, Layers, Outcome, Spans};
use crate::procs;
use crate::report::{Check, WorkloadResult};
use crate::{slot_seed, warmup_seed, RunOpts, SlotQuality, Window};
use lt_common::json;
use lt_common::json::Value;
use lt_workloads::Benchmark;
use std::path::Path;
use std::time::Instant;

/// Upper bound on cold-job sessions per run.
const COLD_MAX_SLOTS: usize = 6;

fn parse_benchmark(name: &str) -> Result<Benchmark, String> {
    Benchmark::parse(name).map_err(|e| e.to_string())
}

/// The benchmark a workload tunes.
pub fn benchmark(workload: &str, smoke: bool) -> Benchmark {
    match workload {
        "cold-job" if !smoke => Benchmark::Job,
        _ => Benchmark::TpchSf1,
    }
}

/// The benchmark's name in session requests and the deterministic block.
pub fn slug(b: Benchmark) -> &'static str {
    match b {
        Benchmark::Job => "job",
        _ => "tpch-sf1",
    }
}

/// `lt-perf probe BENCHMARK`: loads the benchmark, says `ready`, exits.
/// Spawn-to-ready is the set-up time of the in-process workloads.
pub fn probe_child(argv: &[String]) -> Result<(), String> {
    let [bench] = argv else {
        return Err("usage: lt-perf probe BENCHMARK".to_string());
    };
    let workload = parse_benchmark(bench)?.load();
    println!("ready {}", workload.len());
    Ok(())
}

/// Seconds from spawning a probe process until it is ready.
pub fn probe_once(bench: Benchmark, tmp: &Path) -> Result<f64, String> {
    let mut cmd = procs::self_command()?;
    cmd.args(["probe", slug(bench)]);
    let lines = procs::run_child(cmd, tmp, Instant::now())?;
    let ready = lines
        .iter()
        .find(|(_, l)| l.starts_with("ready"))
        .ok_or("probe never became ready")?;
    Ok(ready.0)
}

fn outcome_json(o: &Outcome) -> Value {
    json!({
        "script": o.script.as_str(),
        "best_time": o.best_time,
        "tuning_vt": o.tuning_vt,
        "tokens": o.tokens,
    })
}

fn outcome_from(doc: &Value) -> Option<Outcome> {
    Some(Outcome {
        script: doc.get("script")?.as_str()?.to_string(),
        best_time: doc.get("best_time")?.as_f64()?,
        tuning_vt: doc.get("tuning_vt")?.as_f64()?,
        tokens: doc.get("tokens")?.as_i64()? as u64,
    })
}

fn layers_json(layers: &Layers) -> Value {
    Value::Object(
        layers
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect(),
    )
}

fn layers_from(doc: &Value) -> Layers {
    doc.as_object()
        .into_iter()
        .flatten()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect()
}

/// Check (c): the separate-call pipeline must send `build_prompt`'s
/// prompt and reach `tune`'s winner.
fn separate_call_checks(
    workload: &lt_workloads::Workload,
    backend: Backend,
    seed: u64,
    prompt: &str,
    outcome: &Outcome,
) -> Vec<Check> {
    let reference_prompt = pipeline::reference_prompt(workload, backend, seed);
    let reference = pipeline::tune(workload, backend, seed);
    vec![
        Check::new(
            "separate_call_prompt",
            "separate-call prompt == LambdaTune::build_prompt",
            format!("seed {seed}"),
            reference_prompt.as_deref() == Ok(prompt),
        ),
        Check::new(
            "separate_call_winner",
            "separate-call winner == LambdaTune::tune winner",
            format!("seed {seed}"),
            reference.as_ref() == Ok(outcome),
        ),
    ]
}

/// `lt-perf session BENCHMARK SEED TRACE`: one cold session. Prints the
/// answer as one JSON line the moment the winner is in hand; a traced
/// session then prints its separate-call checks on a second line.
pub fn session_child(argv: &[String]) -> Result<(), String> {
    let [bench, seed, trace] = argv else {
        return Err("usage: lt-perf session BENCHMARK SEED TRACE".to_string());
    };
    let bench = parse_benchmark(bench)?;
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    if trace != "1" {
        let workload = bench.load();
        let outcome = pipeline::tune(&workload, Backend::Sim, seed)?;
        let rss = procs::own_peak_rss_mib().unwrap_or(f64::NAN);
        let answer = json!({ "outcome": outcome_json(&outcome), "rss_mb": rss });
        println!("{}", answer.to_string_pretty().replace('\n', " "));
        return Ok(());
    }
    let mut spans = Spans::default();
    let workload = spans.time("workloads.load", || bench.load());
    let (outcome, prompt, mut layers) =
        pipeline::tune_traced(&workload, Backend::Sim, seed, &mut spans)?;
    layers.insert(
        "workloads.load_ms".to_string(),
        spans.get("workloads.load") * 1e3,
    );
    let rss = procs::own_peak_rss_mib().unwrap_or(f64::NAN);
    let answer = json!({
        "outcome": outcome_json(&outcome),
        "rss_mb": rss,
        "layers": layers_json(&layers),
        "spans_s": spans.total(),
    });
    println!("{}", answer.to_string_pretty().replace('\n', " "));
    let checks: Vec<Value> = separate_call_checks(&workload, Backend::Sim, seed, &prompt, &outcome)
        .iter()
        .map(Check::to_json)
        .collect();
    println!(
        "{}",
        Value::Array(checks).to_string_pretty().replace('\n', " ")
    );
    Ok(())
}

/// What the in-process workloads collect per session slot.
#[derive(Default)]
struct Slots {
    latencies_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    outcomes: Vec<(u64, Outcome)>,
    layers: Vec<Layers>,
    coverage: Vec<f64>,
    checks: Vec<Check>,
    failed: u64,
}

impl Slots {
    fn record(&mut self, traced: bool, ms: f64) {
        self.latencies_ms.push(ms);
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.untraced_ms.push(ms);
        }
    }
}

/// Assembles the result shared by both in-process workloads.
fn finish(
    opts: RunOpts,
    bench: Benchmark,
    backend: Backend,
    window: Window,
    slots: Slots,
    k: usize,
    tmp: &Path,
) -> Result<WorkloadResult, String> {
    let workload = bench.load();
    let mut quality = Vec::new();
    for (seed, o) in slots.outcomes.iter().take(k) {
        let default = pipeline::default_time(&workload, backend, *seed);
        quality.push(SlotQuality {
            seed: *seed,
            script: o.script.clone(),
            scaled_cost: o.best_time / default,
            tuning_vt: o.tuning_vt,
            tokens: o.tokens,
        });
    }
    let mut checks = slots.checks;
    let valid = slots.outcomes.iter().all(|(_, o)| {
        let parsed =
            lt_dbms::Configuration::parse(&o.script, lt_dbms::Dbms::Postgres, &workload.catalog);
        !parsed.is_empty() && o.best_time.is_finite() && o.best_time > 0.0
    });
    checks.push(Check::new(
        "winners_valid",
        "every winner parses to a non-empty configuration with a finite time",
        format!("{} sessions", slots.outcomes.len()),
        valid && !slots.outcomes.is_empty(),
    ));
    checks.push(Check::new(
        "first_slots_complete",
        &format!("the first {k} slots finished"),
        format!("{} finished", slots.outcomes.len()),
        slots.outcomes.len() >= k,
    ));
    let metrics = if opts.trace {
        let bodies: Vec<String> = slots
            .outcomes
            .iter()
            .map(|(seed, _)| format!("{{\"benchmark\": \"{}\", \"seed\": {seed}}}", slug(bench)))
            .collect();
        crate::trace_metrics(
            &slots.layers,
            crate::stats::median(&slots.coverage),
            &slots.traced_ms,
            &slots.untraced_ms,
            crate::wal_append_sync_us(tmp, &bodies)?,
        )
    } else {
        window.metrics()
    };
    Ok(WorkloadResult {
        attempted: slots.latencies_ms.len() as u64 + slots.failed,
        failed: slots.failed,
        metrics,
        deterministic: crate::deterministic(slug(bench), &quality),
        detail: json!({
            "window": window.detail(),
            "coverage_gap": "process spawn, exit and result printing (cold-job); \
                             configuration rendering (both)",
        }),
        checks,
        ..Default::default()
    })
}

/// The `cold-job` workload.
pub fn cold_job(opts: RunOpts, tmp: &Path) -> Result<WorkloadResult, String> {
    let bench = benchmark("cold-job", opts.smoke);
    let k = opts.min_slots(2);
    let setups_s = crate::setup::samples("cold-job", opts.smoke, tmp)?;
    let mut slots = Slots::default();
    let start = Instant::now();
    let mut elapsed = 0.0;
    for i in 0..COLD_MAX_SLOTS {
        if i >= k && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let seed = slot_seed(opts.seed, i as u64);
        let traced = opts.trace && i.is_multiple_of(2);
        let mut cmd = procs::self_command()?;
        cmd.args([
            "session",
            slug(bench),
            &seed.to_string(),
            if traced { "1" } else { "0" },
        ]);
        let spawned = Instant::now();
        let lines = match procs::run_child(cmd, tmp, spawned) {
            Ok(lines) => lines,
            Err(e) => {
                eprintln!("cold-job slot {i}: {e}");
                slots.failed += 1;
                continue;
            }
        };
        let parsed = lines
            .first()
            .and_then(|(t, l)| Some((*t, json::parse(l).ok()?)));
        let Some((answered, doc)) = parsed else {
            slots.failed += 1;
            continue;
        };
        let Some(outcome) = doc.get("outcome").and_then(outcome_from) else {
            slots.failed += 1;
            continue;
        };
        let ms = answered * 1e3;
        slots.record(traced, ms);
        elapsed = start.elapsed().as_secs_f64();
        slots.rss_mb.push(
            doc.get("rss_mb")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
        );
        if traced {
            slots
                .layers
                .push(layers_from(doc.get("layers").unwrap_or(&Value::Null)));
            let spans = doc.get("spans_s").and_then(Value::as_f64).unwrap_or(0.0);
            slots.coverage.push(spans / answered);
            let checks: Vec<Check> = lines
                .get(1)
                .and_then(|(_, l)| json::parse(l).ok())
                .as_ref()
                .and_then(Value::as_array)
                .into_iter()
                .flatten()
                .filter_map(Check::from_json)
                .collect();
            if checks.is_empty() {
                slots.checks.push(Check::new(
                    "separate_call_checks_reported",
                    "a traced session reports its separate-call checks",
                    format!("none for seed {seed}"),
                    false,
                ));
            }
            slots.checks.extend(checks);
        }
        slots.outcomes.push((seed, outcome));
    }
    let window = Window {
        setups_s,
        sessions_ms: slots.latencies_ms.clone(),
        elapsed_s: elapsed,
        peak_rss_mb: crate::stats::median(&slots.rss_mb),
    };
    finish(opts, bench, Backend::Sim, window, slots, k, tmp)
}

/// The `store-tpch` workload.
pub fn store_tpch(opts: RunOpts, tmp: &Path) -> Result<WorkloadResult, String> {
    let bench = benchmark("store-tpch", opts.smoke);
    let k = opts.min_slots(4);
    let setups_s = crate::setup::samples("store-tpch", opts.smoke, tmp)?;
    let workload = bench.load();
    // Warm-up: one session fills the compression memo and the global plan
    // tier, which every later session of a long-lived process finds warm.
    pipeline::tune(&workload, Backend::Store, warmup_seed(opts.seed, 0))?;
    let mut slots = Slots::default();
    let mut separate_checks = 0;
    procs::reset_own_peak_rss();
    let start = Instant::now();
    let mut elapsed = 0.0;
    let mut i = 0u64;
    while (i as usize) < k || start.elapsed().as_secs_f64() < opts.seconds {
        let seed = slot_seed(opts.seed, i);
        let traced = opts.trace && i.is_multiple_of(2);
        let began = Instant::now();
        let result = if traced {
            let mut spans = Spans::default();
            pipeline::tune_traced(&workload, Backend::Store, seed, &mut spans).map(
                |(o, prompt, mut layers)| {
                    let ms = began.elapsed().as_secs_f64() * 1e3;
                    // Loading is set-up here, not part of the session, so
                    // the layer is timed on its own.
                    let load = Instant::now();
                    std::hint::black_box(bench.load());
                    layers.insert(
                        "workloads.load_ms".to_string(),
                        load.elapsed().as_secs_f64() * 1e3,
                    );
                    (o, ms, Some((prompt, layers, spans.total() * 1e3 / ms)))
                },
            )
        } else {
            pipeline::tune(&workload, Backend::Store, seed)
                .map(|o| (o, began.elapsed().as_secs_f64() * 1e3, None))
        };
        match result {
            Ok((outcome, ms, trace)) => {
                slots.record(traced, ms);
                elapsed = start.elapsed().as_secs_f64();
                if let Some((prompt, layers, coverage)) = trace {
                    slots.layers.push(layers);
                    slots.coverage.push(coverage);
                    // The references cost a session each; two suffice.
                    if separate_checks < 2 {
                        separate_checks += 1;
                        slots.checks.extend(separate_call_checks(
                            &workload,
                            Backend::Store,
                            seed,
                            &prompt,
                            &outcome,
                        ));
                    }
                }
                slots.outcomes.push((seed, outcome));
            }
            Err(e) => {
                eprintln!("store-tpch slot {i}: {e}");
                slots.failed += 1;
            }
        }
        i += 1;
    }
    let window = Window {
        setups_s,
        sessions_ms: slots.latencies_ms.clone(),
        elapsed_s: elapsed,
        peak_rss_mb: procs::own_peak_rss_mib().unwrap_or(f64::NAN),
    };
    finish(opts, bench, Backend::Store, window, slots, k, tmp)
}
