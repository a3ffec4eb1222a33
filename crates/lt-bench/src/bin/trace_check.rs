//! Validates a trace sidecar written by `ObsRun` (run by the CI determinism
//! gate on every sidecar its traced pass writes).
//!
//! Checks that the event log contains spans for the LLM-call, ILP-solve and
//! config-eval phases plus the root `run` span, and that the per-phase
//! *exclusive* wall times sum to within 1% of the run's wall time — i.e.
//! the breakdown accounts for the whole run instead of double-counting
//! nested spans. Requires a trace produced with `LT_BENCH_THREADS=1` (with
//! worker threads, spans land outside the root span's tree by design).
//!
//! Usage: `cargo run --release -p lt-bench --bin trace_check -- \
//!         [results/fig6.trace.json]`

use lt_common::json::{parse, Value};
use std::process::ExitCode;

const REQUIRED_PHASES: [&str; 6] = [
    "run",
    "tune",
    "tune.llm_sample",
    "llm.call",
    "ilp.solve",
    "eval.config",
];

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/fig6.trace.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let Some(phases) = doc.get("phases").and_then(Value::as_array) else {
        eprintln!("error: {path}: missing \"phases\" array");
        return ExitCode::FAILURE;
    };
    let name_of = |p: &Value| p.get("name").and_then(Value::as_str).map(str::to_string);
    let mut failures = 0;
    for required in REQUIRED_PHASES {
        if !phases
            .iter()
            .any(|p| name_of(p).as_deref() == Some(required))
        {
            eprintln!("FAIL: phase {required:?} missing from {path}");
            failures += 1;
        }
    }

    let run_wall = phases
        .iter()
        .find(|p| name_of(p).as_deref() == Some("run"))
        .and_then(|p| p.get("wall_s"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let sum_self: f64 = phases
        .iter()
        .filter_map(|p| p.get("wall_self_s").and_then(Value::as_f64))
        .sum();
    if run_wall <= 0.0 {
        eprintln!("FAIL: run span has no positive wall time");
        failures += 1;
    } else {
        let rel = (sum_self - run_wall).abs() / run_wall;
        let verdict = if rel <= 0.01 { "ok" } else { "FAIL" };
        println!(
            "{verdict}: phase self-times sum to {sum_self:.3}s vs run wall \
             {run_wall:.3}s ({:.3}% off)",
            rel * 100.0
        );
        if rel > 0.01 {
            failures += 1;
        }
    }

    let events = doc
        .get("events")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    let counters = match doc.get("counters") {
        Some(Value::Object(fields)) => fields.len(),
        _ => 0,
    };
    println!(
        "ok: {} phases, {events} events, {counters} counters",
        phases.len()
    );
    if events == 0 || counters == 0 {
        eprintln!("FAIL: trace has no events or no counters");
        failures += 1;
    }

    if failures > 0 {
        eprintln!("{failures} trace check(s) failed for {path}");
        return ExitCode::FAILURE;
    }
    println!("trace {path} passed all checks");
    ExitCode::SUCCESS
}
