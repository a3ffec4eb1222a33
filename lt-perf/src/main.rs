//! `lt-perf`: one wall-clock benchmark for λ-Tune, end to end and layer
//! by layer.
//!
//! ```text
//! lt-perf run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!             [--smoke] [--out PATH]
//! lt-perf compare BASE.json... -- NEW.json...
//! ```
//!
//! `run` drives each workload in child processes of its own (a re-executed
//! `lt-perf` or spawned `lt-serve` daemons) for a measured window of
//! `--seconds` (default: `run_seconds` of `BENCHMARK.json`, 3 s with
//! `--smoke`), prints every metric with its unit, writes the report file (default `results/BENCH_perf.json`) and
//! ends with one JSON line `{correct, attempted, failed, metrics}`. It exits
//! 1 when a check fails. `compare` prints each side's median and quartiles
//! per workload and metric with a verdict under the bounds declared in
//! `BENCHMARK.json`, and exits 1 on a regression, a higher error rate, or
//! a deterministic block that differs between runs of the same seed.
//!
//! The subcommands `workload`, `session` and `probe` are the child
//! processes `run` starts; they are not meant to be called by hand.

mod client;
mod inproc;
mod pipeline;
mod procs;
mod report;
mod serve;
mod setup;
mod stats;

use lt_common::json::Value;
use lt_common::{derive_seed, json};
use report::{Check, WorkloadResult};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["cold-job", "serve-read", "fabric-write", "store-tpch"];

/// Measured window of a `--smoke` run. Other runs default to the
/// `run_seconds` of `BENCHMARK.json`.
const SMOKE_SECONDS: f64 = 3.0;

/// Settings every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Minimum-size run for local validation.
    pub smoke: bool,
}

impl RunOpts {
    /// Sessions each client must finish inside the window (the fixed first
    /// slots the deterministic block covers).
    pub fn min_slots(&self, full: usize) -> usize {
        if self.smoke {
            2
        } else {
            full
        }
    }
}

/// Seed of session slot `i`: masked into i64 range because session seeds
/// travel through JSON, whose integers are i64.
pub fn slot_seed(seed: u64, i: u64) -> u64 {
    derive_seed(seed, i) & i64::MAX as u64
}

/// Seed of warm-up slot `i`: a separate stream, so warm-up sessions never
/// share a seed (and with it a fleet-cache entry) with a measured one.
pub fn warmup_seed(seed: u64, i: u64) -> u64 {
    slot_seed(derive_seed(seed, u64::MAX), i)
}

/// The quality of one of the first K slots, as it enters the
/// deterministic block.
#[derive(Debug, Clone)]
pub struct SlotQuality {
    /// Session seed.
    pub seed: u64,
    /// Winning script.
    pub script: String,
    /// Winner's workload time over the default configuration's.
    pub scaled_cost: f64,
    /// Virtual tuning time.
    pub tuning_vt: f64,
    /// Tokens billed.
    pub tokens: u64,
}

/// The deterministic block of a workload: per-slot winners and quality,
/// plus their means.
pub fn deterministic(benchmark: &str, slots: &[SlotQuality]) -> Value {
    let n = slots.len().max(1) as f64;
    let mean = |f: &dyn Fn(&SlotQuality) -> f64| slots.iter().map(f).sum::<f64>() / n;
    let rows: Vec<Value> = slots
        .iter()
        .map(|s| {
            json!({
                "seed": s.seed,
                "script_fx": format!("{:016x}", lt_common::hash_one(&s.script)),
                "scaled_cost": s.scaled_cost,
                "tuning_vt_s": s.tuning_vt,
                "tokens": s.tokens,
            })
        })
        .collect();
    json!({
        "benchmark": benchmark,
        "slots": Value::Array(rows),
        "tokens_per_session": mean(&|s| s.tokens as f64),
        "scaled_cost": mean(&|s| s.scaled_cost),
        "tuning_vt_s": mean(&|s| s.tuning_vt),
    })
}

/// End-to-end metrics from a window's session latencies.
pub struct Window {
    /// Seconds each repeated set-up took; `setup_s` is their median.
    pub setups_s: Vec<f64>,
    /// Session latencies in milliseconds.
    pub sessions_ms: Vec<f64>,
    /// Seconds from the window's start to its last completed session.
    pub elapsed_s: f64,
    /// Peak resident set of the processes under test, in MiB: the median
    /// per-session peak where each session is a process of its own
    /// (cold-job), the session process's peak over the window (store-tpch),
    /// the daemons' summed peak (HTTP workloads).
    pub peak_rss_mb: f64,
}

impl Window {
    /// The declared end-to-end metrics.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let p50 = stats::percentile(&self.sessions_ms, 50.0).unwrap_or(f64::NAN);
        BTreeMap::from([
            ("setup_s".to_string(), stats::median(&self.setups_s)),
            ("session_p50_ms".to_string(), p50),
            (
                "sessions_per_s".to_string(),
                self.sessions_ms.len() as f64 / self.elapsed_s.max(1e-9),
            ),
            ("peak_rss_mb".to_string(), self.peak_rss_mb),
        ])
    }

    /// Sample counts, the p90 and the tail percentile the sample supports.
    pub fn detail(&self) -> Value {
        let n = self.sessions_ms.len();
        let tail = stats::tail_percentile(n);
        json!({
            "sessions": n,
            "elapsed_s": self.elapsed_s,
            "session_p90_ms": stats::percentile(&self.sessions_ms, 90.0),
            "tail_percentile": tail,
            "tail_ms": tail.and_then(|p| stats::percentile(&self.sessions_ms, p)),
            "sessions_ms": self.sessions_ms.clone(),
            "setups_s": self.setups_s.clone(),
        })
    }
}

/// The trace metrics shared by every workload: per-layer means, coverage
/// and the overhead of tracing.
pub fn trace_metrics(
    layers: &[pipeline::Layers],
    coverage: f64,
    traced_ms: &[f64],
    untraced_ms: &[f64],
    wal_us: f64,
) -> BTreeMap<String, f64> {
    let mut metrics = pipeline::mean_layers(layers);
    metrics.insert("trace.coverage".to_string(), coverage);
    metrics.insert(
        "trace.overhead_ratio".to_string(),
        stats::median(traced_ms) / stats::median(untraced_ms),
    );
    metrics.insert("wal.append_sync_us".to_string(), wal_us);
    metrics
}

/// Mean microseconds of `LogWriter::append_sync` over the run's
/// acknowledged request bodies, appended on their own to a log in `dir`.
pub fn wal_append_sync_us(dir: &std::path::Path, bodies: &[String]) -> Result<f64, String> {
    let path = dir.join("append-sync.wal");
    let mut log = lt_common::wal::LogWriter::open(&path, lt_common::wal::WalOptions::default())
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let start = Instant::now();
    for body in bodies {
        log.append_sync(body.as_bytes())
            .map_err(|e| format!("append_sync: {e}"))?;
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / bodies.len().max(1) as f64;
    let _ = std::fs::remove_file(&path);
    Ok(us)
}

/// A check that every declared metric of the run's kind was produced.
pub fn completeness_check(result: &WorkloadResult) -> Check {
    let declared = if result.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let missing: Vec<&str> = declared
        .iter()
        .filter(|m| !result.metrics.get(m.name).is_some_and(|v| v.is_finite()))
        .map(|m| m.name)
        .collect();
    Check::new(
        "metrics_complete",
        "every declared metric is a finite number",
        if missing.is_empty() {
            "all present".to_string()
        } else {
            format!("missing {}", missing.join(", "))
        },
        missing.is_empty(),
    )
}

struct Args {
    workloads: Vec<String>,
    opts: RunOpts,
    out: String,
}

fn parse_run_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        opts: RunOpts {
            seed: 42,
            seconds: 0.0,
            trace: false,
            smoke: false,
        },
        out: "results/BENCH_perf.json".to_string(),
    };
    let mut seconds = None;
    let mut pending: Option<String> = None;
    while let Some(arg) = pending.take().or_else(|| argv.next()) {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w} ({})", WORKLOADS.join(", ")));
                }
                args.workloads.push(w);
            }
            "--seed" => {
                args.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--out" => args.out = value("--out")?,
            "--smoke" => args.opts.smoke = true,
            "--trace" => match argv.next() {
                Some(v) if v == "0" || v == "1" => args.opts.trace = v == "1",
                other => {
                    args.opts.trace = true;
                    pending = other;
                }
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.opts.seconds = seconds.unwrap_or(if args.opts.smoke {
        SMOKE_SECONDS
    } else {
        report::declared_run_seconds()
    });
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(args)
}

/// Runs one workload in a child process and parses its result.
fn run_workload(name: &str, opts: RunOpts) -> Result<WorkloadResult, String> {
    let scratch = procs::Scratch::new(name).map_err(|e| format!("scratch dir: {e}"))?;
    let mut cmd = procs::self_command()?;
    cmd.args([
        "workload",
        name,
        &opts.seed.to_string(),
        &opts.seconds.to_string(),
        if opts.trace { "1" } else { "0" },
        if opts.smoke { "1" } else { "0" },
    ]);
    let lines = procs::run_child(cmd, &scratch.0, Instant::now())?;
    let last = lines
        .last()
        .ok_or_else(|| format!("{name}: child printed nothing"))?;
    let doc = json::parse(&last.1).map_err(|e| format!("{name}: bad child output: {e}"))?;
    WorkloadResult::from_json(&doc).ok_or_else(|| format!("{name}: malformed child result"))
}

/// The `workload` child: runs one workload in this process and prints its
/// result as the last line.
fn workload_child(argv: &[String]) -> Result<(), String> {
    let [name, seed, seconds, trace, smoke] = argv else {
        return Err("usage: lt-perf workload NAME SEED SECONDS TRACE SMOKE".to_string());
    };
    let opts = RunOpts {
        seed: seed.parse().map_err(|e| format!("seed: {e}"))?,
        seconds: seconds.parse().map_err(|e| format!("seconds: {e}"))?,
        trace: trace == "1",
        smoke: smoke == "1",
    };
    let tmp = std::env::temp_dir();
    let mut result = match name.as_str() {
        "cold-job" => inproc::cold_job(opts, &tmp)?,
        "store-tpch" => inproc::store_tpch(opts, &tmp)?,
        "serve-read" => serve::serve_read(opts, &tmp)?,
        "fabric-write" => serve::fabric_write(opts, &tmp)?,
        other => return Err(format!("unknown workload {other}")),
    };
    result.workload = name.clone();
    result.seed = opts.seed;
    result.trace = opts.trace;
    let complete = completeness_check(&result);
    result.checks.push(complete);
    println!("{}", result.to_json().to_string_pretty().replace('\n', " "));
    Ok(())
}

fn run(args: Args) -> ExitCode {
    if args
        .workloads
        .iter()
        .any(|w| w.contains("serve") || w.contains("fabric"))
    {
        if let Err(e) = procs::server_binary() {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let previous = report::read_report(&args.out).unwrap_or_default();
    let mut results = Vec::new();
    for name in &args.workloads {
        match run_workload(name, args.opts) {
            Ok(mut result) => {
                // Check (b): a run repeating an earlier run's seed must
                // reproduce its deterministic block byte for byte.
                if let Some(prev) = previous.iter().find(|p| {
                    p.workload == result.workload
                        && p.seed == result.seed
                        && p.trace == result.trace
                }) {
                    let same = prev.deterministic.to_string_pretty()
                        == result.deterministic.to_string_pretty();
                    result.checks.push(Check::new(
                        "deterministic_repeat",
                        "deterministic block equals the previous run of this seed",
                        if same { "identical" } else { "differs" },
                        same,
                    ));
                }
                result.print();
                results.push(result);
            }
            Err(e) => {
                eprintln!("error: workload {name}: {e}");
                results.push(WorkloadResult {
                    workload: name.clone(),
                    seed: args.opts.seed,
                    trace: args.opts.trace,
                    attempted: 1,
                    failed: 1,
                    deterministic: Value::Null,
                    detail: Value::Null,
                    checks: vec![Check::new("workload_ran", "child exits 0", e, false)],
                    ..Default::default()
                });
            }
        }
    }
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let file = report::report_file(&results).to_string_pretty();
    if let Err(e) = std::fs::write(&args.out, file + "\n") {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    let correct = results.iter().all(WorkloadResult::correct);
    let single = results.len() == 1;
    let mut metrics = Vec::new();
    for r in &results {
        for (name, value) in &r.metrics {
            let unit = report::metric(name).map_or("", |m| m.unit);
            let key = if single {
                name.clone()
            } else {
                format!("{}/{name}", r.workload)
            };
            metrics.push((key, json!({ "value": *value, "unit": unit })));
        }
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::from(correct)),
        (
            "attempted".into(),
            Value::from(results.iter().map(|r| r.attempted).sum::<u64>()),
        ),
        (
            "failed".into(),
            Value::from(results.iter().map(|r| r.failed).sum::<u64>()),
        ),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", line.to_string_pretty().replace('\n', " "));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_cmd(argv: &[String]) -> ExitCode {
    let Some(split) = argv.iter().position(|a| a == "--") else {
        eprintln!("usage: lt-perf compare BASE.json... -- NEW.json...");
        return ExitCode::FAILURE;
    };
    let load = |paths: &[String]| -> Result<Vec<WorkloadResult>, String> {
        let mut all = Vec::new();
        for p in paths {
            all.extend(report::read_report(p)?);
        }
        Ok(all)
    };
    match (load(&argv[..split]), load(&argv[split + 1..])) {
        (Ok(base), Ok(new)) if !base.is_empty() && !new.is_empty() => {
            let (table, ok) = report::compare(&base, &new);
            print!("{table}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        _ => {
            eprintln!("error: both sides need at least one run file");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let child = |r: Result<(), String>| match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    };
    match argv.first().map(String::as_str) {
        Some("run") => match parse_run_args(argv.into_iter().skip(1)) {
            Ok(args) => run(args),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Some("compare") => compare_cmd(&argv[1..]),
        Some("workload") => child(workload_child(&argv[1..])),
        Some("session") => child(inproc::session_child(&argv[1..])),
        Some("probe") => child(inproc::probe_child(&argv[1..])),
        _ => {
            eprintln!(
                "usage: lt-perf run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                 [--smoke] [--out PATH]\n       lt-perf compare BASE.json... -- NEW.json..."
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_run_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn run_arguments_accept_valued_and_bare_trace_flags() {
        let a = parse(&[
            "--workload",
            "cold-job",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads, ["cold-job"]);
        assert_eq!(
            (a.opts.seed, a.opts.seconds, a.opts.trace),
            (7, 12.0, false)
        );
        let a = parse(&["--trace", "--smoke"]).unwrap();
        assert!(a.opts.trace && a.opts.smoke);
        assert_eq!(a.opts.seconds, SMOKE_SECONDS);
        assert_eq!(a.workloads.len(), WORKLOADS.len());
        let a = parse(&["--trace", "1"]).unwrap();
        assert!(a.opts.trace);
        assert_eq!(a.opts.seconds, report::declared_run_seconds());
        assert!(parse(&["--workload", "nosuch"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn slot_seeds_fit_json_integers_and_never_collide_with_warmup() {
        let measured: Vec<u64> = (0..64).map(|i| slot_seed(42, i)).collect();
        for i in 0..64 {
            assert!(measured[i as usize] <= i64::MAX as u64);
            assert!(!measured.contains(&warmup_seed(42, i)));
        }
    }
}
