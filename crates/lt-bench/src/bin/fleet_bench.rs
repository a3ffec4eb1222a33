//! Fleet-scale amortization benchmark.
//!
//! Four sections, each an acceptance bound of the lt-fleet subsystem:
//!
//! 1. **Cold fleet** — N tenants drawn from K archetypes (N ≫ K) tuned
//!    through the serving layer with the tuning cache disabled: every
//!    session pays the full prompt → sample → evaluate pipeline.
//! 2. **Warm fleet** — the same N tenants with the cache enabled, run as a
//!    populate wave (one session per archetype) and a hit wave (everything
//!    else replays). Token and evaluation work per session must drop by the
//!    acceptance factors, and every replayed winner must be byte-identical
//!    to its cold-phase counterpart.
//! 3. **Batched sampling** — the pipeline run directly at batch size 1 and
//!    8 must produce byte-identical winners; batching only shrinks the
//!    prompt-token bill.
//! 4. **Warm-start transfer** — a drifted workload served from the nearest
//!    cached neighbour must stay within the 1.05 quality bound of a cold
//!    run at no more than half the prompt tokens.
//!
//! Writes `results/BENCH_fleet.json` (`--smoke` shrinks the tenant count
//! and acceptance factors and writes `results/BENCH_fleet.smoke.json`).
//!
//! Determinism: token totals are obs-counter deltas around completed
//! phases, evaluation work is the *virtual* time of `tune` spans, and no
//! wall-clock value enters the JSON (wall throughput goes to stdout only) —
//! the CI gate diffs this artifact across `LT_BENCH_THREADS=1` and `=4`.
//! The server phases run before [`ObsRun`] starts, so the trace sidecar
//! covers only the single-threaded sections and stays `trace_check`-clean.

use lt_bench::{base_seed, bench_threads, smoke_arg, write_results, ObsRun};
use lt_common::json::{parse, Value};
use lt_common::{derive_seed, json, obs};
use lt_dbms::{Dbms, Hardware, SimDb};
use lt_fleet::{fleet_tune, FleetCache, Served, TransferOptions};
use lt_llm::{LlmClient, SimulatedLlm};
use lt_serve::http::Connection;
use lt_serve::{start, ServerConfig};
use lt_workloads::Benchmark;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Warm/cold token-per-session reduction the full run must reach.
const TOKEN_FACTOR: f64 = 10.0;
/// Warm/cold evaluation-time-per-session reduction the full run must reach.
const EVAL_FACTOR: f64 = 5.0;
/// Transfer quality bound (the lt-drift warm-retune contract).
const QUALITY_BOUND: f64 = 1.05;
/// Transfer prompt-token bound relative to a cold run.
const TRANSFER_TOKEN_BOUND: f64 = 0.5;

/// One of the K request shapes the fleet repeats.
struct Archetype {
    benchmark: &'static str,
    num_configs: usize,
}

const ARCHETYPES: [Archetype; 4] = [
    Archetype {
        benchmark: "tpch-sf1",
        num_configs: 2,
    },
    Archetype {
        benchmark: "tpch-sf1",
        num_configs: 3,
    },
    Archetype {
        benchmark: "tpcds-sf1",
        num_configs: 2,
    },
    Archetype {
        benchmark: "tpcds-sf1",
        num_configs: 3,
    },
];

/// Rounds to microseconds. Virtual-time totals are sums over spans whose
/// accumulation order follows worker scheduling; the values agree to
/// ~1e-12 relative across schedules but not bit-for-bit, and the CI
/// determinism gate byte-diffs this JSON across thread counts.
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Counter total by name (0 when the counter never fired).
fn counter_total(name: &str) -> u64 {
    obs::snapshot()
        .counters
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// The deterministic work measures of everything run so far: LLM tokens
/// billed, pipeline (`tune` span) executions and their virtual seconds.
#[derive(Debug, Clone, Copy)]
struct WorkMark {
    tokens: u64,
    tunes: u64,
    tune_vt: f64,
}

impl WorkMark {
    fn now() -> WorkMark {
        let snap = obs::snapshot();
        let tune = snap.phases.into_iter().find(|p| p.name == "tune");
        WorkMark {
            tokens: counter_total("llm.prompt_tokens") + counter_total("llm.completion_tokens"),
            tunes: tune.as_ref().map(|p| p.count).unwrap_or(0),
            tune_vt: tune.as_ref().map(|p| p.vt).unwrap_or(0.0),
        }
    }

    fn since(&self, earlier: &WorkMark) -> WorkMark {
        WorkMark {
            tokens: self.tokens - earlier.tokens,
            tunes: self.tunes - earlier.tunes,
            tune_vt: self.tune_vt - earlier.tune_vt,
        }
    }
}

/// What the server reported for one tenant session.
#[derive(Debug, Clone, PartialEq)]
struct TenantOutcome {
    state: String,
    script: String,
    best_time: f64,
}

/// Submits one session per tenant index, waits for all of them, and fetches
/// the winners. All exchanges share one keep-alive connection.
fn drive_tenants(addr: SocketAddr, seed: u64, tenants: &[usize], k: usize) -> Vec<TenantOutcome> {
    let mut conn = Connection::new(addr);
    let mut ids = Vec::with_capacity(tenants.len());
    for &tenant in tenants {
        let archetype = &ARCHETYPES[tenant % k];
        // Tenants of one archetype share the session seed: at fleet scale
        // the same request recurs, which is exactly what the cache
        // amortizes. Masked into i64 — seeds travel through JSON.
        let session_seed = derive_seed(seed, (tenant % k) as u64) & (i64::MAX as u64);
        let body = json!({
            "benchmark": archetype.benchmark,
            "seed": session_seed,
            "num_configs": archetype.num_configs,
        })
        .to_string_pretty();
        let (status, _, response) = conn
            .call("POST", "/sessions", &[], Some(&body))
            .expect("submit");
        assert_eq!(status, 202, "tenant {tenant} rejected: {response}");
        let id = parse(&response)
            .ok()
            .and_then(|d| d.get("id")?.as_i64())
            .expect("session id");
        ids.push(id);
    }
    let deadline = Instant::now() + Duration::from_secs(600);
    ids.iter()
        .map(|id| loop {
            let (status, _, response) = conn
                .call("GET", &format!("/sessions/{id}"), &[], None)
                .expect("poll");
            assert_eq!(status, 200);
            let doc = parse(&response).expect("status document");
            let state = doc
                .get("state")
                .and_then(Value::as_str)
                .expect("state")
                .to_string();
            match state.as_str() {
                "done" => {
                    let (status, _, config) = conn
                        .call("GET", &format!("/sessions/{id}/config"), &[], None)
                        .expect("config");
                    assert_eq!(status, 200, "{config}");
                    let config = parse(&config).expect("config document");
                    break TenantOutcome {
                        state,
                        script: config
                            .get("script")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        best_time: config
                            .get("best_time_s")
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0),
                    };
                }
                "failed" | "cancelled" => panic!("session {id} ended {state}: {response}"),
                _ => {
                    assert!(Instant::now() < deadline, "session {id} stuck in {state}");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        })
        .collect()
}

fn main() {
    let smoke = smoke_arg();
    let seed = base_seed();
    let k = ARCHETYPES.len();
    let tenants = if smoke { 4 * k } else { 16 * k };
    let (token_factor, eval_factor) = if smoke {
        // A 4-per-archetype smoke fleet caps the attainable ratio at ~4×.
        (2.0, 2.0)
    } else {
        (TOKEN_FACTOR, EVAL_FACTOR)
    };
    obs::set_enabled(true);
    println!("Fleet amortization benchmark: tuning cache + batched sampling + transfer");
    println!(
        "(seed {seed}, {tenants} tenants from {k} archetypes, {} worker(s))\n",
        bench_threads()
    );
    let mut all_pass = true;

    // ---- sections 1+2: the tenant fleet through the serving layer ----
    let mut server = start(ServerConfig {
        workers: bench_threads(),
        queue_depth: tenants + 8,
        max_connections: 64,
        tenant_cap: tenants + 8,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();
    let fleet = FleetCache::global();
    let all: Vec<usize> = (0..tenants).collect();

    // 1. Cold: cache off, every session pays full price.
    fleet.set_enabled(false);
    let mark = WorkMark::now();
    let cold_started = Instant::now();
    let cold_outcomes = drive_tenants(addr, seed, &all, k);
    let cold_wall = cold_started.elapsed();
    let cold = WorkMark::now().since(&mark);

    // 2. Warm: populate one session per archetype, then replay the rest.
    // The wave barrier makes the hit count schedule-independent: by the
    // time the second wave is submitted, every archetype is cached.
    fleet.set_enabled(true);
    fleet.clear();
    let hits_before = counter_total("fleet.tune_hit");
    let mark = WorkMark::now();
    let warm_started = Instant::now();
    let mut warm_outcomes = drive_tenants(addr, seed, &all[..k], k);
    warm_outcomes.extend(drive_tenants(addr, seed, &all[k..], k));
    let warm_wall = warm_started.elapsed();
    let warm = WorkMark::now().since(&mark);
    let hits = counter_total("fleet.tune_hit") - hits_before;
    server.shutdown();

    let replay_identical = cold_outcomes == warm_outcomes;
    let expected_hits = (tenants - k) as u64;
    let per = |w: &WorkMark, what: &str| -> (f64, f64) {
        let tokens = w.tokens as f64 / tenants as f64;
        let vt = w.tune_vt / tenants as f64;
        println!(
            "  {what}: {} tokens ({tokens:.0}/session), {} pipeline runs, {:.1} vt-s ({vt:.2}/session)",
            w.tokens, w.tunes, w.tune_vt
        );
        (tokens, vt)
    };
    println!("== fleet: {tenants} tenants, {k} archetypes ==");
    let (cold_tokens, cold_vt) = per(&cold, "cold");
    let (warm_tokens, warm_vt) = per(&warm, "warm");
    let token_ratio = cold_tokens / warm_tokens.max(1e-9);
    let eval_ratio = cold_vt / warm_vt.max(1e-9);
    let fleet_pass = replay_identical
        && hits == expected_hits
        && token_ratio >= token_factor
        && eval_ratio >= eval_factor;
    all_pass &= fleet_pass;
    println!(
        "  hits {hits}/{expected_hits}, replay identical: {replay_identical}, tokens {token_ratio:.1}x (bound {token_factor}x), eval {eval_ratio:.1}x (bound {eval_factor}x) — {}",
        if fleet_pass { "PASS" } else { "FAIL" }
    );
    println!(
        "  wall (stdout only): cold {:.1}s ({:.1} sessions/s), warm {:.1}s ({:.1} sessions/s)\n",
        cold_wall.as_secs_f64(),
        tenants as f64 / cold_wall.as_secs_f64().max(1e-9),
        warm_wall.as_secs_f64(),
        tenants as f64 / warm_wall.as_secs_f64().max(1e-9),
    );

    // The remaining sections run the pipeline directly on this thread; the
    // trace sidecar starts here so `trace_check`'s single-thread accounting
    // holds (the server phases above ran on worker threads).
    let _obs = ObsRun::start("BENCH_fleet");

    // 3. Batched sampling: byte-identical winners at batch size 1 vs 8.
    println!("== batched sampling (batch 1 vs 8) ==");
    let workload = Benchmark::TpchSf1.load();
    let mut batch_runs = Vec::new();
    for batch in [1usize, 8] {
        let mut db = SimDb::new(
            Dbms::Postgres,
            workload.catalog.clone(),
            Hardware::p3_2xlarge(),
            seed,
        );
        let llm = LlmClient::new(SimulatedLlm::new());
        let tuner = lambda_tune::LambdaTune::new(lambda_tune::LambdaTuneOptions {
            num_configs: 8,
            seed,
            ..Default::default()
        })
        .with_sample_batch(batch);
        let result = tuner.tune(&mut db, &workload, &llm).expect("tune");
        let scripts: Vec<String> = result
            .configs
            .iter()
            .map(|c| c.to_script(Dbms::Postgres, &workload.catalog))
            .collect();
        println!(
            "  batch {batch}: {} calls, {} prompt tokens, best {:?} at {:.2}s",
            result.llm_usage.calls,
            result.llm_usage.prompt_tokens,
            result.best_index,
            result.best_time.as_f64()
        );
        batch_runs.push((batch, scripts, result));
    }
    let (_, scripts_1, run_1) = &batch_runs[0];
    let (_, scripts_8, run_8) = &batch_runs[1];
    let batch_identical = scripts_1 == scripts_8
        && run_1.best_index == run_8.best_index
        && run_1.best_time == run_8.best_time
        && run_1.trajectory == run_8.trajectory;
    let batch_token_fraction =
        run_8.llm_usage.prompt_tokens as f64 / run_1.llm_usage.prompt_tokens.max(1) as f64;
    let batch_pass = batch_identical && batch_token_fraction < 1.0;
    all_pass &= batch_pass;
    println!(
        "  identical: {batch_identical}, prompt tokens {batch_token_fraction:.2}x — {}\n",
        if batch_pass { "PASS" } else { "FAIL" }
    );

    // 4. Warm-start transfer on a drifted workload.
    println!(
        "== warm-start transfer (quality ≤ {QUALITY_BOUND}, tokens ≤ {TRANSFER_TOKEN_BOUND}) =="
    );
    let cache = FleetCache::new(16);
    let mut db = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        seed,
    );
    let llm = LlmClient::new(SimulatedLlm::new());
    fleet_tune(
        &cache,
        &mut db,
        &workload,
        &llm,
        lambda_tune::LambdaTune::new(lambda_tune::LambdaTuneOptions {
            seed,
            ..Default::default()
        }),
        "",
        None,
    )
    .expect("seed the cache");
    let drifted = lt_drift::drifted_workload().expect("drifted workload");
    let run_seed = derive_seed(seed, 77);
    let run_opts = lambda_tune::LambdaTuneOptions {
        seed: run_seed,
        ..Default::default()
    };
    let mut db_cold = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        run_seed,
    );
    let llm_cold = LlmClient::new(SimulatedLlm::new());
    let cold_run = lambda_tune::LambdaTune::new(run_opts)
        .tune(&mut db_cold, &drifted, &llm_cold)
        .expect("cold drifted run");
    let mut db_warm = SimDb::new(
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
        run_seed,
    );
    let llm_warm = LlmClient::new(SimulatedLlm::new());
    let transferred = fleet_tune(
        &cache,
        &mut db_warm,
        &drifted,
        &llm_warm,
        lambda_tune::LambdaTune::new(run_opts),
        "",
        Some(TransferOptions {
            max_distance: 1.0,
            budget_fraction: 0.5,
        }),
    )
    .expect("transfer run");
    let distance = match transferred.served {
        Served::Transfer(d) => d,
        other => panic!("expected a transfer, got {other:?}"),
    };
    let quality_ratio = transferred.result.best_time.as_f64() / cold_run.best_time.as_f64();
    let transfer_token_fraction = transferred.result.llm_usage.prompt_tokens as f64
        / cold_run.llm_usage.prompt_tokens.max(1) as f64;
    let transfer_pass =
        quality_ratio <= QUALITY_BOUND && transfer_token_fraction <= TRANSFER_TOKEN_BOUND;
    all_pass &= transfer_pass;
    println!(
        "  distance {distance:.3}, quality {quality_ratio:.4}, prompt tokens {transfer_token_fraction:.2}x — {}\n",
        if transfer_pass { "PASS" } else { "FAIL" }
    );

    let file = if smoke {
        "BENCH_fleet.smoke.json"
    } else {
        "BENCH_fleet.json"
    };
    write_results(
        file,
        &json!({
            "bench": "fleet",
            "seed": seed as f64,
            "tenants": tenants as f64,
            "archetypes": k as f64,
            "fleet": json!({
                "cold_tokens": cold.tokens as f64,
                "cold_pipeline_runs": cold.tunes as f64,
                "cold_tune_vt_s": round6(cold.tune_vt),
                "warm_tokens": warm.tokens as f64,
                "warm_pipeline_runs": warm.tunes as f64,
                "warm_tune_vt_s": round6(warm.tune_vt),
                "cache_hits": hits as f64,
                "expected_hits": expected_hits as f64,
                "replay_identical": replay_identical,
                "tokens_per_session_cold": cold_tokens,
                "tokens_per_session_warm": warm_tokens,
                "token_reduction": round6(token_ratio),
                "token_bound": token_factor,
                "eval_vt_per_session_cold": round6(cold_vt),
                "eval_vt_per_session_warm": round6(warm_vt),
                "eval_reduction": round6(eval_ratio),
                "eval_bound": eval_factor,
                "pass": fleet_pass,
            }),
            "batch": json!({
                "num_configs": 8.0,
                "calls_unbatched": run_1.llm_usage.calls as f64,
                "calls_batched": run_8.llm_usage.calls as f64,
                "prompt_tokens_unbatched": run_1.llm_usage.prompt_tokens as f64,
                "prompt_tokens_batched": run_8.llm_usage.prompt_tokens as f64,
                "identical": batch_identical,
                "token_fraction": batch_token_fraction,
                "pass": batch_pass,
            }),
            "transfer": json!({
                "distance": distance,
                "quality_ratio": quality_ratio,
                "quality_bound": QUALITY_BOUND,
                "token_fraction": transfer_token_fraction,
                "token_bound": TRANSFER_TOKEN_BOUND,
                "pass": transfer_pass,
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
