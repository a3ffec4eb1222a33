//! Fleet amortization benchmark: the exact tuning cache through the
//! serving layer.
//!
//! 1. **Cold fleet** — N tenants drawn from K archetypes (N ≫ K) tuned
//!    through the serving layer with the tuning cache disabled: every
//!    session pays the full prompt → sample → evaluate pipeline.
//! 2. **Warm fleet** — the same N tenants with the cache enabled, run as a
//!    populate wave (one session per archetype) and a hit wave (everything
//!    else replays). Token and evaluation work per session must drop by the
//!    acceptance factors, and every replayed winner must be byte-identical
//!    to its cold-phase counterpart.
//!
//! Writes `results/BENCH_fleet.json` (`--smoke` shrinks the tenant count
//! and acceptance factors and writes `results/BENCH_fleet.smoke.json`).
//!
//! Determinism: token totals are obs-counter deltas around completed
//! phases, evaluation work is the *virtual* time of `tune` spans, and no
//! wall-clock value enters the JSON (wall throughput goes to stdout only) —
//! the CI gate diffs this artifact across `LT_BENCH_THREADS=1` and `=4`.
//! Every session runs on a server worker thread, so the benchmark writes no
//! trace sidecar: worker-thread spans are roots of their own, which
//! `trace_check`'s single-root accounting rejects.

use lt_bench::{base_seed, bench_threads, smoke_arg, write_results};
use lt_common::json::{parse, Value};
use lt_common::{derive_seed, json, obs};
use lt_serve::cache::FleetCache;
use lt_serve::http::Connection;
use lt_serve::{start, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Warm/cold token-per-session reduction the full run must reach.
const TOKEN_FACTOR: f64 = 10.0;
/// Warm/cold evaluation-time-per-session reduction the full run must reach.
const EVAL_FACTOR: f64 = 5.0;

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
    println!("Fleet amortization benchmark: tuning cache");
    println!(
        "(seed {seed}, {tenants} tenants from {k} archetypes, {} worker(s))\n",
        bench_threads()
    );

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
            "pass": fleet_pass,
        }),
    );
    println!("written to results/{file}");
    println!("{}", if fleet_pass { "PASS" } else { "FAIL" });
    if !fleet_pass {
        std::process::exit(1);
    }
}
