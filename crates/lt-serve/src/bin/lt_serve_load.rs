//! `lt-serve-load`: the load generator and serving benchmarks.
//!
//! ```text
//! lt-serve-load                  # full matrix: 16 clients at 1 and 4 workers,
//!                                # verifies determinism, writes results/serve_load.json
//! lt-serve-load --smoke          # one quick session against an in-process
//!                                # server; a CI determinism-gate run
//! lt-serve-load --addr HOST:PORT # single pass against an external server
//! lt-serve-load --clients N      # override the client count
//! lt-serve-load --shards N       # sharded bench: spawn coordinator + shard
//!                                # processes at 1, 2, 4, … up to N shards,
//!                                # verify cross-shard determinism, run the
//!                                # kill-one-shard availability scenario,
//!                                # write results/BENCH_shard.json
//! lt-serve-load --smoke --shards N  # quick multi-process pass; writes
//!                                # results/serve_shard.smoke.json (CI)
//! ```
//!
//! The sharded bench fixes every shard at **one** pool worker and scales
//! the shard count, with `LT_LLM_LATENCY_MS` (default 250 for the full
//! bench) injecting the LLM-API round-trip the simulated model otherwise
//! skips — that is the regime the paper's serving cost lives in, and the
//! only honest way to show scale-out on a single-core CI box: throughput
//! grows because shards overlap *waiting*, not because compute
//! parallelises.
//!
//! Exit status is nonzero on any client failure, on a determinism
//! mismatch, or (sharded bench) on a failed availability scenario.

use lt_common::json::{parse, Value};
use lt_common::{env, json};
use lt_serve::fleet::Fleet;
use lt_serve::load::{run_against, run_matrix, LoadOptions};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn write_results(file: &str, value: &Value) {
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("error: cannot create results/: {e}");
        std::process::exit(1);
    }
    let path = format!("results/{file}");
    if let Err(e) = std::fs::write(&path, value.to_string_pretty()) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// One fast end-to-end pass: in-process server, one session, metrics check.
/// Writes `results/serve_load.smoke.json` with only deterministic fields
/// (seeds, states, script fingerprints — no wall times or ports), so the
/// CI determinism gate can diff it across thread counts.
fn smoke() {
    let opts = LoadOptions {
        clients: 2,
        num_configs: 2,
        ..LoadOptions::default()
    };
    let mut server = lt_serve::start(lt_serve::ServerConfig::default())
        .unwrap_or_else(|e| die(&format!("cannot start server: {e}")));
    let run = run_against(server.addr(), 2, &opts);

    // /metrics must be live JSON with serving counters in it.
    let (status, body) = lt_serve::http::request(server.addr(), "GET", "/metrics", None)
        .unwrap_or_else(|e| die(&format!("/metrics request failed: {e}")));
    let metrics_ok = status == 200
        && parse(&body)
            .ok()
            .and_then(|doc| doc.get("counters")?.get("serve.sessions_done")?.as_i64())
            .is_some_and(|done| done >= opts.clients as i64);
    server.shutdown();

    write_results(
        "serve_load.smoke.json",
        &json!({
            "mode": "smoke",
            "base_seed": opts.base_seed as i64,
            "num_configs": opts.num_configs,
            "clients": Value::Array(client_rows(&run)),
        }),
    );

    if run.failures() > 0 || !metrics_ok {
        eprintln!(
            "smoke FAILED: {} client failures, metrics_ok={metrics_ok}",
            run.failures()
        );
        for o in &run.outcomes {
            eprintln!("  client {} seed {}: {}", o.client, o.seed, o.state);
        }
        std::process::exit(1);
    }
    println!(
        "smoke ok: {} sessions done in {:.1}s, /metrics live",
        opts.clients,
        run.wall.as_secs_f64()
    );
}

/// Deterministic per-client rows (no wall clocks, no ports).
fn client_rows(run: &lt_serve::load::LoadRun) -> Vec<Value> {
    run.outcomes
        .iter()
        .map(|o| {
            json!({
                "client": o.client,
                "seed": o.seed as i64,
                "state": o.state.as_str(),
                "script_fingerprint": o
                    .script
                    .as_deref()
                    .map(|s| format!("{:016x}", lt_common::hash_one(s))),
            })
        })
        .collect()
}

/// Multi-process smoke: a real coordinator + `shards` shard daemons over
/// loopback, a small client set, fleet `/metrics` checked. The output file
/// carries only deterministic fields, so the CI determinism gate can diff
/// it across shard counts (the file deliberately omits the shard count —
/// that is the point of the diff).
fn shard_smoke(shards: usize) {
    let opts = LoadOptions {
        clients: 4,
        num_configs: 2,
        ..LoadOptions::default()
    };
    let conns = lt_serve::ServerConfig::default().max_connections;
    let mut fleet = Fleet::spawn(shards, 1, conns, &[])
        .unwrap_or_else(|e| die(&format!("cannot spawn {shards}-shard fleet: {e}")));
    let run = run_against(fleet.coordinator_addr(), shards, &opts);

    let (status, body) = lt_serve::http::request(fleet.coordinator_addr(), "GET", "/metrics", None)
        .unwrap_or_else(|e| die(&format!("coordinator /metrics failed: {e}")));
    let doc = parse(&body).ok();
    let doc = doc.as_ref();
    let metrics_ok = status == 200
        && doc.and_then(|d| d.get("degraded")?.as_bool()) == Some(false)
        && doc
            .and_then(|d| {
                d.get("fleet")?
                    .get("counters")?
                    .get("serve.sessions_done")?
                    .as_i64()
            })
            .is_some_and(|done| done >= opts.clients as i64)
        && doc.and_then(|d| Some(d.get("shards")?.as_array()?.len())) == Some(shards);
    fleet.shutdown();

    write_results(
        "serve_shard.smoke.json",
        &json!({
            "mode": "shard-smoke",
            "base_seed": opts.base_seed as i64,
            "num_configs": opts.num_configs,
            "clients": Value::Array(client_rows(&run)),
        }),
    );

    if run.failures() > 0 || !metrics_ok {
        eprintln!(
            "shard smoke FAILED: {} client failures, metrics_ok={metrics_ok}",
            run.failures()
        );
        for o in &run.outcomes {
            eprintln!("  client {} seed {}: {}", o.client, o.seed, o.state);
        }
        std::process::exit(1);
    }
    println!(
        "shard smoke ok: {} sessions through {shards} shard(s) in {:.1}s, fleet /metrics live",
        opts.clients,
        run.wall.as_secs_f64()
    );
}

fn submit_seed(addr: SocketAddr, seed: u64) -> Result<u64, String> {
    let body = json!({
        "benchmark": "tpch-sf1",
        "seed": seed as i64,
        "num_configs": 2,
    })
    .to_string_pretty();
    let (status, body) = lt_serve::http::request(addr, "POST", "/sessions", Some(&body))
        .map_err(|e| format!("submit seed {seed}: {e}"))?;
    if status != 202 {
        return Err(format!("submit seed {seed} rejected with {status}: {body}"));
    }
    parse(&body)
        .ok()
        .and_then(|d| d.get("id")?.as_i64())
        .map(|id| id as u64)
        .ok_or_else(|| format!("bad submit response for seed {seed}"))
}

/// Polls a session through the coordinator until terminal, treating 503
/// (owning shard down, recovery pending) and refused connects as
/// transient. Returns the winning script on `done`.
fn await_winner(addr: SocketAddr, id: u64, timeout: Duration) -> Result<String, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if Instant::now() >= deadline {
            return Err(format!("session {id}: timeout"));
        }
        match lt_serve::http::request(addr, "GET", &format!("/sessions/{id}?wait_ms=500"), None) {
            Ok((200, body)) => {
                let state = parse(&body)
                    .ok()
                    .and_then(|d| Some(d.get("state")?.as_str()?.to_string()));
                match state.as_deref() {
                    Some("done") => break,
                    Some("failed" | "cancelled") => {
                        return Err(format!("session {id}: state {}", state.unwrap()))
                    }
                    Some(_) => {}
                    None => return Err(format!("session {id}: bad status document")),
                }
            }
            Ok((502 | 503, _)) | Err(_) => std::thread::sleep(Duration::from_millis(100)),
            Ok((status, body)) => {
                return Err(format!("session {id}: poll status {status}: {body}"))
            }
        }
    }
    let (status, body) =
        lt_serve::http::request(addr, "GET", &format!("/sessions/{id}/config"), None)
            .map_err(|e| format!("session {id}: config fetch: {e}"))?;
    if status != 200 {
        return Err(format!("session {id}: config status {status}"));
    }
    parse(&body)
        .ok()
        .and_then(|d| Some(d.get("script")?.as_str()?.to_string()))
        .ok_or_else(|| format!("session {id}: config without script"))
}

fn coordinator_degraded(addr: SocketAddr) -> Option<bool> {
    let (status, body) = lt_serve::http::request(addr, "GET", "/metrics", None).ok()?;
    (status == 200)
        .then(|| parse(&body).ok())
        .flatten()?
        .get("degraded")?
        .as_bool()
}

fn wait_degraded(addr: SocketAddr, want: bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if coordinator_degraded(addr) == Some(want) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

/// Tunes `seeds` on an in-process single-worker server (no simulated
/// latency in this process) and returns seed → winning script: the
/// reference the sharded fabric's winners must match byte-for-byte.
fn standalone_winners(seeds: &[u64]) -> BTreeMap<u64, String> {
    let mut server = lt_serve::start(lt_serve::ServerConfig {
        workers: 1,
        ..lt_serve::ServerConfig::default()
    })
    .unwrap_or_else(|e| die(&format!("cannot start reference server: {e}")));
    let mut winners = BTreeMap::new();
    for &seed in seeds {
        let id = submit_seed(server.addr(), seed).unwrap_or_else(|e| die(&e));
        let script = await_winner(server.addr(), id, Duration::from_secs(120))
            .unwrap_or_else(|e| die(&format!("reference run: {e}")));
        winners.insert(seed, script);
    }
    server.shutdown();
    winners
}

/// The availability scenario: 2 shards, slow sessions, SIGKILL one shard
/// with work in flight, verify degraded routing + zero lost sessions +
/// byte-identical winners after WAL recovery.
fn kill_one_shard_scenario(base_seed: u64) -> (Value, bool) {
    let envs = vec![
        ("LT_LLM_LATENCY_MS".to_string(), "400".to_string()),
        ("LT_SHARD_PROBE_MS".to_string(), "100".to_string()),
    ];
    let conns = lt_serve::ServerConfig::default().max_connections;
    let mut fleet =
        Fleet::spawn(2, 1, conns, &envs).unwrap_or_else(|e| die(&format!("scenario fleet: {e}")));
    let addr = fleet.coordinator_addr();

    // Acknowledge 8 slow sessions, then SIGKILL shard 1 with work queued
    // and in flight.
    let seeds: Vec<u64> = (0..8u64)
        .map(|i| lt_common::derive_seed(base_seed, 1_000 + i) & (i64::MAX as u64))
        .collect();
    let mut acked: Vec<(u64, u64)> = Vec::new();
    for &seed in &seeds {
        let id = submit_seed(addr, seed).unwrap_or_else(|e| die(&e));
        acked.push((seed, id));
    }
    fleet.kill_shard(1);

    let degraded_observed = wait_degraded(addr, true, Duration::from_secs(15));

    // New sessions must route around the dead shard and complete.
    let extra_seeds: Vec<u64> = (0..2u64)
        .map(|i| lt_common::derive_seed(base_seed, 2_000 + i) & (i64::MAX as u64))
        .collect();
    let mut routed_during_outage = 0usize;
    let mut fabric_winners: BTreeMap<u64, String> = BTreeMap::new();
    for &seed in &extra_seeds {
        match submit_seed(addr, seed) {
            Ok(id) => {
                routed_during_outage += 1;
                acked.push((seed, id));
                match await_winner(addr, id, Duration::from_secs(60)) {
                    Ok(script) => {
                        fabric_winners.insert(seed, script);
                    }
                    Err(e) => eprintln!("scenario: outage-time session: {e}"),
                }
            }
            Err(e) => eprintln!("scenario: outage-time submit: {e}"),
        }
    }

    // Restart the dead shard on its original address + WAL dir; recovery
    // re-queues whatever was in flight and the probe folds it back in.
    fleet
        .restart_shard(1)
        .unwrap_or_else(|e| die(&format!("scenario restart: {e}")));
    let recovered = wait_degraded(addr, false, Duration::from_secs(15));

    // Every acknowledged session must reach `done` with a winner.
    let mut lost = 0usize;
    for &(seed, id) in &acked {
        if fabric_winners.contains_key(&seed) {
            continue;
        }
        match await_winner(addr, id, Duration::from_secs(120)) {
            Ok(script) => {
                fabric_winners.insert(seed, script);
            }
            Err(e) => {
                lost += 1;
                eprintln!("scenario: LOST session {id} (seed {seed}): {e}");
            }
        }
    }
    fleet.shutdown();

    // Recovered winners must equal a standalone reference run.
    let all_seeds: Vec<u64> = acked.iter().map(|&(seed, _)| seed).collect();
    let reference = standalone_winners(&all_seeds);
    let winners_match = lost == 0
        && all_seeds
            .iter()
            .all(|seed| fabric_winners.get(seed) == reference.get(seed));

    let ok =
        degraded_observed && routed_during_outage == 2 && recovered && lost == 0 && winners_match;
    let doc = json!({
        "shards": 2,
        "acked_sessions": acked.len(),
        "killed_shard": 1,
        "degraded_observed": degraded_observed,
        "routed_during_outage": routed_during_outage,
        "shard_recovered": recovered,
        "lost_sessions": lost,
        "winners_match_standalone": winners_match,
        "ok": ok,
    });
    (doc, ok)
}

/// The sharded scaling bench: 1, 2, 4, … shards (one pool worker each),
/// the same client set through a real coordinator + shard processes, then
/// cross-shard-count determinism and the kill-one-shard scenario.
fn shard_bench(max_shards: usize, clients: usize) {
    // 250ms per LLM round trip keeps the fabric firmly in the wait-bound
    // regime on a small CI box: per-session *compute* is tens of
    // milliseconds and shares one core across every shard process, so a
    // too-small latency would measure CPU contention, not scale-out.
    let latency_ms: u64 = env::get("LT_LLM_LATENCY_MS", 250, |_| true);
    let envs = vec![
        ("LT_LLM_LATENCY_MS".to_string(), latency_ms.to_string()),
        ("LT_SHARD_PROBE_MS".to_string(), "200".to_string()),
    ];
    // The coordinator caps its connections like a daemon does; size the
    // cap to the client count so no client is turned away.
    let conns = clients.max(64);
    let series: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&n| n <= max_shards)
        .collect();
    let opts = LoadOptions {
        clients,
        num_configs: 2,
        poll_timeout: Duration::from_secs(300),
        // Closed loop: 4 sessions per client, so each shard count drains
        // a few waves of sessions and the run measures steady throughput
        // rather than one wave's start-up and tail.
        sessions_per_client: 4,
        ..LoadOptions::default()
    };
    println!(
        "shard bench: {clients} clients x {} sessions, shards {series:?}, 1 worker/shard, \
         LLM latency {latency_ms}ms (LT_LLM_LATENCY_MS)",
        opts.sessions_per_client
    );

    let mut runs: Vec<(usize, lt_serve::load::LoadRun)> = Vec::new();
    for &n in &series {
        let mut fleet = Fleet::spawn(n, 1, conns, &envs)
            .unwrap_or_else(|e| die(&format!("cannot spawn {n}-shard fleet: {e}")));
        let run = run_against(fleet.coordinator_addr(), n, &opts);
        fleet.shutdown();
        println!(
            "  {n} shard(s): {} failures, wall {:.1}s, p50 {:.0}ms p95 {:.0}ms, {:.2} sessions/s",
            run.failures(),
            run.wall.as_secs_f64(),
            run.latency_percentile_ms(50.0),
            run.latency_percentile_ms(95.0),
            run.sessions_per_sec()
        );
        if run.failures() > 0 {
            for o in run.outcomes.iter().filter(|o| !o.ok()) {
                eprintln!("  client {} seed {}: {}", o.client, o.seed, o.state);
            }
            die(&format!("{n}-shard run had failures"));
        }
        runs.push((n, run));
    }

    // Determinism: per-seed winners byte-identical at every shard count.
    let mut mismatched: Vec<u64> = Vec::new();
    let baseline = &runs[0].1;
    for (_, run) in &runs[1..] {
        for (a, b) in baseline.outcomes.iter().zip(&run.outcomes) {
            if a.script != b.script && !mismatched.contains(&a.seed) {
                mismatched.push(a.seed);
            }
        }
    }
    let deterministic = mismatched.is_empty();
    println!(
        "  determinism: per-seed configs {} across shard counts{}",
        if deterministic {
            "byte-identical"
        } else {
            "MISMATCHED"
        },
        if deterministic {
            String::new()
        } else {
            format!(" (seeds {mismatched:?})")
        }
    );

    let base_sps = runs[0].1.sessions_per_sec();
    let scaling: Vec<Value> = runs
        .iter()
        .map(|(n, run)| {
            json!({
                "shards": *n,
                "sessions_per_sec": run.sessions_per_sec(),
                "speedup_vs_1": run.sessions_per_sec() / base_sps.max(1e-9),
                "run": run.to_json(),
            })
        })
        .collect();
    let speedup_at_4 = runs
        .iter()
        .find(|(n, _)| *n == 4)
        .map(|(_, run)| run.sessions_per_sec() / base_sps.max(1e-9));
    if let Some(s) = speedup_at_4 {
        println!("  speedup at 4 shards vs 1: {s:.2}x");
    }

    println!("  kill-one-shard availability scenario (2 shards, 400ms sessions)");
    let (scenario, scenario_ok) = kill_one_shard_scenario(opts.base_seed);
    println!("  scenario: {}", if scenario_ok { "ok" } else { "FAILED" });

    write_results(
        "BENCH_shard.json",
        &json!({
            "mode": "shard-bench",
            "base_seed": opts.base_seed as i64,
            "clients": clients,
            "workers_per_shard": 1,
            "llm_latency_ms": latency_ms,
            "scaling": Value::Array(scaling),
            "speedup_at_4_shards": speedup_at_4.unwrap_or(0.0),
            "deterministic_across_shard_counts": deterministic,
            "mismatched_seeds": mismatched.clone(),
            "kill_one_shard": scenario,
        }),
    );

    let scaled = speedup_at_4.is_none_or(|s| s >= 3.0);
    if !scaled {
        eprintln!("shard bench FAILED: speedup at 4 shards below 3x");
    }
    if !deterministic || !scenario_ok || !scaled {
        std::process::exit(1);
    }
}

/// A flag's value as a positive integer; exits with usage status otherwise.
fn positive_arg(value: Option<String>, flag: &str) -> usize {
    value
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or_else(|| {
            eprintln!("error: {flag} must be a positive integer");
            std::process::exit(2);
        })
}

fn main() {
    let mut smoke_mode = false;
    let mut external_addr: Option<String> = None;
    let mut clients: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke_mode = true,
            "--addr" => external_addr = args.next(),
            "--clients" => clients = Some(positive_arg(args.next(), "--clients")),
            "--shards" => shards = Some(positive_arg(args.next(), "--shards")),
            "--help" | "-h" => {
                println!(
                    "usage: lt-serve-load [--smoke | --addr HOST:PORT] [--clients N] [--shards N]"
                );
                return;
            }
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(n) = shards {
        if external_addr.is_some() {
            eprintln!("error: --shards spawns its own fabric; drop --addr");
            std::process::exit(2);
        }
        if smoke_mode {
            shard_smoke(n);
        } else {
            shard_bench(n, clients.unwrap_or(32));
        }
        return;
    }

    if smoke_mode {
        smoke();
        return;
    }

    let opts = LoadOptions {
        clients: clients.unwrap_or(16),
        ..LoadOptions::default()
    };

    if let Some(addr_text) = external_addr {
        let addr = addr_text.parse().unwrap_or_else(|_| {
            eprintln!("error: bad address {addr_text:?}");
            std::process::exit(2);
        });
        let run = run_against(addr, 0, &opts);
        println!(
            "{} clients against {addr}: {} failures, p50 {:.0}ms p95 {:.0}ms p99 {:.0}ms, {:.2} sessions/s",
            opts.clients,
            run.failures(),
            run.latency_percentile_ms(50.0),
            run.latency_percentile_ms(95.0),
            run.latency_percentile_ms(99.0),
            run.sessions_per_sec()
        );
        write_results(
            "serve_load.json",
            &json!({
                "mode": "external",
                "base_seed": opts.base_seed,
                "run": run.to_json(),
            }),
        );
        if run.failures() > 0 {
            std::process::exit(1);
        }
        return;
    }

    println!(
        "serving matrix: {} clients (base seed {}), benchmark {}, 1 worker then 4 workers",
        opts.clients, opts.base_seed, opts.benchmark
    );
    let (serial, pooled, mismatched) = run_matrix(&opts).unwrap_or_else(|e| {
        eprintln!("error: load run failed: {e}");
        std::process::exit(1);
    });
    for run in [&serial, &pooled] {
        println!(
            "  {} workers: {} failures, wall {:.1}s, p50 {:.0}ms p95 {:.0}ms p99 {:.0}ms, {:.2} sessions/s",
            run.workers,
            run.failures(),
            run.wall.as_secs_f64(),
            run.latency_percentile_ms(50.0),
            run.latency_percentile_ms(95.0),
            run.latency_percentile_ms(99.0),
            run.sessions_per_sec()
        );
    }
    let deterministic = mismatched.is_empty();
    println!(
        "  determinism: per-seed configs {} across pool sizes{}",
        if deterministic {
            "byte-identical"
        } else {
            "MISMATCHED"
        },
        if deterministic {
            String::new()
        } else {
            format!(" (seeds {mismatched:?})")
        }
    );

    write_results(
        "serve_load.json",
        &json!({
            "mode": "matrix",
            "base_seed": opts.base_seed,
            "benchmark": opts.benchmark.as_str(),
            "deterministic_across_pool_sizes": deterministic,
            "mismatched_seeds": mismatched.clone(),
            "runs": vec![serial.to_json(), pooled.to_json()],
        }),
    );

    if serial.failures() > 0 || pooled.failures() > 0 || !deterministic {
        std::process::exit(1);
    }
}
