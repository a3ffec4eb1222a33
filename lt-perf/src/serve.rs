//! The two HTTP workloads, driven against spawned `lt-serve` processes.
//!
//! * `serve-read`: one daemon (2 workers, no WAL) and 2 keep-alive
//!   clients. A warm TPC-H session costs a few milliseconds of pipeline
//!   work, so the HTTP front end, status JSON and the worker hand-off
//!   dominate.
//! * `fabric-write`: a coordinator and 2 shards (1 worker and a WAL each),
//!   2 clients talking to the coordinator. Every submit and feed is
//!   fsynced before its acknowledgement and passes the coordinator's
//!   ledger and ring; every feed plans and executes up-to-12-way JOB
//!   joins and updates the drift monitor.
//!
//! Both loops are closed: a client sends its next request only after the
//! previous answer, as a caller waiting for its tuning result does.

use crate::client::Client;
use crate::pipeline::{self, Backend, Layers, Outcome, Spans};
use crate::procs::{self, Server};
use crate::report::{Check, WorkloadResult};
use crate::stats::{median, percentile};
use crate::{slot_seed, warmup_seed, RunOpts, SlotQuality, Window};
use lt_common::json::Value;
use lt_common::{derive_seed, json};
use lt_workloads::{Benchmark, Workload};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Concurrent clients (one per core of the 2-core reference machine).
const CLIENTS: u64 = 2;
/// Long-poll bound per status request.
const WAIT_MS: u64 = 30_000;
/// No single iteration may take longer than this.
const ITERATION_DEADLINE: Duration = Duration::from_secs(90);
/// Hard stop for a window that keeps missing its minimum slot count.
const WINDOW_DEADLINE: Duration = Duration::from_secs(120);
/// Sessions the fabric warm-up submits at once.
const WARMUP_BATCH: u64 = 4;
/// Hard stop for a fabric warm-up that never reaches every shard.
const WARMUP_DEADLINE: Duration = Duration::from_secs(60);
/// Upper bound on sessions replayed in-process for the per-layer trace.
const MAX_REPLAYS: usize = 24;

/// One completed session as a client saw it.
#[derive(Debug, Clone)]
struct SessionRec {
    slot: u64,
    seed: u64,
    ms: f64,
    done_at: f64,
    traced: bool,
    config: Value,
}

/// Everything one client recorded.
#[derive(Debug, Default)]
struct ClientLog {
    sessions: Vec<SessionRec>,
    /// Ids of the measured sessions, oldest first per client.
    ids: Vec<u64>,
    routes: BTreeMap<&'static str, Vec<f64>>,
    reads_ms: Vec<f64>,
    writes_ms: Vec<f64>,
    bodies: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl ClientLog {
    fn merge(&mut self, other: ClientLog) {
        self.sessions.extend(other.sessions);
        self.ids.extend(other.ids);
        for (route, samples) in other.routes {
            self.routes.entry(route).or_default().extend(samples);
        }
        self.reads_ms.extend(other.reads_ms);
        self.writes_ms.extend(other.writes_ms);
        self.bodies.extend(other.bodies);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One timed request; any non-2xx answer or transport error counts as a
/// failed operation and yields `None`.
fn call(
    client: &mut Client,
    log: &mut ClientLog,
    route: &'static str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Option<(Value, f64)> {
    log.attempted += 1;
    let start = Instant::now();
    let result = client.call(method, path, body);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(r) if (200..300).contains(&r.status) => {
            log.routes.entry(route).or_default().push(ms);
            match json::parse(&r.body) {
                Ok(doc) => Some((doc, ms)),
                Err(_) => {
                    log.failed += 1;
                    None
                }
            }
        }
        Ok(r) => {
            eprintln!("{method} {path}: {} {}", r.status, r.body.trim());
            log.failed += 1;
            None
        }
        Err(e) => {
            eprintln!("{method} {path}: {e}");
            log.failed += 1;
            None
        }
    }
}

/// Submits a session and returns its id.
fn submit(client: &mut Client, log: &mut ClientLog, benchmark: &str, seed: u64) -> Option<u64> {
    let body = format!("{{\"benchmark\": \"{benchmark}\", \"seed\": {seed}}}");
    let (doc, _) = call(
        client,
        log,
        "post_session",
        "POST",
        "/sessions",
        Some(&body),
    )?;
    log.bodies.push(body);
    Some(doc.get("id")?.as_i64()? as u64)
}

/// Long-polls session `id`, submitted at `start`, until it is `done`.
fn await_done(client: &mut Client, log: &mut ClientLog, id: u64, start: Instant) -> Option<()> {
    loop {
        let path = format!("/sessions/{id}?wait_ms={WAIT_MS}");
        let (doc, _) = call(client, log, "poll_session", "GET", &path, None)?;
        match doc.get("state").and_then(Value::as_str) {
            Some("done") => return Some(()),
            Some("queued" | "tuning") if start.elapsed() < ITERATION_DEADLINE => {}
            other => {
                eprintln!("session {id} ended {other:?}");
                log.failed += 1;
                return None;
            }
        }
    }
}

/// Submits a session, long-polls it to `done` and fetches its winner.
/// Returns the session id, the config document and the latency.
fn session(
    client: &mut Client,
    log: &mut ClientLog,
    benchmark: &str,
    seed: u64,
) -> Option<(u64, Value, f64)> {
    let start = Instant::now();
    let id = submit(client, log, benchmark, seed)?;
    await_done(client, log, id, start)?;
    let path = format!("/sessions/{id}/config");
    let (config, _) = call(client, log, "get_config", "GET", &path, None)?;
    Some((id, config, start.elapsed().as_secs_f64() * 1e3))
}

/// Brings a workload's servers up and waits until the client-facing one
/// answers `/healthz`. Returns the servers (coordinator last) and that
/// address.
pub fn bring_up(workload: &str, tmp: &Path) -> Result<(Vec<Server>, SocketAddr), String> {
    let (servers, addr) = match workload {
        "serve-read" => {
            let server = Server::spawn(&server_args("2", &[]), tmp)?;
            let addr = server.addr;
            (vec![server], addr)
        }
        "fabric-write" => spawn_fabric(tmp)?,
        other => return Err(format!("{other} runs no servers")),
    };
    await_healthy(addr)?;
    Ok((servers, addr))
}

/// Stops servers, coordinator first so it never probes a shard that is
/// already gone.
pub fn stop_all(servers: &mut [Server]) {
    for s in servers.iter_mut().rev() {
        s.stop();
    }
}

fn await_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(r) = Client::new(addr).call("GET", "/healthz", None) {
            if r.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("{addr} never became healthy"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs `iteration(client, log, slot, traced, window_start)` on `CLIENTS`
/// threads until the window has lasted `opts.seconds` and every client
/// finished `min_per_client` iterations. Client `c` runs slots `c`,
/// `c + CLIENTS`, … Returns the merged log and the seconds from the
/// window's start to its last completed session.
fn drive<F>(addr: SocketAddr, opts: RunOpts, min_per_client: u64, iteration: F) -> (ClientLog, f64)
where
    F: Fn(&mut Client, &mut ClientLog, u64, bool, Instant) + Sync,
{
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let iteration = &iteration;
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut log = ClientLog::default();
                    let mut j = 0u64;
                    while (j < min_per_client || start.elapsed().as_secs_f64() < opts.seconds)
                        && start.elapsed() < WINDOW_DEADLINE
                    {
                        let traced = opts.trace && j % 2 == 1;
                        iteration(&mut client, &mut log, c + CLIENTS * j, traced, start);
                        j += 1;
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = ClientLog::default();
    for log in logs {
        all.merge(log);
    }
    let elapsed = all.sessions.iter().map(|s| s.done_at).fold(0.0, f64::max);
    (all, elapsed)
}

/// Runs one measured session and records it.
fn measured_session(
    client: &mut Client,
    log: &mut ClientLog,
    benchmark: &str,
    seed: u64,
    slot: u64,
    traced: bool,
    window_start: Instant,
) -> Option<u64> {
    let (id, config, ms) = session(client, log, benchmark, seed)?;
    log.ids.push(id);
    log.sessions.push(SessionRec {
        slot,
        seed,
        ms,
        done_at: window_start.elapsed().as_secs_f64(),
        traced,
        config,
    });
    Some(id)
}

/// Counter `name` of a `/metrics` document (0 when absent).
fn counter(doc: &Value, name: &str) -> i64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_i64)
        .unwrap_or(0)
}

/// Post-window work shared by both HTTP workloads: check (a) against
/// in-process references, check (d) on the fleet cache, the deterministic
/// block, and either the end-to-end or the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn finish(
    opts: RunOpts,
    bench: Benchmark,
    k: u64,
    log: ClientLog,
    window: Window,
    tune_hits: i64,
    mut detail: Vec<(String, Value)>,
    tmp: &Path,
) -> Result<WorkloadResult, String> {
    let workload = bench.load();
    let mut sessions = log.sessions.clone();
    sessions.sort_by_key(|s| s.slot);
    let mut mismatches = Vec::new();
    let mut references: BTreeMap<u64, Outcome> = BTreeMap::new();
    for s in &sessions {
        let reference = pipeline::tune(&workload, Backend::Sim, s.seed)?;
        let served = s.config.get("script").and_then(Value::as_str);
        if served != Some(reference.script.as_str()) {
            mismatches.push(s.slot);
        }
        references.insert(s.slot, reference);
    }
    let mut checks = vec![
        Check::new(
            "served_winner_matches_in_process",
            "every served winner == LambdaTune::tune winner for its seed",
            format!(
                "{} sessions, mismatched slots {mismatches:?}",
                sessions.len()
            ),
            mismatches.is_empty() && !sessions.is_empty(),
        ),
        Check::new(
            "no_replayed_sessions",
            "fleet.tune_hit == 0",
            format!("fleet.tune_hit = {tune_hits}"),
            tune_hits == 0,
        ),
    ];
    let first: Vec<&SessionRec> = sessions.iter().filter(|s| s.slot < k).collect();
    checks.push(Check::new(
        "first_slots_complete",
        &format!("the first {k} slots finished"),
        format!("{} finished", first.len()),
        first.len() as u64 == k,
    ));
    let quality: Vec<SlotQuality> = first
        .iter()
        .map(|s| {
            let f = |key: &str| {
                s.config
                    .get(key)
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN)
            };
            SlotQuality {
                seed: s.seed,
                script: references[&s.slot].script.clone(),
                scaled_cost: f("scaled_cost"),
                tuning_vt: f("tuning_time_s"),
                tokens: references[&s.slot].tokens,
            }
        })
        .collect();

    let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(f64::NAN);
    let routes: Vec<(String, Value)> = log
        .routes
        .iter()
        .map(|(route, v)| {
            let summary = json!({ "n": v.len(), "p50_ms": pct(v, 50.0), "p90_ms": pct(v, 90.0) });
            (route.to_string(), summary)
        })
        .collect();
    detail.push(("window".into(), window.detail()));
    detail.push(("routes".into(), Value::Object(routes)));
    detail.push(("read_p50_ms".into(), pct(&log.reads_ms, 50.0).into()));
    detail.push(("read_p90_ms".into(), pct(&log.reads_ms, 90.0).into()));
    detail.push(("reads".into(), log.reads_ms.len().into()));
    detail.push(("write_p50_ms".into(), pct(&log.writes_ms, 50.0).into()));
    detail.push(("write_p90_ms".into(), pct(&log.writes_ms, 90.0).into()));
    detail.push((
        "writes_per_s".into(),
        (log.writes_ms.len() as f64 / window.elapsed_s.max(1e-9)).into(),
    ));

    let metrics = if opts.trace {
        // Per-layer numbers for the pipeline come from replaying the
        // window's sessions in-process, each stage timed on its own; the
        // references above already warmed the caches the way the server's
        // warm-up warmed its own.
        let mut layers: Vec<Layers> = Vec::new();
        let mut coverage = Vec::new();
        for s in sessions.iter().take(MAX_REPLAYS) {
            let mut spans = Spans::default();
            let loaded = spans.time("workloads.load", || bench.load());
            let (outcome, _, mut l) =
                pipeline::tune_traced(&loaded, Backend::Sim, s.seed, &mut spans)?;
            if outcome != references[&s.slot] {
                checks.push(Check::new(
                    "separate_call_winner",
                    "separate-call winner == LambdaTune::tune winner",
                    format!("differs at seed {}", s.seed),
                    false,
                ));
            }
            l.insert(
                "workloads.load_ms".into(),
                spans.get("workloads.load") * 1e3,
            );
            layers.push(l);
            coverage.push(spans.total() * 1e3 / s.ms);
        }
        detail.push((
            "coverage_gap".into(),
            "HTTP exchanges, long-poll wake-ups, the worker hand-off and the server's \
             default-time measurement and serving rebuild"
                .into(),
        ));
        let split = |traced: bool| -> Vec<f64> {
            log.sessions
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.ms)
                .collect()
        };
        crate::trace_metrics(
            &layers,
            median(&coverage),
            &split(true),
            &split(false),
            crate::wal_append_sync_us(tmp, &log.bodies)?,
        )
    } else {
        window.metrics()
    };
    Ok(WorkloadResult {
        attempted: log.attempted,
        failed: log.failed,
        metrics,
        deterministic: crate::deterministic(crate::inproc::slug(bench), &quality),
        detail: Value::Object(detail),
        checks,
        ..Default::default()
    })
}

fn server_args(workers: &str, extra: &[String]) -> Vec<String> {
    let mut args: Vec<String> = ["--addr", "127.0.0.1:0", "--workers", workers]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend_from_slice(extra);
    args
}

/// The `serve-read` workload.
pub fn serve_read(opts: RunOpts, tmp: &Path) -> Result<WorkloadResult, String> {
    let min_per_client = opts.min_slots(4) as u64;
    let setups_s = crate::setup::samples("serve-read", opts.smoke, tmp)?;
    let (mut servers, addr) = bring_up("serve-read", tmp)?;
    // Warm-up: each client tunes one session, so the compression memo and
    // the global plan tier are warm before timing starts.
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut log = ClientLog::default();
                session(
                    &mut Client::new(addr),
                    &mut log,
                    "tpch-sf1",
                    warmup_seed(opts.seed, c),
                )
            });
        }
    });
    let (log, elapsed) = drive(
        addr,
        opts,
        min_per_client,
        |client, log, slot, traced, start| {
            let seed = slot_seed(opts.seed, slot);
            let Some(id) = measured_session(client, log, "tpch-sf1", seed, slot, traced, start)
            else {
                return;
            };
            // Status reads on this client's four previous sessions (the
            // current one stands in while there are fewer).
            let previous = log.ids.len() - 1;
            for back in 1..=4 {
                let target = previous.checked_sub(back).map_or(id, |i| log.ids[i]);
                if let Some((_, ms)) = call(
                    client,
                    log,
                    "get_session",
                    "GET",
                    &format!("/sessions/{target}"),
                    None,
                ) {
                    log.reads_ms.push(ms);
                }
            }
            if (slot / CLIENTS) % 16 == 15 {
                call(client, log, "get_metrics", "GET", "/metrics", None);
            }
        },
    );
    let metrics_doc = Client::new(addr)
        .call("GET", "/metrics", None)
        .ok()
        .and_then(|r| json::parse(&r.body).ok())
        .unwrap_or(Value::Null);
    let rss: f64 = servers
        .iter()
        .filter_map(|s| procs::peak_rss_mib(s.pid()?))
        .sum();
    stop_all(&mut servers);
    let window = Window {
        setups_s,
        sessions_ms: log.sessions.iter().map(|s| s.ms).collect(),
        elapsed_s: elapsed,
        peak_rss_mb: rss,
    };
    let k = min_per_client * CLIENTS;
    let hits = counter(&metrics_doc, "fleet.tune_hit");
    finish(
        opts,
        Benchmark::TpchSf1,
        k,
        log,
        window,
        hits,
        Vec::new(),
        tmp,
    )
}

/// 16 JOB queries for feed `feed` of the session with `seed`.
fn feed_body(job: &Workload, seed: u64, feed: u64) -> String {
    let queries: Vec<Value> = (0..16)
        .map(|q| {
            let pick = derive_seed(seed, feed * 16 + q) % job.queries.len() as u64;
            Value::from(job.queries[pick as usize].sql.as_str())
        })
        .collect();
    json!({ "queries": Value::Array(queries) }).to_string_pretty()
}

/// Spawns 2 shards (1 worker and a WAL each) and a coordinator over them.
fn spawn_fabric(tmp: &Path) -> Result<(Vec<Server>, SocketAddr), String> {
    let mut servers = Vec::new();
    let mut shard_flags = Vec::new();
    for id in 0..2 {
        let wal = tmp
            .join(format!("fabric-{}", std::process::id()))
            .join(format!("shard-{id}"));
        std::fs::create_dir_all(&wal).map_err(|e| format!("{}: {e}", wal.display()))?;
        let extra = [
            "--wal-dir".to_string(),
            wal.display().to_string(),
            "--shard-id".to_string(),
            id.to_string(),
        ];
        let shard = Server::spawn(&server_args("1", &extra), tmp)?;
        shard_flags.push("--shard".to_string());
        shard_flags.push(format!("{id}={}", shard.addr));
        servers.push(shard);
    }
    let mut args = vec![
        "--coordinator".to_string(),
        "--addr".into(),
        "127.0.0.1:0".into(),
    ];
    args.extend(shard_flags);
    let coordinator = Server::spawn(&args, tmp)?;
    let addr = coordinator.addr;
    servers.push(coordinator);
    Ok((servers, addr))
}

/// Sessions finished per shard, from the coordinator's `/metrics`.
fn shard_done_counts(addr: SocketAddr) -> Vec<i64> {
    let Ok(r) = Client::new(addr).call("GET", "/metrics", None) else {
        return Vec::new();
    };
    let Ok(doc) = json::parse(&r.body) else {
        return Vec::new();
    };
    doc.get("shards")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .map(|s| {
            s.get("metrics")
                .and_then(|m| m.get("sessions"))
                .and_then(|m| m.get("done"))
                .and_then(Value::as_i64)
                .unwrap_or(0)
        })
        .collect()
}

/// Median extra milliseconds a status read pays through the coordinator
/// over the same read sent straight to the owning shard.
fn coordinator_hop_ms(coordinator: SocketAddr, shards: &[SocketAddr], id: u64) -> Option<f64> {
    let path = format!("/sessions/{id}");
    let owner = shards.iter().copied().find(|&a| {
        Client::new(a)
            .call("GET", &path, None)
            .is_ok_and(|r| r.status == 200)
    })?;
    let sample = |addr: SocketAddr| -> Vec<f64> {
        (0..10)
            .filter_map(|_| {
                let start = Instant::now();
                let r = Client::new(addr).call("GET", &path, None).ok()?;
                (r.status == 200).then(|| start.elapsed().as_secs_f64() * 1e3)
            })
            .collect()
    };
    Some(median(&sample(coordinator)) - median(&sample(owner)))
}

/// The `fabric-write` workload.
pub fn fabric_write(opts: RunOpts, tmp: &Path) -> Result<WorkloadResult, String> {
    let min_per_client = opts.min_slots(3) as u64;
    let job = Benchmark::Job.load();
    let setups_s = crate::setup::samples("fabric-write", opts.smoke, tmp)?;
    let (mut servers, addr) = bring_up("fabric-write", tmp)?;
    // Warm-up lasts until every shard finished a session: each pays its
    // own cold ILP compression once. The first sessions go out together,
    // so that the shards they reach pay it at the same time.
    {
        let warm_start = Instant::now();
        let mut client = Client::new(addr);
        let mut warm_log = ClientLog::default();
        let batch: Vec<u64> = (0..WARMUP_BATCH)
            .filter_map(|i| submit(&mut client, &mut warm_log, "job", warmup_seed(opts.seed, i)))
            .collect();
        for id in batch {
            await_done(&mut client, &mut warm_log, id, warm_start);
        }
        let mut i = WARMUP_BATCH;
        while warm_start.elapsed() < WARMUP_DEADLINE {
            let done = shard_done_counts(addr);
            if done.len() == 2 && done.iter().all(|&d| d >= 1) {
                break;
            }
            session(&mut client, &mut warm_log, "job", warmup_seed(opts.seed, i));
            i += 1;
        }
    }
    let (log, elapsed) = drive(
        addr,
        opts,
        min_per_client,
        |client, log, slot, traced, start| {
            let seed = slot_seed(opts.seed, slot);
            let Some(id) = measured_session(client, log, "job", seed, slot, traced, start) else {
                return;
            };
            for feed in 0..3 {
                let body = feed_body(&job, seed, feed);
                let path = format!("/sessions/{id}/queries");
                if let Some((_, ms)) = call(client, log, "post_queries", "POST", &path, Some(&body))
                {
                    log.writes_ms.push(ms);
                    log.bodies.push(body);
                }
            }
            if let Some((_, ms)) = call(
                client,
                log,
                "get_session",
                "GET",
                &format!("/sessions/{id}"),
                None,
            ) {
                log.reads_ms.push(ms);
            }
        },
    );
    let metrics_doc = Client::new(addr)
        .call("GET", "/metrics", None)
        .ok()
        .and_then(|r| json::parse(&r.body).ok())
        .unwrap_or(Value::Null);
    let hits = metrics_doc
        .get("fleet")
        .map_or(0, |fleet| counter(fleet, "fleet.tune_hit"));
    let shard_addrs: Vec<SocketAddr> = servers[..2].iter().map(|s| s.addr).collect();
    let last_id = log.ids.iter().copied().max().unwrap_or(0);
    let hop = coordinator_hop_ms(addr, &shard_addrs, last_id);
    let rss: f64 = servers
        .iter()
        .filter_map(|s| procs::peak_rss_mib(s.pid()?))
        .sum();
    stop_all(&mut servers);
    let window = Window {
        setups_s,
        sessions_ms: log.sessions.iter().map(|s| s.ms).collect(),
        elapsed_s: elapsed,
        peak_rss_mb: rss,
    };
    let k = min_per_client * CLIENTS;
    let detail = vec![("coord.hop_ms".to_string(), Value::from(hop))];
    finish(opts, Benchmark::Job, k, log, window, hits, detail, tmp)
}
