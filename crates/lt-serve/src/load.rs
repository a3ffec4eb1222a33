//! The load generator: concurrent clients against a running server.
//!
//! Each client derives its session seed from the shared base seed
//! (`derive_seed(base, client_index)`), submits one tuning session, polls
//! it to completion and fetches the winning configuration. Because seeds —
//! not thread scheduling — determine results, the same client set run
//! against a 1-worker server and a 4-worker server must produce
//! byte-identical per-seed configuration scripts; [`run_matrix`] verifies
//! exactly that, and the determinism integration test pins it.

use crate::http::Connection;
use crate::server::{start, ServerConfig};
use lt_common::json::{parse, Value};
use lt_common::{derive_seed, env, json};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Concurrent clients (one session each).
    pub clients: usize,
    /// Benchmark each session tunes.
    pub benchmark: String,
    /// LLM samples per session (small keeps the smoke gate fast).
    pub num_configs: usize,
    /// Base seed (`LT_SEED`, as in the benchmark harness); session slot
    /// `i` uses `derive_seed(base_seed, i)`.
    pub base_seed: u64,
    /// Give-up bound per session.
    pub poll_timeout: Duration,
    /// Sessions each client runs back to back (closed loop). More
    /// sessions per run means more waves for a fabric to drain, so
    /// start-up and the last wave's tail weigh less in the throughput.
    pub sessions_per_client: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            clients: 16,
            benchmark: "tpch-sf1".to_string(),
            num_configs: 2,
            base_seed: env::base_seed(),
            poll_timeout: Duration::from_secs(120),
            sessions_per_client: 1,
        }
    }
}

/// What one client observed.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// Client index within the run.
    pub client: usize,
    /// The session seed this client submitted.
    pub seed: u64,
    /// Terminal state reported by the server (`done`, `failed`, …), or a
    /// transport-level error description.
    pub state: String,
    /// The winning configuration script (`done` sessions only).
    pub script: Option<String>,
    /// Submit → terminal-state wall time.
    pub latency: Duration,
}

impl ClientOutcome {
    /// True when the session finished with a configuration.
    pub fn ok(&self) -> bool {
        self.state == "done" && self.script.is_some()
    }
}

/// An aggregated load run against one server.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// Worker count of the server this run hit (0 = external server,
    /// unknown).
    pub workers: usize,
    /// Per-client outcomes, client-index order.
    pub outcomes: Vec<ClientOutcome>,
    /// Wall time of the whole run.
    pub wall: Duration,
}

impl LoadRun {
    /// Clients that failed (transport error, failed session, missing
    /// config).
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok()).count()
    }

    /// Completed sessions per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        let ok = self.outcomes.len() - self.failures();
        ok as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Nearest-rank latency percentile in milliseconds, `p` in (0, 100].
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        let mut sorted: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.latency.as_secs_f64() * 1e3)
            .collect();
        if sorted.is_empty() {
            return 0.0;
        }
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// JSON summary of this run.
    pub fn to_json(&self) -> Value {
        let outcomes: Vec<Value> = self
            .outcomes
            .iter()
            .map(|o| {
                json!({
                    "client": o.client,
                    "seed": o.seed,
                    "state": o.state.as_str(),
                    "latency_ms": o.latency.as_secs_f64() * 1e3,
                })
            })
            .collect();
        json!({
            "workers": self.workers,
            "clients": self.outcomes.len(),
            "failures": self.failures(),
            "wall_s": self.wall.as_secs_f64(),
            "sessions_per_sec": self.sessions_per_sec(),
            "latency_ms": json!({
                "p50": self.latency_percentile_ms(50.0),
                "p95": self.latency_percentile_ms(95.0),
                "p99": self.latency_percentile_ms(99.0),
            }),
            "outcomes": Value::Array(outcomes),
        })
    }
}

/// Runs one client: submit, poll to a terminal state, fetch the config —
/// all over a single keep-alive connection (polling every 10 ms through
/// fresh connections is exactly the workload connection reuse exists for).
/// Transport errors become a synthetic `error: …` state instead of a panic
/// so one refused connection does not sink the whole run.
fn run_client(addr: SocketAddr, client: usize, opts: &LoadOptions) -> ClientOutcome {
    // Masked into i64 range: session seeds travel through JSON, whose
    // integer model is i64.
    let seed = derive_seed(opts.base_seed, client as u64) & (i64::MAX as u64);
    let started = Instant::now();
    let mut conn = Connection::new(addr);
    let fail = |state: String| ClientOutcome {
        client,
        seed,
        state,
        script: None,
        latency: started.elapsed(),
    };

    let body = json!({
        "benchmark": opts.benchmark.as_str(),
        "seed": seed,
        "num_configs": opts.num_configs,
    })
    .to_string_pretty();
    // A refused connect means the endpoint process is down — distinct from
    // an HTTP-level rejection. During shard failover the coordinator (or a
    // restarting single server) comes back within a probe interval, so the
    // client retries the submit once through the coordinator before giving
    // up. Refusal is safe to retry even for this POST: nothing was sent.
    let submit =
        |conn: &mut Connection| conn.call_classified("POST", "/sessions", &[], Some(&body));
    let (status, _, response) = match submit(&mut conn) {
        Ok(r) => r,
        Err(e) if e.is_refused() => {
            std::thread::sleep(Duration::from_millis(100));
            match submit(&mut conn) {
                Ok(r) => r,
                Err(e) => return fail(format!("error: submit: {}", e.into_inner())),
            }
        }
        Err(e) => return fail(format!("error: submit: {}", e.into_inner())),
    };
    if status != 202 {
        return fail(format!("error: submit rejected with {status}: {response}"));
    }
    let id = match parse(&response).ok().and_then(|d| d.get("id")?.as_i64()) {
        Some(id) => id,
        None => return fail(format!("error: bad submit response: {response}")),
    };

    let mut refused_retries = 0;
    let state = loop {
        if started.elapsed() > opts.poll_timeout {
            break "error: poll timeout".to_string();
        }
        let path = format!("/sessions/{id}?wait_ms=1000");
        let (status, _, response) = match conn.call_classified("GET", &path, &[], None) {
            Ok(r) => r,
            // Connection refused mid-poll: the endpoint died under us
            // (kill-one-shard). Retry once through the coordinator after a
            // beat; a second refusal means it is genuinely gone.
            Err(e) if e.is_refused() && refused_retries == 0 => {
                refused_retries += 1;
                std::thread::sleep(Duration::from_millis(200));
                continue;
            }
            Err(e) => break format!("error: poll: {}", e.into_inner()),
        };
        match status {
            200 => {}
            // The owning shard is down and recovering; the coordinator
            // says retry later. Transient as long as the timeout allows.
            502 | 503 => {
                std::thread::sleep(Duration::from_millis(200));
                continue;
            }
            _ => break format!("error: poll status {status}"),
        }
        let state = parse(&response)
            .ok()
            .and_then(|d| Some(d.get("state")?.as_str()?.to_string()));
        match state.as_deref() {
            Some("done" | "failed" | "cancelled") => break state.unwrap(),
            // Long-poll returned on timeout without a transition; go
            // straight back to waiting — no client-side sleep needed.
            Some(_) => {}
            None => break format!("error: bad status document: {response}"),
        }
    };
    let latency = started.elapsed();

    let script = (state == "done")
        .then(|| {
            let (status, _, response) = conn
                .call("GET", &format!("/sessions/{id}/config"), &[], None)
                .ok()?;
            (status == 200)
                .then(|| parse(&response).ok())
                .flatten()
                .and_then(|d| Some(d.get("script")?.as_str()?.to_string()))
        })
        .flatten();
    ClientOutcome {
        client,
        seed,
        state,
        script,
        latency,
    }
}

/// Fires `opts.clients` concurrent clients at `addr`, each running
/// `opts.sessions_per_client` sessions back to back, and collects their
/// outcomes (sorted by session slot, so two runs with the same options
/// align element-wise). `workers` is only recorded in the result.
pub fn run_against(addr: SocketAddr, workers: usize, opts: &LoadOptions) -> LoadRun {
    let started = Instant::now();
    let rounds = opts.sessions_per_client.max(1);
    let mut outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|client| {
                scope.spawn(move || {
                    (0..rounds)
                        // Session slot: unique across the run, stable
                        // across topologies — it derives the seed.
                        .map(|round| run_client(addr, round * opts.clients + client, opts))
                        .collect::<Vec<ClientOutcome>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client thread"))
            .collect()
    });
    outcomes.sort_by_key(|o| o.client);
    LoadRun {
        workers,
        outcomes,
        wall: started.elapsed(),
    }
}

/// Starts an in-process server with `workers` workers, runs the client set
/// against it over real TCP loopback, and shuts the server down.
pub fn run_in_process(workers: usize, opts: &LoadOptions) -> io::Result<LoadRun> {
    let mut server = start(ServerConfig {
        workers,
        queue_depth: opts.clients.max(64),
        // Every client may hold a polling connection at once; admission
        // 503s would show up as load-run failures, so size the cap to the
        // client count.
        max_connections: opts.clients.max(64),
        // All load clients share the default tenant; the per-tenant quota
        // must not reject what the load run intends to submit.
        tenant_cap: opts.clients.max(64),
        ..ServerConfig::default()
    })?;
    let run = run_against(server.addr(), workers, opts);
    server.shutdown();
    Ok(run)
}

/// The worker-pool determinism matrix: the same client set at 1 worker and
/// at 4 workers. Returns both runs plus the list of seeds whose winning
/// scripts differ (must be empty — the determinism contract).
pub fn run_matrix(opts: &LoadOptions) -> io::Result<(LoadRun, LoadRun, Vec<u64>)> {
    let serial = run_in_process(1, opts)?;
    let pooled = run_in_process(4, opts)?;
    let mut mismatched = Vec::new();
    for (a, b) in serial.outcomes.iter().zip(&pooled.outcomes) {
        debug_assert_eq!(a.seed, b.seed);
        if a.script != b.script || a.state != b.state {
            mismatched.push(a.seed);
        }
    }
    Ok((serial, pooled, mismatched))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let run = LoadRun {
            workers: 1,
            outcomes: (0..10)
                .map(|i| ClientOutcome {
                    client: i,
                    seed: i as u64,
                    state: "done".to_string(),
                    script: Some("s".to_string()),
                    latency: Duration::from_millis((i as u64 + 1) * 10),
                })
                .collect(),
            wall: Duration::from_secs(1),
        };
        assert_eq!(run.latency_percentile_ms(50.0), 50.0);
        assert_eq!(run.latency_percentile_ms(95.0), 100.0);
        assert_eq!(run.latency_percentile_ms(99.0), 100.0);
        assert_eq!(run.failures(), 0);
        assert_eq!(run.sessions_per_sec(), 10.0);
    }

    /// Satellite of the sharded fabric: a client polling through the
    /// coordinator survives SIGKILL of the shard owning its session —
    /// refused/503 answers are transient, the shard restarts on its WAL,
    /// and every acked session still completes.
    #[test]
    fn clients_survive_kill_one_shard_failover() {
        if crate::fleet::server_binary().is_err() {
            eprintln!("skipped: lt-serve binary not built next to the test executable");
            return;
        }
        let envs = vec![
            ("LT_LLM_LATENCY_MS".to_string(), "300".to_string()),
            ("LT_SHARD_PROBE_MS".to_string(), "100".to_string()),
        ];
        let conns = crate::ServerConfig::default().max_connections;
        let mut fleet =
            crate::fleet::Fleet::spawn(2, 1, conns, &envs).expect("spawn 2-shard fleet");
        let addr = fleet.coordinator_addr();
        let opts = LoadOptions {
            clients: 4,
            num_configs: 2,
            base_seed: 9500,
            poll_timeout: Duration::from_secs(120),
            ..LoadOptions::default()
        };
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..opts.clients)
                .map(|client| {
                    let opts = &opts;
                    scope.spawn(move || run_client(addr, client, opts))
                })
                .collect();
            // Let the submits land and the slow sessions get in flight,
            // then crash one shard and bring it back.
            std::thread::sleep(Duration::from_millis(200));
            fleet.kill_shard(1);
            std::thread::sleep(Duration::from_millis(400));
            fleet.restart_shard(1).expect("restart killed shard");
            handles
                .into_iter()
                .map(|h| h.join().expect("load client thread"))
                .collect()
        });
        fleet.shutdown();
        for o in &outcomes {
            assert!(
                o.ok(),
                "client {} (seed {}) did not survive the shard kill: {}",
                o.client,
                o.seed,
                o.state
            );
        }
    }

    #[test]
    fn single_client_round_trip_over_loopback() {
        let opts = LoadOptions {
            clients: 1,
            num_configs: 2,
            ..LoadOptions::default()
        };
        let run = run_in_process(1, &opts).unwrap();
        assert_eq!(run.failures(), 0, "outcomes: {:?}", run.outcomes);
        assert!(run.outcomes[0].script.is_some());
    }
}
