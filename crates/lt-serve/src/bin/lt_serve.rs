//! `lt-serve`: the tuning service daemon — a standalone server, one shard
//! of a fabric, or the coordinator fronting a fabric.
//!
//! ```text
//! lt-serve [--addr HOST:PORT] [--workers N] [--queue N] [--conns N]
//!          [--wal-dir DIR] [--shard-id N]
//! lt-serve --coordinator --shard ID=HOST:PORT [--shard ID=HOST:PORT ...]
//!          [--addr HOST:PORT] [--conns N]
//! ```
//!
//! Server flags override the `LT_SERVE_ADDR` / `LT_SERVE_WORKERS` /
//! `LT_SERVE_QUEUE` / `LT_SERVE_CONNS` / `LT_WAL_DIR` / `LT_SHARD_ID`
//! environment variables, which override the defaults (127.0.0.1:7878,
//! 2 workers, queue depth 64, 64 connections, no durability). With
//! `--wal-dir` the daemon keeps a write-ahead session log in
//! `DIR/sessions.wal` and recovers acknowledged sessions from it on
//! startup. `--shard-id` gives the daemon a shard identity: `/shard/*`
//! control routes and a labelled `/metrics`.
//!
//! With `--coordinator` the daemon instead fronts the listed shards:
//! global admission (fleet-wide quotas answering 429 + `Retry-After`),
//! consistent-hash routing of new sessions, per-session proxying, health
//! probing and aggregated `/metrics`. Coordinator knobs come from
//! `LT_SHARD_VNODES`, `LT_SHARD_PROBE_MS`, `LT_SERVE_TENANT_CAP` and
//! `LT_SERVE_QUEUE` (see `CoordinatorConfig`). The connection limits —
//! `--conns`/`LT_SERVE_CONNS`, `LT_SERVE_KEEPALIVE_MAX` and
//! `LT_SERVE_IDLE_MS` — apply in both modes. Stop either mode with
//! `POST /shutdown` or Ctrl-C.

use lt_serve::{CoordinatorConfig, ServerConfig, ShardSpec};

fn bad_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn parse_shard(spec: &str) -> ShardSpec {
    let Some((id, addr)) = spec.split_once('=') else {
        bad_usage(&format!("--shard wants ID=HOST:PORT, got {spec:?}"));
    };
    let Ok(id) = id.trim().parse() else {
        bad_usage(&format!("--shard id must be an integer, got {id:?}"));
    };
    let Ok(addr) = addr.trim().parse() else {
        bad_usage(&format!("--shard address must be HOST:PORT, got {addr:?}"));
    };
    ShardSpec { id, addr }
}

fn run_coordinator(addr: Option<String>, shards: Vec<ShardSpec>, server: &ServerConfig) {
    if shards.is_empty() {
        bad_usage("--coordinator needs at least one --shard ID=HOST:PORT");
    }
    let mut config = CoordinatorConfig::new(shards);
    config.limits = server.limits();
    config.addr = addr.unwrap_or_else(|| {
        std::env::var("LT_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7879".to_string())
    });
    let shard_count = config.shards.len();
    let mut coordinator = match lt_serve::start_coordinator(config.clone()) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("error: cannot start coordinator on {}: {err}", config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "lt-serve coordinator listening on http://{} ({shard_count} shards, probe every {}ms)",
        coordinator.addr(),
        config.probe_ms
    );
    println!(
        "shutdown: curl -X POST http://{}/shutdown",
        coordinator.addr()
    );
    coordinator.wait();
}

fn main() {
    let mut config = ServerConfig::from_env();
    if config.addr == "127.0.0.1:0" {
        // The daemon wants a knowable default port; tests and the load
        // generator (which construct ServerConfig directly) keep port 0.
        config.addr = "127.0.0.1:7878".to_string();
    }
    let mut coordinator = false;
    let mut coordinator_addr: Option<String> = None;
    let mut shards: Vec<ShardSpec> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| bad_usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--coordinator" => coordinator = true,
            "--shard" => shards.push(parse_shard(&value("--shard"))),
            "--addr" => {
                let addr = value("--addr");
                coordinator_addr = Some(addr.clone());
                config.addr = addr;
            }
            "--workers" => {
                config.workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| bad_usage("--workers must be a positive integer"))
            }
            "--queue" => {
                config.queue_depth = value("--queue")
                    .parse()
                    .unwrap_or_else(|_| bad_usage("--queue must be a positive integer"))
            }
            "--conns" => {
                config.max_connections = value("--conns")
                    .parse()
                    .unwrap_or_else(|_| bad_usage("--conns must be a positive integer"))
            }
            "--wal-dir" => config.wal_dir = Some(value("--wal-dir")),
            "--shard-id" => {
                config.shard_id = Some(
                    value("--shard-id")
                        .parse()
                        .unwrap_or_else(|_| bad_usage("--shard-id must be an integer")),
                )
            }
            "--help" | "-h" => {
                println!(
                    "usage: lt-serve [--addr HOST:PORT] [--workers N] [--queue N] [--conns N] \
                     [--wal-dir DIR] [--shard-id N]\n\
                     \x20      lt-serve --coordinator --shard ID=HOST:PORT [--shard ...] \
                     [--addr HOST:PORT] [--conns N]"
                );
                return;
            }
            other => bad_usage(&format!("unknown flag {other}")),
        }
    }

    if coordinator {
        run_coordinator(coordinator_addr, shards, &config);
        return;
    }
    if !shards.is_empty() {
        bad_usage("--shard only makes sense with --coordinator");
    }

    let mut server = match lt_serve::start(config.clone()) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("error: cannot bind {}: {err}", config.addr);
            std::process::exit(1);
        }
    };
    let shard = config
        .shard_id
        .map(|id| format!(", shard {id}"))
        .unwrap_or_default();
    println!(
        "lt-serve listening on http://{} ({} workers, queue {}{shard})",
        server.addr(),
        config.workers,
        config.queue_depth
    );
    println!(
        "submit:   curl -X POST http://{}/sessions -d '{{\"benchmark\": \"tpch-sf1\"}}'",
        server.addr()
    );
    println!("shutdown: curl -X POST http://{}/shutdown", server.addr());
    server.wait();
}
