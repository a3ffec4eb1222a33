//! `lt-serve`: the tuning service daemon — a standalone server, one shard
//! of a fabric, or the coordinator fronting a fabric.
//!
//! ```text
//! lt-serve [--addr HOST:PORT] [--workers N] [--queue N] [--conns N]
//!          [--wal-dir DIR] [--shard-id N]
//! lt-serve --coordinator --shard ID=HOST:PORT [--shard ID=HOST:PORT ...]
//!          [--addr HOST:PORT] [--queue N] [--conns N]
//! ```
//!
//! Defaults: 127.0.0.1:7878 (the coordinator 127.0.0.1:7879), 2 workers,
//! queue depth 64, 64 connections, no durability. With `--wal-dir` the
//! daemon keeps a write-ahead session log in `DIR/sessions.wal` and
//! recovers acknowledged sessions from it on startup. `--shard-id` gives
//! the daemon a shard identity: `/shard/*` control routes and a labelled
//! `/metrics`.
//!
//! With `--coordinator` the daemon instead fronts the listed shards:
//! global admission (fleet-wide quotas answering 429 + `Retry-After`),
//! session ids dealt to the shards in turn (in shard-id order, whatever
//! the flag order; a shard id listed twice exits 1), per-session proxying
//! to the shard an id names, health probing and aggregated `/metrics`.
//! Its backlog cap is `--queue` × the shard count; `LT_SHARD_PROBE_MS`
//! sets the probe period. The connection cap applies in both modes. Stop
//! either mode with `POST /shutdown` or Ctrl-C.

use lt_common::env;
use lt_serve::{CoordinatorConfig, ServerConfig, ShardSpec};

fn bad_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// A flag's value as a positive integer; exits with usage status otherwise.
fn positive(flag: &str, value: &str) -> usize {
    value
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| bad_usage(&format!("{flag} must be a positive integer")))
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
    let mut config = CoordinatorConfig::new(shards, server);
    config.addr = addr.unwrap_or_else(|| "127.0.0.1:7879".to_string());
    config.probe_ms = env::get("LT_SHARD_PROBE_MS", config.probe_ms, |&n| n > 0);
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
    let mut config = ServerConfig::default();
    let mut coordinator = false;
    let mut addr: Option<String> = None;
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
            "--addr" => addr = Some(value("--addr")),
            "--workers" => config.workers = positive("--workers", &value("--workers")),
            "--queue" => config.queue_depth = positive("--queue", &value("--queue")),
            "--conns" => config.max_connections = positive("--conns", &value("--conns")),
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
                     [--addr HOST:PORT] [--queue N] [--conns N]"
                );
                return;
            }
            other => bad_usage(&format!("unknown flag {other}")),
        }
    }

    if coordinator {
        run_coordinator(addr, shards, &config);
        return;
    }
    if !shards.is_empty() {
        bad_usage("--shard only makes sense with --coordinator");
    }
    config.addr = addr.unwrap_or_else(|| "127.0.0.1:7878".to_string());

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
