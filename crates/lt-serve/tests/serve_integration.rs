//! End-to-end tests for the tuning service over real TCP loopback.
//!
//! The headline test is the determinism contract: the same 16 requests run
//! against a 1-worker server and a 4-worker server must yield byte-identical
//! per-seed best configuration scripts — worker scheduling must never leak
//! into tuning results.

use lt_common::json::{parse, Value};
use lt_serve::http::{request, request_with, Connection};
use lt_serve::load::{run_matrix, LoadOptions};
use lt_serve::{start, start_coordinator, CoordinatorConfig, ServerConfig, ShardSpec};
use lt_synth::{predicate_templates, Phase};
use lt_workloads::Benchmark;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn start_server(workers: usize, queue_depth: usize) -> lt_serve::ServerHandle {
    start(ServerConfig {
        workers,
        queue_depth,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

fn post_session(addr: SocketAddr, body: &str) -> (u16, Value) {
    let (status, response) = request(addr, "POST", "/sessions", Some(body)).expect("submit");
    (status, parse(&response).expect("response is JSON"))
}

fn session_state(addr: SocketAddr, id: i64) -> String {
    let (status, response) = request(addr, "GET", &format!("/sessions/{id}"), None).expect("poll");
    assert_eq!(status, 200);
    parse(&response)
        .ok()
        .and_then(|d| Some(d.get("state")?.as_str()?.to_string()))
        .expect("status document carries a state")
}

fn wait_terminal(addr: SocketAddr, id: i64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let state = session_state(addr, id);
        if matches!(state.as_str(), "done" | "failed" | "cancelled") {
            return state;
        }
        assert!(Instant::now() < deadline, "session {id} stuck in {state}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// 16 concurrent requests, 1 worker vs 4 workers: zero failures and
/// byte-identical per-seed winning scripts.
#[test]
fn pool_size_does_not_change_results() {
    let opts = LoadOptions {
        clients: 16,
        num_configs: 2,
        ..LoadOptions::default()
    };
    let (serial, pooled, mismatched) = run_matrix(&opts).expect("matrix runs");
    assert_eq!(
        serial.failures(),
        0,
        "serial outcomes: {:?}",
        serial.outcomes
    );
    assert_eq!(
        pooled.failures(),
        0,
        "pooled outcomes: {:?}",
        pooled.outcomes
    );
    assert!(
        mismatched.is_empty(),
        "per-seed configs differ across pool sizes for seeds {mismatched:?}"
    );
    // The scripts are real configurations, not empty strings.
    for outcome in &serial.outcomes {
        let script = outcome.script.as_deref().unwrap();
        assert!(script.contains("SET"), "suspicious script: {script:?}");
    }
}

/// A full bounded queue answers 429 and the rejected session is not
/// registered; accepted sessions still finish.
#[test]
fn overload_returns_429_and_recovers() {
    let mut server = start_server(1, 1);
    let addr = server.addr();
    // 1 worker + queue depth 1: the third-plus rapid submit must overflow.
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for seed in 0..8 {
        let (status, doc) = post_session(addr, &format!(r#"{{"seed": {seed}, "num_configs": 2}}"#));
        match status {
            202 => accepted.push(doc.get("id").and_then(Value::as_i64).unwrap()),
            429 => {
                rejected += 1;
                let message = doc
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Value::as_str)
                    .unwrap();
                assert!(message.contains("queue"), "unexpected 429 body: {message}");
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(rejected > 0, "queue of depth 1 never overflowed");
    assert!(!accepted.is_empty());
    for id in &accepted {
        assert_eq!(wait_terminal(addr, *id), "done");
    }
    // Rejected sessions must not appear in the listing.
    let (status, response) = request(addr, "GET", "/sessions", None).unwrap();
    assert_eq!(status, 200);
    let listed = parse(&response)
        .ok()
        .and_then(|d| Some(d.get("sessions")?.as_array()?.len()))
        .unwrap();
    assert_eq!(listed, accepted.len());
    server.shutdown();
}

/// DELETE cancels a queued session immediately and a running session
/// cooperatively; terminal sessions are left untouched.
#[test]
fn delete_cancels_queued_and_running_sessions() {
    let mut server = start_server(1, 16);
    let addr = server.addr();
    // Fill the single worker with a longer session, then queue another.
    let (status, doc) = post_session(addr, r#"{"seed": 1, "num_configs": 5}"#);
    assert_eq!(status, 202);
    let running = doc.get("id").and_then(Value::as_i64).unwrap();
    let (status, doc) = post_session(addr, r#"{"seed": 2, "num_configs": 2}"#);
    assert_eq!(status, 202);
    let queued = doc.get("id").and_then(Value::as_i64).unwrap();

    // The queued session dies instantly.
    let (status, _) = request(addr, "DELETE", &format!("/sessions/{queued}"), None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(session_state(addr, queued), "cancelled");

    // The running session stops at its next interruption point.
    let (status, _) = request(addr, "DELETE", &format!("/sessions/{running}"), None).unwrap();
    assert_eq!(status, 200);
    let state = wait_terminal(addr, running);
    assert!(
        state == "cancelled" || state == "done",
        "cancel raced completion into {state}"
    );

    // Cancelling a terminal session is a no-op 200.
    let (status, doc_text) = request(addr, "DELETE", &format!("/sessions/{queued}"), None).unwrap();
    assert_eq!(status, 200);
    assert!(doc_text.contains("cancelled"));
    server.shutdown();
}

/// Malformed inputs come back as 4xx errors — none of them crash a worker,
/// and the server keeps tuning afterwards.
#[test]
fn malformed_requests_are_rejected_not_fatal() {
    let mut server = start_server(1, 16);
    let addr = server.addr();
    let bad_bodies = [
        ("{not json", "invalid JSON"),
        (r#"{"benchmark": "tpcc"}"#, "unknown benchmark"),
        (r#"{"num_configs": 0}"#, "num_configs"),
        // An absurd sample count must be a 400, not a worker pinned for
        // hours (or an aborting multi-petabyte allocation).
        (r#"{"num_configs": 1000000000000000}"#, "at most"),
        (r#"{"token_budget": 0}"#, "token_budget"),
        (r#"{"token_budget": 99999999999}"#, "at most"),
        (r#"{"temperature": -1}"#, "temperature"),
        (r#"{"dbms": "oracle"}"#, "unknown dbms"),
        (
            r#"{"params_only": true, "indexes_only": true}"#,
            "exclusive",
        ),
    ];
    for (body, needle) in bad_bodies {
        let (status, doc) = post_session(addr, body);
        assert_eq!(status, 400, "{body} should be rejected");
        let message = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap();
        assert!(
            message.contains(needle),
            "{body}: expected {needle:?} in {message:?}"
        );
    }

    // Unknown routes and methods.
    let (status, _) = request(addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/sessions/999", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/sessions/abc", None).unwrap();
    assert_eq!(status, 400);
    let (status, _) = request(addr, "PATCH", "/sessions", None).unwrap();
    assert_eq!(status, 405);
    // A wrong method on an existing path is 405 naming the allowed set,
    // not a misleading 404 — and the method check precedes the id lookup.
    for (method, path) in [
        ("POST", "/metrics"),
        ("DELETE", "/healthz"),
        ("GET", "/shutdown"),
        ("POST", "/sessions/999"),
        ("DELETE", "/sessions/999/config"),
        ("PUT", "/sessions"),
    ] {
        let (status, body) = request(addr, method, path, None).unwrap();
        assert_eq!(status, 405, "{method} {path}: {body}");
        assert!(body.contains("allow:"), "{method} {path}: {body}");
    }

    // An initial_config with no valid statement fails its own session only…
    let (status, doc) = post_session(
        addr,
        r#"{"initial_config": "DROP EVERYTHING;", "num_configs": 2}"#,
    );
    assert_eq!(status, 202);
    let poisoned = doc.get("id").and_then(Value::as_i64).unwrap();
    assert_eq!(wait_terminal(addr, poisoned), "failed");
    let (status, response) =
        request(addr, "GET", &format!("/sessions/{poisoned}/config"), None).unwrap();
    assert_eq!(status, 409, "failed session has no config: {response}");

    // …and the worker that ran it still serves the next session.
    let (status, doc) = post_session(addr, r#"{"seed": 3, "num_configs": 2}"#);
    assert_eq!(status, 202);
    let healthy = doc.get("id").and_then(Value::as_i64).unwrap();
    assert_eq!(wait_terminal(addr, healthy), "done");
    server.shutdown();
}

/// `/metrics` exposes live pipeline counters accumulated across sessions.
#[test]
fn keep_alive_carries_a_whole_session_on_one_connection() {
    let mut server = start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        keepalive_max: 64,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();
    let mut conn = Connection::new(addr);

    // Submit, poll to done, fetch the config — every exchange over the
    // same TCP connection.
    let (status, headers, response) = conn
        .call(
            "POST",
            "/sessions",
            &[],
            Some(r#"{"seed": 9300, "num_configs": 2}"#),
        )
        .expect("submit over keep-alive");
    assert_eq!(status, 202, "{response}");
    assert!(
        headers
            .iter()
            .any(|(n, v)| n == "connection" && v == "keep-alive"),
        "server honors the keep-alive request: {headers:?}"
    );
    let id = parse(&response)
        .ok()
        .and_then(|d| d.get("id")?.as_i64())
        .expect("session id");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, _, response) = conn
            .call("GET", &format!("/sessions/{id}"), &[], None)
            .expect("poll over keep-alive");
        assert_eq!(status, 200);
        let state = parse(&response)
            .ok()
            .and_then(|d| Some(d.get("state")?.as_str()?.to_string()))
            .expect("state");
        if state == "done" {
            break;
        }
        assert_ne!(state.as_str(), "failed", "{response}");
        assert!(Instant::now() < deadline, "session stuck");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, _, response) = conn
        .call("GET", &format!("/sessions/{id}/config"), &[], None)
        .expect("config over keep-alive");
    assert_eq!(status, 200, "{response}");

    // The server counted the reused exchanges.
    let (status, metrics) = request(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    let reused = parse(&metrics)
        .ok()
        .and_then(|d| d.get("counters")?.get("serve.keepalive_reuse")?.as_i64())
        .unwrap_or(0);
    assert!(reused > 0, "keep-alive reuse not counted: {metrics}");
    server.shutdown();
}

#[test]
fn keep_alive_connection_survives_the_request_cap() {
    let mut server = start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        keepalive_max: 3, // force a server-side close every 3 requests
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut conn = Connection::new(server.addr());
    for i in 0..10 {
        let (status, _, response) = conn
            .call("GET", "/metrics", &[], None)
            .unwrap_or_else(|e| panic!("call {i} failed: {e}"));
        assert_eq!(status, 200, "{response}");
    }
    server.shutdown();
}

#[test]
fn metrics_expose_live_counters() {
    let mut server = start_server(2, 16);
    let addr = server.addr();
    let (status, doc) = post_session(addr, r#"{"seed": 7, "num_configs": 2}"#);
    assert_eq!(status, 202);
    let id = doc.get("id").and_then(Value::as_i64).unwrap();
    assert_eq!(wait_terminal(addr, id), "done");

    let (status, response) = request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let doc = parse(&response).expect("metrics are JSON");
    let counters = doc.get("counters").expect("counters object");
    let counter = |name: &str| counters.get(name).and_then(Value::as_i64).unwrap_or(0);
    // Serving-layer counters…
    assert!(counter("serve.sessions_accepted") >= 1);
    assert!(counter("serve.sessions_done") >= 1);
    assert!(counter("serve.http_requests") >= 2);
    // …and pipeline counters flowing through the shared obs registry.
    assert!(counter("llm.prompt_tokens") > 0, "metrics: {response}");
    assert!(
        counter("dbms.plan_cache.hit") + counter("dbms.plan_cache.miss") > 0,
        "metrics: {response}"
    );
    // Session-state breakdown rides along.
    let done = doc
        .get("sessions")
        .and_then(|s| s.get("done"))
        .and_then(Value::as_i64)
        .unwrap();
    assert!(done >= 1);
    // The event log must NOT be in the document (it grows without bound).
    assert!(doc.get("events").is_none());
    server.shutdown();
}

/// `POST /shutdown` alone stops the accept loop: the route pokes the
/// listener, so `wait()` returns without any further connection arriving
/// (the daemon's documented stop procedure).
#[test]
fn http_shutdown_stops_the_accept_loop() {
    let mut server = start_server(1, 4);
    let addr = server.addr();
    let (status, body) = request(addr, "POST", "/shutdown", None).expect("shutdown request");
    assert_eq!(status, 200);
    assert!(body.contains("shutting_down"), "{body}");
    // Hangs here (and the test times out) if /shutdown only set the flag.
    server.wait();
    assert!(
        request(addr, "GET", "/healthz", None).is_err(),
        "listener still accepting after shutdown"
    );
    server.shutdown();
}

/// Holds the only connection slot of the server at `addr`, checks that
/// another client is turned away with 503, then releases the slot and
/// checks that service resumes.
fn assert_connection_cap(addr: SocketAddr) {
    // An idle client holds the single connection slot (its thread sits in
    // the read timeout)…
    let held = std::net::TcpStream::connect(addr).expect("hold a connection");
    // …so further connections are turned away at the accept loop. The 503
    // write can race the rejected client's own request write (reset), so
    // poll until a clean 503 is observed.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match request(addr, "GET", "/healthz", None) {
            Ok((503, body)) => {
                assert!(body.contains("too many connections"), "{body}");
                break;
            }
            Ok((200, _)) | Err(_) => {} // holder not counted yet, or write race
            Ok((status, body)) => panic!("unexpected {status}: {body}"),
        }
        assert!(Instant::now() < deadline, "cap never produced a 503");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Releasing the held connection frees the slot and service resumes.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok((200, _)) = request(addr, "GET", "/healthz", None) {
            break;
        }
        assert!(Instant::now() < deadline, "connection slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Connections above `max_connections` are refused with 503 before any
/// thread is spawned, and the slot frees once a connection closes.
#[test]
fn connection_cap_answers_503_and_recovers() {
    let mut server = start(ServerConfig {
        workers: 1,
        queue_depth: 4,
        max_connections: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    assert_connection_cap(server.addr());
    server.shutdown();
}

/// A 1-shard fabric whose coordinator runs with `limits` adjusted by
/// `configure`.
fn one_shard_fabric(
    configure: impl FnOnce(&mut lt_serve::http::Limits),
) -> (lt_serve::ServerHandle, lt_serve::CoordinatorHandle) {
    let shard = start(ServerConfig {
        workers: 1,
        shard_id: Some(0),
        ..ServerConfig::default()
    })
    .expect("bind shard");
    let mut config = CoordinatorConfig::new(
        vec![ShardSpec {
            id: 0,
            addr: shard.addr(),
        }],
        &ServerConfig::default(),
    );
    configure(&mut config.limits);
    let coord = start_coordinator(config).expect("bind coordinator");
    (shard, coord)
}

/// The coordinator's front end is capped like a daemon's.
#[test]
fn coordinator_connection_cap_answers_503_and_recovers() {
    let (_shard, mut coord) = one_shard_fabric(|limits| limits.max_connections = 1);
    assert_connection_cap(coord.addr());
    coord.shutdown();
}

/// The idle timeout bounds the wait between requests, never a request being
/// routed: a long-poll through the coordinator that outlasts it answers 200.
#[test]
fn coordinator_idle_timeout_never_cuts_a_long_poll() {
    let (_shard, mut coord) = one_shard_fabric(|limits| limits.idle_timeout_ms = 200);
    let addr = coord.addr();
    // A long session holds the shard's single worker, so the second one
    // stays queued and its long-poll has a state change to wait for.
    let (status, _) = post_session(addr, r#"{"seed": 9500, "num_configs": 64}"#);
    assert_eq!(status, 202);
    let (status, doc) = post_session(addr, r#"{"seed": 9501, "num_configs": 2}"#);
    assert_eq!(status, 202);
    let queued = doc.get("id").and_then(Value::as_i64).unwrap();
    let started = Instant::now();
    let (status, body) = request(
        addr,
        "GET",
        &format!("/sessions/{queued}?wait_ms=1000"),
        None,
    )
    .expect("long-poll through the coordinator");
    assert_eq!(status, 200, "{body}");
    let waited = started.elapsed();
    let state = parse(&body)
        .ok()
        .and_then(|d| Some(d.get("state")?.as_str()?.to_string()))
        .expect("status document carries a state");
    assert!(
        state != "queued" || waited >= Duration::from_millis(1000),
        "long-poll returned early without a state change: {waited:?}, {body}"
    );
    coord.shutdown();
}

/// Builds a `POST /sessions/<id>/queries` body from SQL strings.
fn feed_body(sqls: &[String]) -> String {
    let queries: Vec<Value> = sqls.iter().map(|s| Value::String(s.clone())).collect();
    Value::Object(vec![("queries".to_string(), Value::Array(queries))]).to_string_pretty()
}

/// Per-tenant quotas: a tenant at its cap gets 429 + `Retry-After` while
/// other tenants (and the same tenant after its sessions finish) are still
/// admitted.
#[test]
fn tenant_quota_answers_429_with_retry_after() {
    let mut server = start(ServerConfig {
        workers: 1,
        queue_depth: 16,
        tenant_cap: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();

    // A default-tenant session occupies the single worker, so the acme
    // session below stays queued (non-terminal) while we probe the quota.
    let (status, doc) = post_session(addr, r#"{"seed": 1, "num_configs": 64}"#);
    assert_eq!(status, 202);
    let blocker = doc.get("id").and_then(Value::as_i64).unwrap();

    let acme = [("X-Tenant", "acme")];
    let (status, _, body) = request_with(
        addr,
        "POST",
        "/sessions",
        &acme,
        Some(r#"{"seed": 2, "num_configs": 2}"#),
    )
    .unwrap();
    assert_eq!(status, 202, "{body}");
    let queued = parse(&body)
        .ok()
        .and_then(|d| d.get("id")?.as_i64())
        .unwrap();

    // acme is at its cap of 1 → 429 with a Retry-After hint…
    let (status, headers, body) = request_with(
        addr,
        "POST",
        "/sessions",
        &acme,
        Some(r#"{"seed": 3, "num_configs": 2}"#),
    )
    .unwrap();
    assert_eq!(status, 429, "{body}");
    assert!(
        headers.iter().any(|(n, _)| n == "retry-after"),
        "429 without Retry-After: {headers:?}"
    );
    assert!(body.contains("acme"), "{body}");

    // …while a different tenant is admitted past acme's quota.
    let (status, _, body) = request_with(
        addr,
        "POST",
        "/sessions",
        &[("X-Tenant", "other")],
        Some(r#"{"seed": 4, "num_configs": 2}"#),
    )
    .unwrap();
    assert_eq!(status, 202, "{body}");

    // Once acme's session reaches a terminal state, the slot frees.
    assert_eq!(wait_terminal(addr, queued), "done");
    let (status, _, body) = request_with(
        addr,
        "POST",
        "/sessions",
        &acme,
        Some(r#"{"seed": 5, "num_configs": 2}"#),
    )
    .unwrap();
    assert_eq!(status, 202, "{body}");

    // The session status names its tenant.
    let (status, response) = request(addr, "GET", &format!("/sessions/{queued}"), None).unwrap();
    assert_eq!(status, 200);
    let tenant = parse(&response)
        .ok()
        .and_then(|d| Some(d.get("tenant")?.as_str()?.to_string()))
        .unwrap();
    assert_eq!(tenant, "acme");
    let _ = blocker;
    server.shutdown();
}

/// The full drift loop over HTTP: tune, feed in-distribution queries (no
/// alarm), feed a shifted batch (alarm), auto-re-tune back to `done` with
/// the drift status reflecting the event and the re-tune.
#[test]
fn query_feed_detects_drift_and_auto_retunes() {
    let mut server = start_server(2, 16);
    let addr = server.addr();
    let (status, doc) = post_session(
        addr,
        r#"{"seed": 5, "num_configs": 2, "auto_retune": true,
            "drift": {"window": 16, "stride": 4, "confirm": 2, "cooldown": 32}}"#,
    );
    assert_eq!(status, 202);
    let id = doc.get("id").and_then(Value::as_i64).unwrap();
    assert_eq!(wait_terminal(addr, id), "done");

    // Feeding the workload the session was tuned for must not alarm.
    let tpch: Vec<String> = Benchmark::TpchSf1
        .load()
        .queries
        .iter()
        .map(|q| q.sql.clone())
        .collect();
    let (status, response) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/queries"),
        Some(&feed_body(&tpch)),
    )
    .unwrap();
    assert_eq!(status, 200, "{response}");
    let doc = parse(&response).unwrap();
    assert_eq!(
        doc.get("events").and_then(Value::as_array).unwrap().len(),
        0,
        "in-distribution feed raised a false alarm: {response}"
    );
    assert_eq!(doc.get("retune").and_then(Value::as_bool), Some(false));

    // A shifted batch (the post-shift predicate templates, repeated) must
    // alarm and kick the auto-re-tune.
    let templates: Vec<String> = predicate_templates(Phase::After)
        .into_iter()
        .map(|(_, sql)| sql)
        .collect();
    let shifted: Vec<String> = std::iter::repeat_with(|| templates.clone())
        .take(16)
        .flatten()
        .collect();
    let (status, response) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/queries"),
        Some(&feed_body(&shifted)),
    )
    .unwrap();
    assert_eq!(status, 200, "{response}");
    let doc = parse(&response).unwrap();
    assert!(
        !doc.get("events")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty(),
        "shifted feed never alarmed: {response}"
    );
    assert_eq!(
        doc.get("retune").and_then(Value::as_bool),
        Some(true),
        "{response}"
    );

    // The re-tune completes and the session returns to `done` with the
    // drift status reflecting what happened.
    let deadline = Instant::now() + Duration::from_secs(120);
    let status_doc = loop {
        let (status, response) = request(addr, "GET", &format!("/sessions/{id}"), None).unwrap();
        assert_eq!(status, 200);
        let doc = parse(&response).unwrap();
        let state = doc
            .get("state")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        let retunes = doc
            .get("drift")
            .and_then(|d| d.get("retunes"))
            .and_then(Value::as_i64)
            .unwrap_or(0);
        let last_error = doc
            .get("drift")
            .and_then(|d| d.get("last_error"))
            .and_then(Value::as_str)
            .map(str::to_string);
        if state == "done" && retunes >= 1 {
            break doc;
        }
        assert!(
            last_error.is_none(),
            "re-tune failed instead of completing: {last_error:?}"
        );
        assert!(Instant::now() < deadline, "re-tune never completed");
        std::thread::sleep(Duration::from_millis(10));
    };
    let drift = status_doc.get("drift").unwrap();
    assert!(
        drift
            .get("queries_observed")
            .and_then(Value::as_i64)
            .unwrap()
            > 0
    );
    assert!(!drift
        .get("events")
        .and_then(Value::as_array)
        .unwrap()
        .is_empty());

    // The config endpoint serves the (re-tuned) winner.
    let (status, response) = request(addr, "GET", &format!("/sessions/{id}/config"), None).unwrap();
    assert_eq!(status, 200);
    assert!(response.contains("SET"), "{response}");

    // Feed guards: unparseable SQL is 400 and changes nothing; a session
    // without serving state (failed) is 409.
    let (status, response) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/queries"),
        Some(&feed_body(&["SELECT * FROM no_such_table".to_string()])),
    )
    .unwrap();
    assert_eq!(status, 400, "{response}");
    let (status, _) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/queries"),
        Some(r#"{"queries": []}"#),
    )
    .unwrap();
    assert_eq!(status, 400);
    let (status, doc) = post_session(
        addr,
        r#"{"initial_config": "DROP EVERYTHING;", "num_configs": 2}"#,
    );
    assert_eq!(status, 202);
    let failed = doc.get("id").and_then(Value::as_i64).unwrap();
    assert_eq!(wait_terminal(addr, failed), "failed");
    let (status, response) = request(
        addr,
        "POST",
        &format!("/sessions/{failed}/queries"),
        Some(&feed_body(&tpch[..1])),
    )
    .unwrap();
    assert_eq!(status, 409, "{response}");
    server.shutdown();
}

/// A `"spec"` feed body synthesizes the batch server-side via `lt-synth`
/// and runs it through the same validation/execution path as literal
/// queries — both directly against a shard and proxied through the
/// coordinator. Malformed and ambiguous bodies are 400 without executing
/// anything, and after a feed the per-detector drift scores surface as
/// `drift.*` gauges in `/metrics`.
#[test]
fn spec_feed_synthesizes_server_side_and_proxies_through_the_coordinator() {
    let shard = start(ServerConfig {
        workers: 2,
        shard_id: Some(0),
        ..ServerConfig::default()
    })
    .expect("bind shard");
    let mut config = CoordinatorConfig::new(
        vec![ShardSpec {
            id: 0,
            addr: shard.addr(),
        }],
        &ServerConfig::default(),
    );
    config.probe_ms = 50;
    let mut coord = start_coordinator(config).expect("bind coordinator");
    let addr = coord.addr();

    let (status, doc) = post_session(
        addr,
        r#"{"seed": 8700, "num_configs": 2,
            "drift": {"window": 16, "stride": 4, "confirm": 2, "cooldown": 32}}"#,
    );
    assert_eq!(status, 202);
    let id = doc.get("id").and_then(Value::as_i64).unwrap();
    assert_eq!(wait_terminal(addr, id), "done");

    // Declarative feed through the coordinator proxy: the shard expands
    // the spec into 24 catalog-valid queries and executes them all.
    let spec_body = r#"{"spec": {"benchmark": "tpch", "queries": 24, "seed": 7}}"#;
    let (status, response) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/queries"),
        Some(spec_body),
    )
    .unwrap();
    assert_eq!(status, 200, "{response}");
    let doc = parse(&response).unwrap();
    assert_eq!(
        doc.get("executed").and_then(Value::as_i64),
        Some(24),
        "{response}"
    );

    // The same spec replayed directly against the shard is deterministic:
    // it executes the same 24 queries again.
    let (status, response) = request(
        shard.addr(),
        "POST",
        &format!("/sessions/{id}/queries"),
        Some(spec_body),
    )
    .unwrap();
    assert_eq!(status, 200, "{response}");

    // Guards: ambiguous body, unknown spec field, out-of-range count —
    // all 400, nothing executed.
    for bad in [
        r#"{"queries": ["select count(*) from nation"], "spec": {"queries": 2}}"#,
        r#"{"spec": {"no_such_field": 1}}"#,
        r#"{"spec": {"queries": 100000}}"#,
        r#"{"spec": {"benchmark": "no-such-benchmark"}}"#,
    ] {
        let (status, response) =
            request(addr, "POST", &format!("/sessions/{id}/queries"), Some(bad)).unwrap();
        assert_eq!(status, 400, "body {bad} -> {response}");
    }

    // The drift monitor ran windowed evaluations during the feeds, so the
    // per-detector scores are live gauges in /metrics.
    let (status, response) = request(shard.addr(), "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    for gauge in ["drift.jsd", "drift.ewma_hit_rate", "drift.page_hinkley"] {
        assert!(response.contains(gauge), "missing {gauge} in {response}");
    }

    coord.shutdown();
}

/// Graceful shutdown drains accepted work: sessions queued before
/// `POST /shutdown` still reach a terminal state.
#[test]
fn shutdown_drains_inflight_sessions() {
    let mut server = start_server(1, 16);
    let addr = server.addr();
    let mut ids = Vec::new();
    for seed in 0..3 {
        let (status, doc) = post_session(addr, &format!(r#"{{"seed": {seed}, "num_configs": 2}}"#));
        assert_eq!(status, 202);
        ids.push(doc.get("id").and_then(Value::as_i64).unwrap());
    }
    // shutdown() joins the pool only after the queue drains, so returning
    // at all proves the accepted sessions ran; afterwards the port is dead.
    server.shutdown();
    assert!(request(addr, "GET", "/healthz", None).is_err());
    let _ = ids;
}

/// The fleet cache is rebuilt from the log: a daemon restarted on its WAL
/// dir, with the process-wide cache emptied, serves a resubmitted request
/// from the first run's `done` record — a hit that samples nothing and
/// answers the cold run's configuration.
#[test]
fn restart_refills_the_fleet_cache_from_done_records() {
    let dir = std::env::temp_dir().join(format!("lt_serve_refill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        workers: 1,
        wal_dir: Some(dir.display().to_string()),
        ..ServerConfig::default()
    };
    // A seed no other test uses: the fleet cache is process-global.
    let body = r#"{"seed": 9600, "num_configs": 2}"#;
    let get = |addr: SocketAddr, path: &str| {
        let (status, body) = request(addr, "GET", path, None).expect("GET");
        assert_eq!(status, 200, "{path}: {body}");
        body
    };
    // A config document with its session id dropped.
    let without_id = |body: &str| match parse(body).expect("JSON") {
        Value::Object(fields) => fields.into_iter().filter(|(k, _)| k != "id").collect(),
        other => panic!("not an object: {other:?}"),
    };

    let mut server = start(config.clone()).expect("bind loopback");
    let (status, doc) = post_session(server.addr(), body);
    assert_eq!(status, 202);
    let cold = doc.get("id").and_then(Value::as_i64).unwrap();
    assert_eq!(wait_terminal(server.addr(), cold), "done");
    let cold_config = get(server.addr(), &format!("/sessions/{cold}/config"));
    server.shutdown();

    lt_serve::cache::FleetCache::global().clear();
    let mut server = start(config).expect("restart on the same WAL dir");
    let addr = server.addr();
    assert_eq!(get(addr, &format!("/sessions/{cold}/config")), cold_config);
    let (status, doc) = post_session(addr, body);
    assert_eq!(status, 202);
    let hit = doc.get("id").and_then(Value::as_i64).unwrap();
    assert_eq!(wait_terminal(addr, hit), "done");
    let status = parse(&get(addr, &format!("/sessions/{hit}"))).unwrap();
    assert_eq!(
        status.get("samples_done").and_then(Value::as_i64),
        Some(0),
        "a hit samples nothing: {}",
        status.to_string_pretty()
    );
    let hit_config = get(addr, &format!("/sessions/{hit}/config"));
    let (a, b): (Vec<_>, Vec<_>) = (without_id(&cold_config), without_id(&hit_config));
    assert_eq!(a, b);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every message leaves in one write on a `TCP_NODELAY` socket, so a
/// reused keep-alive connection never waits out the peer's delayed ACK
/// (about 44 ms a request while messages took several writes).
#[test]
fn keep_alive_requests_do_not_stall() {
    let mut server = start(ServerConfig {
        workers: 1,
        keepalive_max: 64,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut conn = Connection::new(server.addr());
    let began = Instant::now();
    for i in 0..50 {
        let (status, _, body) = conn
            .call("GET", "/healthz", &[], None)
            .unwrap_or_else(|e| panic!("call {i} failed: {e}"));
        assert_eq!(status, 200, "{body}");
    }
    let elapsed = began.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 keep-alive requests took {elapsed:?}"
    );
    server.shutdown();
}

/// GETs `path` and returns the status alone.
fn get_status(addr: SocketAddr, path: &str) -> u16 {
    request(addr, "GET", path, None).expect("GET").0
}

/// The ids `GET /sessions` lists, ascending.
fn listed_ids(addr: SocketAddr) -> Vec<i64> {
    let (status, body) = request(addr, "GET", "/sessions", None).expect("list");
    assert_eq!(status, 200, "{body}");
    parse(&body)
        .unwrap()
        .get("sessions")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|row| row.get("id").and_then(Value::as_i64).unwrap())
        .collect()
}

/// Submits `body`, waits until the session is done and returns its id.
fn run_to_done(addr: SocketAddr, body: &str) -> i64 {
    let (status, doc) = post_session(addr, body);
    assert_eq!(status, 202, "{}", doc.to_string_pretty());
    let id = doc.get("id").and_then(Value::as_i64).unwrap();
    assert_eq!(wait_terminal(addr, id), "done");
    id
}

/// A daemon retires delivered sessions past `RETAINED_SESSIONS`, least
/// recently requested first: once `RETAINED_SESSIONS + 4` sessions were
/// each fetched and one more is admitted, the four oldest answer 404, the
/// log holds a `removed` record for each, and a restart on the same
/// directory recovers exactly the sessions still held.
#[test]
fn delivered_sessions_past_the_cap_are_retired_for_good() {
    use lt_serve::session::RETAINED_SESSIONS;
    use lt_serve::wal::SessionRecord;
    let dir = std::env::temp_dir().join(format!("lt_serve_retire_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        workers: 1,
        wal_dir: Some(dir.display().to_string()),
        ..ServerConfig::default()
    };
    // A seed no other test uses: after the first cold tune, every session
    // is a fleet-cache hit.
    let body = r#"{"seed": 9650, "num_configs": 2}"#;
    let mut server = start(config.clone()).expect("bind loopback");
    let addr = server.addr();
    let fetched: Vec<i64> = (0..RETAINED_SESSIONS + 4)
        .map(|_| {
            let id = run_to_done(addr, body);
            assert_eq!(get_status(addr, &format!("/sessions/{id}/config")), 200);
            id
        })
        .collect();
    let last = run_to_done(addr, body);
    let (retired, retained) = fetched.split_at(4);
    for id in retired {
        assert_eq!(get_status(addr, &format!("/sessions/{id}")), 404, "{id}");
        assert_eq!(get_status(addr, &format!("/sessions/{id}/config")), 404);
    }
    let mut held = retained.to_vec();
    held.push(last);
    assert_eq!(listed_ids(addr), held);
    let (_, metrics) = request(addr, "GET", "/metrics", None).expect("metrics");
    let done = parse(&metrics)
        .ok()
        .and_then(|d| d.get("sessions")?.get("done")?.as_i64());
    assert_eq!(
        done,
        Some(held.len() as i64),
        "the sessions block counts what is held"
    );
    server.shutdown();

    let log = lt_common::wal::read_log(&dir.join("sessions.wal")).expect("read the log");
    let removed: Vec<i64> = log
        .records
        .iter()
        .filter_map(|payload| {
            let doc = parse(std::str::from_utf8(payload).ok()?).ok()?;
            match SessionRecord::from_json(&doc)? {
                SessionRecord::Removed { id } => Some(id as i64),
                _ => None,
            }
        })
        .collect();
    assert_eq!(removed, retired, "one removed record per retired session");

    let mut server = start(config).expect("restart on the same WAL dir");
    let addr = server.addr();
    assert_eq!(
        listed_ids(addr),
        held,
        "recovery restores the held sessions only"
    );
    assert_eq!(get_status(addr, &format!("/sessions/{}", retired[0])), 404);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retirement only takes sessions whose result was delivered: a wave of 64
/// sessions nobody has read stays whole through later admissions, and once
/// read, the next admission keeps `RETAINED_SESSIONS` of them.
#[test]
fn a_wave_nobody_has_read_stays_readable() {
    use lt_serve::session::RETAINED_SESSIONS;
    let mut server = start_server(2, 128);
    let addr = server.addr();
    // A seed no other test uses (the fleet cache is process-global).
    let body = r#"{"seed": 9660, "num_configs": 2}"#;
    let wave: Vec<i64> = (0..64)
        .map(|_| {
            let (status, doc) = post_session(addr, body);
            assert_eq!(status, 202, "{}", doc.to_string_pretty());
            doc.get("id").and_then(Value::as_i64).unwrap()
        })
        .collect();
    for &id in &wave {
        assert_eq!(wait_terminal(addr, id), "done");
    }
    let unread = run_to_done(addr, body);
    for &id in &wave {
        assert_eq!(
            get_status(addr, &format!("/sessions/{id}/config")),
            200,
            "{id}"
        );
    }
    let next = run_to_done(addr, body);
    let listed = listed_ids(addr);
    assert_eq!(listed.len(), RETAINED_SESSIONS + 2, "{listed:?}");
    assert!(listed.contains(&unread) && listed.contains(&next));
    server.shutdown();
}

/// Zero-valued sizing flags are usage errors, not silently clamped to 1.
#[test]
fn zero_sizing_flags_exit_with_usage_status() {
    for flag in ["--workers", "--queue", "--conns"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_lt-serve"))
            .args([flag, "0"])
            .output()
            .expect("run lt-serve");
        assert_eq!(out.status.code(), Some(2), "{flag} 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("must be a positive integer"), "{stderr}");
    }
}
