//! The coordinator: global admission, consistent-hash session routing,
//! shard health probing and fleet-wide `/metrics` aggregation.
//!
//! A sharded fabric is one coordinator process fronting N shard processes
//! (ordinary [`crate::server`] daemons with a shard id and their own WAL
//! dirs). The split of responsibilities:
//!
//! - **Coordinator** owns *global* admission — the fleet-wide per-tenant
//!   quota and total-backlog bound answer 429 + `Retry-After` here, before
//!   any shard sees the request — plus session-id allocation, placement
//!   (the [`HashRing`] keys on the id), health probing and metrics
//!   aggregation. It holds no tuning state: everything it tracks can be
//!   rebuilt by asking the shards.
//! - **Shards** own the sessions: WAL durability, the worker pool,
//!   tenant-fair scheduling, drift feeds. A shard answers exactly as a
//!   standalone server does; `POST /shard/adopt` is the only
//!   coordinator-specific entry point.
//!
//! Client-visible API is identical to a single shard — `POST /sessions`,
//! `GET /sessions/<id>[?wait_ms=...]`, feeds, config, cancel — so the load
//! generator and clients are topology-agnostic. Per-session calls proxy to
//! the owning shard; long-polls are held open end to end.
//!
//! **Failure semantics.** A probe failure (or a refused proxy connect)
//! marks the shard dead: *new* sessions route around it via
//! [`HashRing::owner_filtered`], its existing sessions answer 503 +
//! `Retry-After` until it returns, and `/metrics` reports the fleet as
//! degraded. A restarted shard replays its namespaced WAL, re-queues its
//! in-flight sessions itself (PR 7 recovery), and the next probe folds it
//! back in — placements never move, so recovered ids resolve exactly
//! where they were acknowledged. Acknowledged sessions are therefore never
//! lost to a single-shard crash; they are only unavailable while their
//! shard is down.
//!
//! **Determinism.** The tune is pure in `(request, seed)`; the ring only
//! decides *where* it runs. Same session id + seed ⇒ byte-identical
//! winner at any shard count or placement.

use crate::http::{self, request_with, Connection, Limits, Request, Response, Role, Shutdown};
use crate::ring::HashRing;
use crate::ring::DEFAULT_VNODES;
use crate::server::ServerConfig;
use crate::session::SessionState;
use lt_common::json::Value;
use lt_common::obs::Snapshot;
use lt_common::{json, lock, obs};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default health-probe cadence in milliseconds.
pub const DEFAULT_PROBE_MS: u64 = 500;

/// One shard as the coordinator sees it.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Stable shard identity — the ring hashes it, `/shard/healthz`
    /// echoes it, metrics are labelled with it.
    pub id: u32,
    /// The shard server's bound address.
    pub addr: SocketAddr,
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// The shard fleet. Must be non-empty.
    pub shards: Vec<ShardSpec>,
    /// Virtual nodes per shard on the ring (`LT_SHARD_VNODES` in the
    /// `lt-serve` binary, default 64).
    pub vnodes: usize,
    /// Health-probe cadence in ms (`LT_SHARD_PROBE_MS` in the `lt-serve`
    /// binary, default 500).
    pub probe_ms: u64,
    /// Fleet-wide cap on one tenant's non-terminal sessions — the global
    /// half of the admission split; shards no longer need their own tenant
    /// caps when fronted by a coordinator.
    pub tenant_cap: usize,
    /// Fleet-wide cap on total non-terminal sessions (queue depth × shard
    /// count): the global backlog bound answering 429.
    pub max_active: usize,
    /// Client-facing connection limits, as on a daemon.
    pub limits: Limits,
}

impl CoordinatorConfig {
    /// Configuration for fronting `shards`. The tenant cap, the backlog
    /// cap (`server.queue_depth` × shard count) and the connection limits
    /// come from `server`; the ring and the probe start at their defaults.
    pub fn new(shards: Vec<ShardSpec>, server: &ServerConfig) -> CoordinatorConfig {
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            vnodes: DEFAULT_VNODES,
            probe_ms: DEFAULT_PROBE_MS,
            tenant_cap: server.tenant_cap,
            max_active: server.queue_depth * shards.len().max(1),
            limits: server.limits(),
            shards,
        }
    }
}

struct CoordState {
    ring: HashRing,
    shards: Vec<ShardSpec>,
    /// Liveness per `shards` index, maintained by the probe loop and by
    /// refused proxy connects.
    alive: Vec<AtomicBool>,
    /// session id → index into `shards`. Placement is decided once at
    /// admission and never moves (the session's WAL lives there); the
    /// probe forgets it once the live owner no longer lists the session.
    placements: Mutex<HashMap<u64, usize>>,
    /// tenant → ids believed non-terminal; the admission ledger. Updated
    /// optimistically on submit, reconciled against shard `/sessions`
    /// listings by the probe loop, and trimmed when proxied responses
    /// show a terminal state.
    active: Mutex<HashMap<String, HashSet<u64>>>,
    next_id: AtomicU64,
    /// Set by [`CoordinatorHandle::shutdown`] and `POST /shutdown`; also
    /// stops the probe loop.
    shutdown: Arc<Shutdown>,
    tenant_cap: usize,
    max_active: usize,
    probe_ms: u64,
}

impl CoordState {
    fn shard_index(&self, id: u32) -> Option<usize> {
        self.shards.iter().position(|s| s.id == id)
    }

    fn is_alive(&self, index: usize) -> bool {
        self.alive[index].load(Ordering::SeqCst)
    }

    fn mark_dead(&self, index: usize) {
        if self.alive[index].swap(false, Ordering::SeqCst) {
            obs::counter("coord.shard_deaths", 1);
        }
    }

    fn alive_count(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::SeqCst))
            .count()
    }

    /// Retry-After seconds that cover at least one probe round.
    fn retry_after(&self) -> String {
        self.probe_ms.div_ceil(1000).max(1).to_string()
    }

    /// Drops `id` from the admission ledger once it is seen terminal.
    fn observe_terminal(&self, id: u64) {
        let mut active = lock(&self.active);
        for ids in active.values_mut() {
            ids.remove(&id);
        }
        active.retain(|_, ids| !ids.is_empty());
    }
}

/// A running coordinator. Dropping it (or [`CoordinatorHandle::shutdown`])
/// stops the accept loop and the probe thread; shards are independent
/// processes and are *not* shut down — they belong to whoever spawned them.
pub struct CoordinatorHandle {
    addr: SocketAddr,
    state: Arc<CoordState>,
    accept_thread: Option<JoinHandle<()>>,
    probe_thread: Option<JoinHandle<()>>,
}

impl CoordinatorHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until someone stops the coordinator (`POST /shutdown`),
    /// then joins the service threads. The daemon's main-thread park.
    pub fn wait(&mut self) {
        // The accept loop ends only once shutdown was requested, which
        // also stops the probe loop.
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.probe_thread.take() {
            let _ = t.join();
        }
    }

    /// Stops accepting and joins the service threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.state.shutdown.request();
        self.wait();
    }
}

impl Drop for CoordinatorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds the coordinator, starts the probe loop, returns immediately.
pub fn start_coordinator(config: CoordinatorConfig) -> io::Result<CoordinatorHandle> {
    if config.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "coordinator needs at least one shard",
        ));
    }
    obs::enable_metrics();
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let ids: Vec<u32> = config.shards.iter().map(|s| s.id).collect();
    let shutdown = Arc::new(Shutdown::new(addr));
    let state = Arc::new(CoordState {
        ring: HashRing::new(&ids, config.vnodes),
        alive: config
            .shards
            .iter()
            .map(|_| AtomicBool::new(true))
            .collect(),
        shards: config.shards,
        placements: Mutex::new(HashMap::new()),
        active: Mutex::new(HashMap::new()),
        next_id: AtomicU64::new(1),
        shutdown: shutdown.clone(),
        tenant_cap: config.tenant_cap.max(1),
        max_active: config.max_active.max(1),
        probe_ms: config.probe_ms.max(10),
    });

    let probe_state = state.clone();
    let probe_thread = std::thread::Builder::new()
        .name("lt-coord-probe".to_string())
        .spawn(move || probe_loop(&probe_state))?;

    let router_state = state.clone();
    let accept_thread = http::serve(
        listener,
        Role::Coordinator,
        config.limits,
        shutdown,
        move |request| route(request, &router_state),
    )?;

    Ok(CoordinatorHandle {
        addr,
        state,
        accept_thread: Some(accept_thread),
        probe_thread: Some(probe_thread),
    })
}

fn route(request: &Request, state: &CoordState) -> Response {
    obs::counter("coord.http_requests", 1);
    let (path, segments) = request.route_path();
    let method = request.method.as_str();
    match segments.as_slice() {
        ["sessions"] => match method {
            "POST" => submit_session(request, state),
            "GET" => list_sessions(state),
            _ => Response::method_not_allowed(method, path, "GET, POST"),
        },
        ["sessions", id] | ["sessions", id, "queries"] | ["sessions", id, "config"] => {
            proxy_session_call(request, state, id)
        }
        ["metrics"] => match method {
            "GET" => metrics(state),
            _ => Response::method_not_allowed(method, path, "GET"),
        },
        ["healthz"] => match method {
            "GET" => Response::json(
                200,
                &json!({
                    "ok": true,
                    "coordinator": true,
                    "shards_alive": state.alive_count() as u64,
                    "shards_total": state.shards.len() as u64,
                }),
            ),
            _ => Response::method_not_allowed(method, path, "GET"),
        },
        ["shutdown"] => match method {
            "POST" => {
                state.shutdown.request();
                Response::json(200, &json!({ "shutting_down": true }))
            }
            _ => Response::method_not_allowed(method, path, "POST"),
        },
        _ => Response::error(404, &format!("no route for {path}")),
    }
}

/// `POST /sessions` at the coordinator: global admission, id allocation,
/// ring placement, then adoption on the owning shard.
fn submit_session(request: &Request, state: &CoordState) -> Response {
    if state.shutdown.is_requested() {
        return Response::error(503, "coordinator is shutting down");
    }
    let doc = match request.json_body() {
        Ok(doc) => doc,
        Err(response) => return response,
    };
    let tenant = request.tenant();

    // Global admission, under one ledger lock so racing submissions
    // cannot both slip under a quota.
    {
        let active = lock(&state.active);
        let total: usize = active.values().map(HashSet::len).sum();
        if total >= state.max_active {
            obs::counter("coord.backlog_rejected", 1);
            return Response::error(
                429,
                &format!("fleet backlog is full ({total} active sessions), retry later"),
            )
            .with_header("Retry-After", state.retry_after());
        }
        if active.get(&tenant).map_or(0, HashSet::len) >= state.tenant_cap {
            obs::counter("coord.tenant_rejected", 1);
            return Response::error(
                429,
                &format!(
                    "tenant {tenant:?} is at its fleet-wide cap ({}), retry later",
                    state.tenant_cap
                ),
            )
            .with_header("Retry-After", "30");
        }
    }

    let id = state.next_id.fetch_add(1, Ordering::Relaxed);
    let adopt_body = json!({
        "id": id,
        "tenant": tenant.clone(),
        "request": doc,
    })
    .to_string_pretty();

    // Place on the ring, skipping dead shards; a refused connect marks
    // the owner dead and retries once on the next live owner — the same
    // route-around the probe loop would apply a beat later.
    for _attempt in 0..2 {
        let Some(owner) = state.ring.owner_filtered(id, |s| {
            state.shard_index(s).is_some_and(|i| state.is_alive(i))
        }) else {
            obs::counter("coord.no_shards", 1);
            return Response::error(503, "no live shards, retry later")
                .with_header("Retry-After", state.retry_after());
        };
        let index = state
            .shard_index(owner)
            .expect("ring members are configured");
        let mut conn = Connection::new(state.shards[index].addr);
        match conn.call_classified("POST", "/shard/adopt", &[], Some(&adopt_body)) {
            Ok((status, _, resp_body)) => {
                if status == 202 {
                    lock(&state.placements).insert(id, index);
                    lock(&state.active).entry(tenant).or_default().insert(id);
                    obs::counter("coord.sessions_routed", 1);
                } else {
                    obs::counter("coord.sessions_rejected", 1);
                }
                return passthrough(status, resp_body);
            }
            Err(err) if err.is_refused() => {
                state.mark_dead(index);
                obs::counter("coord.adopt_failovers", 1);
                continue;
            }
            Err(err) => {
                obs::counter("coord.proxy_errors", 1);
                return Response::error(
                    502,
                    &format!(
                        "shard {owner} failed adopting session: {}",
                        err.into_inner()
                    ),
                );
            }
        }
    }
    Response::error(503, "shards are unavailable, retry later")
        .with_header("Retry-After", state.retry_after())
}

/// Proxies a per-session call (`GET`/`DELETE /sessions/<id>`, feeds,
/// config — query string included, so long-polls pass through) to the
/// shard owning the session.
fn proxy_session_call(request: &Request, state: &CoordState, id: &str) -> Response {
    let Ok(session_id) = id.parse::<u64>() else {
        return Response::error(400, "session id must be an integer");
    };
    let Some(index) = lock(&state.placements).get(&session_id).copied() else {
        return Response::error(404, &format!("no session {session_id}"));
    };
    let shard_down = || {
        Response::error(
            503,
            &format!(
                "shard {} owning session {session_id} is down; recovery pending",
                state.shards[index].id
            ),
        )
        .with_header("Retry-After", state.retry_after())
    };
    if !state.is_alive(index) {
        obs::counter("coord.unavailable_sessions", 1);
        return shard_down();
    }
    let body = request.body_str().map(str::to_string);
    let mut conn = Connection::new(state.shards[index].addr);
    match conn.call_classified(&request.method, &request.path, &[], body.as_deref()) {
        Ok((status, _, resp_body)) => {
            // Keep the admission ledger fresh: a proxied answer that shows
            // a terminal state retires the session from the quotas.
            if status == 200 && lt_common::json::parse(&resp_body).is_ok_and(|d| is_terminal(&d)) {
                state.observe_terminal(session_id);
            }
            passthrough(status, resp_body)
        }
        Err(err) if err.is_refused() => {
            state.mark_dead(index);
            shard_down()
        }
        Err(err) => {
            obs::counter("coord.proxy_errors", 1);
            Response::error(502, &format!("shard proxy error: {}", err.into_inner()))
        }
    }
}

/// Re-emits a shard response verbatim (it is already a JSON body).
fn passthrough(status: u16, body: String) -> Response {
    Response {
        status,
        body,
        headers: Vec::new(),
    }
}

/// True when a session document (status or listing row) shows a terminal
/// state.
fn is_terminal(doc: &Value) -> bool {
    doc.get("state")
        .and_then(Value::as_str)
        .and_then(SessionState::parse)
        .is_some_and(SessionState::is_terminal)
}

/// Every live shard's `GET /sessions` rows as `(id, row)`, by shard
/// index. A shard that is dead or does not answer has no entry.
fn live_listings(state: &CoordState) -> Vec<(usize, Vec<(u64, Value)>)> {
    let mut listings = Vec::new();
    for (index, shard) in state.shards.iter().enumerate() {
        if !state.is_alive(index) {
            continue;
        }
        let Ok((200, body)) = http::request(shard.addr, "GET", "/sessions", None) else {
            continue;
        };
        let Ok(doc) = lt_common::json::parse(&body) else {
            continue;
        };
        let rows = doc
            .get("sessions")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|row| Some((row.get("id")?.as_i64()? as u64, row.clone())))
            .collect();
        listings.push((index, rows));
    }
    listings
}

/// `GET /sessions`: the union of every live shard's session list,
/// id-ascending; dead shards' sessions are listed from the placement map
/// with state `"unavailable"`.
fn list_sessions(state: &CoordState) -> Response {
    let mut rows: Vec<(u64, Value)> = live_listings(state)
        .into_iter()
        .flat_map(|(_, rows)| rows)
        .collect();
    let placements = lock(&state.placements);
    for (&id, &index) in placements.iter() {
        if !state.is_alive(index) {
            rows.push((id, json!({ "id": id, "state": "unavailable" })));
        }
    }
    drop(placements);
    rows.sort_by_key(|(id, _)| *id);
    rows.dedup_by_key(|(id, _)| *id);
    let sessions: Vec<Value> = rows.into_iter().map(|(_, v)| v).collect();
    Response::json(200, &json!({ "sessions": Value::Array(sessions) }))
}

/// `GET /metrics`: per-shard documents (labelled) plus fleet totals
/// merged at the JSON level, and the degraded flag.
fn metrics(state: &CoordState) -> Response {
    let mut shard_docs: Vec<Value> = Vec::new();
    let mut merged_inputs: Vec<Value> = Vec::new();
    for (index, shard) in state.shards.iter().enumerate() {
        let alive = state.is_alive(index);
        let mut entry = vec![
            ("shard_id".to_string(), Value::Int(shard.id as i64)),
            ("alive".to_string(), Value::Bool(alive)),
        ];
        if alive {
            if let Ok((200, body)) = http::request(shard.addr, "GET", "/metrics", None) {
                if let Ok(doc) = lt_common::json::parse(&body) {
                    merged_inputs.push(doc.clone());
                    entry.push(("metrics".to_string(), doc));
                }
            }
        }
        shard_docs.push(Value::Object(entry));
    }
    let alive = state.alive_count();
    let total = state.shards.len();
    let doc = json!({
        "version": 1,
        "coordinator": obs::snapshot().to_metrics_json(),
        "shards_alive": alive as u64,
        "shards_total": total as u64,
        "degraded": alive < total,
        "fleet": Snapshot::merge_metrics_json(&merged_inputs),
        "shards": Value::Array(shard_docs),
    });
    Response::json(200, &doc)
}

/// The probe loop: marks shards dead/alive from `/shard/healthz` and
/// reconciles the admission ledger against live shards' session lists.
fn probe_loop(state: &CoordState) {
    while !state.shutdown.is_requested() {
        probe(state);
        // Sleep in small steps so shutdown is prompt even with slow probes.
        let mut remaining = state.probe_ms;
        while remaining > 0 && !state.shutdown.is_requested() {
            let step = remaining.min(50);
            std::thread::sleep(Duration::from_millis(step));
            remaining -= step;
        }
    }
}

/// One probe round: every shard's liveness from `/shard/healthz`, then
/// [`reconcile_active`].
fn probe(state: &CoordState) {
    for (index, shard) in state.shards.iter().enumerate() {
        let healthy = matches!(
            request_with(shard.addr, "GET", "/shard/healthz", &[], None),
            Ok((200, _, _))
        );
        let was = state.alive[index].swap(healthy, Ordering::SeqCst);
        if was && !healthy {
            obs::counter("coord.shard_deaths", 1);
            obs::counter("coord.probe_failures", 1);
        } else if !was && healthy {
            obs::counter("coord.shard_recoveries", 1);
        }
    }
    reconcile_active(state);
}

/// Exact reconciliation against every live shard's `(id, state)` list:
/// ids that went terminal without a client ever polling them leave the
/// admission ledger, and ids the live owner no longer lists (a shard
/// retires delivered sessions) leave the ledger and the placements. Ids
/// on dead shards stay — their sessions still exist and will resume on
/// recovery.
///
/// Only placements taken before the listings were requested count as
/// gone: a placement is recorded after the shard's 202 to
/// `/shard/adopt`, so the shard had registered each of them before it
/// listed, and a session admitted during the probe is never dropped.
fn reconcile_active(state: &CoordState) {
    let placed: Vec<(u64, usize)> = lock(&state.placements)
        .iter()
        .map(|(&id, &index)| (id, index))
        .collect();
    let mut terminal = HashSet::new();
    let mut listed: HashMap<usize, HashSet<u64>> = HashMap::new();
    for (index, rows) in live_listings(state) {
        let ids = listed.entry(index).or_default();
        for (id, row) in rows {
            if is_terminal(&row) {
                terminal.insert(id);
            }
            ids.insert(id);
        }
    }
    let gone: HashSet<u64> = placed
        .into_iter()
        .filter(|(id, index)| listed.get(index).is_some_and(|ids| !ids.contains(id)))
        .map(|(id, _)| id)
        .collect();
    if terminal.is_empty() && gone.is_empty() {
        return;
    }
    lock(&state.placements).retain(|id, _| !gone.contains(id));
    let mut active = lock(&state.active);
    for ids in active.values_mut() {
        ids.retain(|id| !terminal.contains(id) && !gone.contains(id));
    }
    active.retain(|_, ids| !ids.is_empty());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{start, ServerConfig};

    fn shard_config(shard_id: u32) -> ServerConfig {
        ServerConfig {
            workers: 1,
            shard_id: Some(shard_id),
            ..ServerConfig::default()
        }
    }

    fn fabric(n: u32) -> (Vec<crate::server::ServerHandle>, CoordinatorHandle) {
        fabric_probing(n, 50)
    }

    fn fabric_probing(
        n: u32,
        probe_ms: u64,
    ) -> (Vec<crate::server::ServerHandle>, CoordinatorHandle) {
        let shards: Vec<_> = (0..n).map(|i| start(shard_config(i)).unwrap()).collect();
        let specs = shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardSpec {
                id: i as u32,
                addr: s.addr(),
            })
            .collect();
        let mut config = CoordinatorConfig::new(specs, &ServerConfig::default());
        config.probe_ms = probe_ms;
        let coord = start_coordinator(config).unwrap();
        (shards, coord)
    }

    fn submit(addr: SocketAddr, seed: u64) -> u64 {
        let body = format!(r#"{{"benchmark": "tpch", "num_configs": 2, "seed": {seed}}}"#);
        let (status, body) = crate::http::request(addr, "POST", "/sessions", Some(&body)).unwrap();
        assert_eq!(status, 202, "{body}");
        lt_common::json::parse(&body)
            .unwrap()
            .get("id")
            .and_then(Value::as_i64)
            .unwrap() as u64
    }

    fn wait_done(addr: SocketAddr, id: u64) -> Value {
        for _ in 0..600 {
            let (status, body) =
                crate::http::request(addr, "GET", &format!("/sessions/{id}?wait_ms=100"), None)
                    .unwrap();
            assert_eq!(status, 200, "{body}");
            let doc = lt_common::json::parse(&body).unwrap();
            let state = doc
                .get("state")
                .and_then(Value::as_str)
                .unwrap()
                .to_string();
            if matches!(state.as_str(), "done" | "failed" | "cancelled") {
                return doc;
            }
        }
        panic!("session {id} never reached a terminal state");
    }

    #[test]
    fn coordinator_routes_sessions_and_winners_match_single_shard() {
        // Two-shard fabric: sessions land on both shards over enough ids,
        // and each seed's winner is byte-identical to a standalone run.
        let (_shards, coord) = fabric(2);
        // Seeds 9400.. are reserved for this test (fleet cache is
        // process-global in the test binary).
        let ids: Vec<(u64, u64)> = (0..4u64)
            .map(|i| (submit(coord.addr(), 9400 + i), 9400 + i))
            .collect();
        let mut winners = Vec::new();
        for (id, seed) in &ids {
            let doc = wait_done(coord.addr(), *id);
            assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));
            let (status, body) =
                crate::http::request(coord.addr(), "GET", &format!("/sessions/{id}/config"), None)
                    .unwrap();
            assert_eq!(status, 200, "{body}");
            let config = lt_common::json::parse(&body).unwrap();
            winners.push((
                *seed,
                config
                    .get("script")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string(),
            ));
        }
        // Standalone reference: same seeds through one plain server.
        let standalone = start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        for (seed, fabric_script) in &winners {
            let id = submit(standalone.addr(), *seed);
            let doc = wait_done(standalone.addr(), id);
            assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));
            let (status, body) = crate::http::request(
                standalone.addr(),
                "GET",
                &format!("/sessions/{id}/config"),
                None,
            )
            .unwrap();
            assert_eq!(status, 200, "{body}");
            let config = lt_common::json::parse(&body).unwrap();
            assert_eq!(
                config.get("script").and_then(Value::as_str).unwrap(),
                fabric_script,
                "seed {seed}: fabric and standalone winners must be byte-identical"
            );
        }
    }

    #[test]
    fn probe_forgets_retired_sessions_but_keeps_those_on_dead_shards() {
        use crate::session::RETAINED_SESSIONS;
        // The loop probes once at start-up and then not for a minute: the
        // test runs the next probe itself.
        let (mut shards, coord) = fabric_probing(2, 60_000);
        let state = &coord.state;
        let get = |addr: SocketAddr, path: &str| crate::http::request(addr, "GET", path, None);
        // Sessions go through the coordinator, but are read straight from
        // their shard. One seed throughout (reserved for this test): after
        // the first cold tune, every session is a fleet-cache hit.
        let mut placed: Vec<Vec<u64>> = vec![Vec::new(); 2];
        while placed.iter().all(|ids| ids.len() < RETAINED_SESSIONS + 2) {
            let id = submit(coord.addr(), 9440);
            let owner = lock(&state.placements)[&id];
            let addr = shards[owner].addr();
            wait_done(addr, id);
            let (status, body) = get(addr, &format!("/sessions/{id}/config")).unwrap();
            assert_eq!(status, 200, "{body}");
            placed[owner].push(id);
        }
        let full = usize::from(placed[1].len() > placed[0].len());
        let other = 1 - full;
        assert!(!placed[other].is_empty(), "both shards own sessions");
        // The shard retired its least recently requested delivered session
        // at the last admission.
        let retired = placed[full][0];
        let kept = placed[full][1];
        let addr = shards[full].addr();
        assert_eq!(get(addr, &format!("/sessions/{retired}")).unwrap().0, 404);
        assert_eq!(get(addr, &format!("/sessions/{kept}")).unwrap().0, 200);
        let dead = placed[other][0];
        shards.remove(other).shutdown();

        let in_active = |id: u64| lock(&state.active).values().any(|ids| ids.contains(&id));
        assert!(lock(&state.placements).contains_key(&retired));
        // The ledger as it stands when a shard retires a session between
        // two probes, before the coordinator ever saw it terminal (the
        // start-up probe may have seen these two done).
        lock(&state.active)
            .entry("default".to_string())
            .or_default()
            .extend([retired, dead]);
        probe(state);
        assert!(!state.is_alive(other));
        let placements = lock(&state.placements);
        assert!(
            !placements.contains_key(&retired),
            "retired session forgotten"
        );
        assert!(placements.contains_key(&kept), "listed session kept");
        assert!(placements.contains_key(&dead), "dead shard's session kept");
        drop(placements);
        assert!(!in_active(retired));
        assert!(in_active(dead), "a dead shard's session still counts");
        let (status, _) = get(coord.addr(), &format!("/sessions/{retired}")).unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn config_derives_caps_and_limits_from_the_server_config() {
        let shards: Vec<ShardSpec> = (0..3)
            .map(|id| ShardSpec {
                id,
                addr: "127.0.0.1:1".parse().unwrap(),
            })
            .collect();
        let server = ServerConfig {
            queue_depth: 5,
            tenant_cap: 7,
            max_connections: 9,
            ..ServerConfig::default()
        };
        let config = CoordinatorConfig::new(shards, &server);
        assert_eq!(
            config.max_active,
            5 * 3,
            "backlog cap is queue depth x shards"
        );
        assert_eq!(config.tenant_cap, 7);
        assert_eq!(config.limits.max_connections, 9);
        assert_eq!(config.vnodes, DEFAULT_VNODES);
        assert_eq!(config.probe_ms, DEFAULT_PROBE_MS);
    }

    #[test]
    fn coordinator_enforces_fleet_tenant_quota() {
        let (_shards, coord) = fabric(2);
        // Cap of 1 active session per tenant fleet-wide.
        let shards_specs: Vec<ShardSpec> = _shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardSpec {
                id: i as u32,
                addr: s.addr(),
            })
            .collect();
        let mut config = CoordinatorConfig::new(shards_specs, &ServerConfig::default());
        config.tenant_cap = 1;
        config.probe_ms = 5_000; // no reconciliation during the test window
        let capped = start_coordinator(config).unwrap();
        let body = r#"{"benchmark": "tpch", "num_configs": 2, "seed": 9420}"#;
        let (s1, _) = crate::http::request_with(
            capped.addr(),
            "POST",
            "/sessions",
            &[("X-Tenant", "t1")],
            Some(body),
        )
        .map(|(s, _, b)| (s, b))
        .unwrap();
        assert_eq!(s1, 202);
        let (s2, _, b2) = crate::http::request_with(
            capped.addr(),
            "POST",
            "/sessions",
            &[("X-Tenant", "t1")],
            Some(body),
        )
        .unwrap();
        assert_eq!(s2, 429, "{b2}");
        // A different tenant is unaffected.
        let (s3, _, b3) = crate::http::request_with(
            capped.addr(),
            "POST",
            "/sessions",
            &[("X-Tenant", "t2")],
            Some(body),
        )
        .unwrap();
        assert_eq!(s3, 202, "{b3}");
        drop(coord);
    }

    #[test]
    fn metrics_aggregates_across_shards_and_reports_degraded() {
        let (mut shards, coord) = fabric(2);
        let id = submit(coord.addr(), 9430);
        wait_done(coord.addr(), id);
        let (status, body) = crate::http::request(coord.addr(), "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let doc = lt_common::json::parse(&body).unwrap();
        assert_eq!(doc.get("degraded").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("shards_alive").and_then(Value::as_i64), Some(2));
        assert_eq!(
            doc.get("shards")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
        // Fleet totals exist and carry summed counters.
        assert!(doc.get("fleet").and_then(|f| f.get("counters")).is_some());
        // Kill shard 1: the next probe flags the fleet degraded and new
        // sessions still get served by shard 0.
        shards.remove(1).shutdown();
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(20));
            let (_, body) = crate::http::request(coord.addr(), "GET", "/metrics", None).unwrap();
            let doc = lt_common::json::parse(&body).unwrap();
            if doc.get("degraded").and_then(Value::as_bool) == Some(true) {
                let id = submit(coord.addr(), 9431);
                let done = wait_done(coord.addr(), id);
                assert_eq!(done.get("state").and_then(Value::as_str), Some("done"));
                return;
            }
        }
        panic!("coordinator never reported the killed shard");
    }
}
