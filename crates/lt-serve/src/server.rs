//! The HTTP server: accept loop, routing, admission control, shutdown.
//!
//! Endpoints:
//!
//! | Method | Path                    | Purpose                              |
//! |--------|-------------------------|--------------------------------------|
//! | POST   | `/sessions`             | Submit a tuning request (202/400/429)|
//! | GET    | `/sessions`             | List sessions and states             |
//! | GET    | `/sessions/<id>`        | Status + trajectory-so-far           |
//! | POST   | `/sessions/<id>/queries`| Feed observed queries (drift watch)  |
//! | GET    | `/sessions/<id>/config` | Best configuration + scaled cost     |
//! | DELETE | `/sessions/<id>`        | Cancel (queued or running)           |
//! | GET    | `/metrics`              | Observability registry dump          |
//! | GET    | `/healthz`              | Liveness probe                       |
//! | POST   | `/shutdown`             | Graceful shutdown (drains workers)   |
//! | GET    | `/shard/healthz`        | Shard control: id, load              |
//! | POST   | `/shard/adopt`          | Coordinator-placed session (fixed id)|
//!
//! Unknown paths and unknown session ids answer 404 — including a session
//! the daemon retired: at each admission the least recently requested
//! terminal sessions whose result was delivered (`/config` answered 200,
//! or a read returned `failed` or `cancelled`) are dropped beyond
//! [`RETAINED_SESSIONS`], and logged `removed`. `GET /sessions` and the
//! `sessions` block of `/metrics` count the sessions still held.
//!
//! `GET /sessions/<id>?wait_ms=N` long-polls: the response is deferred
//! (bounded by `N`, capped at [`MAX_WAIT_MS`]) until the session leaves
//! the state it was in when the request arrived. `wait_ms=0` — and any
//! request without the parameter — answers immediately.
//!
//! The `/shard/*` surface is what the coordinator ([`crate::coord`])
//! drives: `adopt` is `POST /sessions` with the session id chosen by the
//! caller (the id names the shard that owns it), and `/shard/healthz` is
//! the health-probe target that also reports queue pressure.
//!
//! Connections go through the shared front end ([`crate::http::serve`]):
//! one request per connection unless the client asks for keep-alive.
//! Connection threads only parse, route and serialize — all tuning happens
//! on the worker pool.

use crate::http::{self, Limits, Request, Response, Role, Shutdown};
use crate::pool::{SubmitError, WorkerPool};
use crate::session::{
    Session, SessionHandle, SessionRegistry, SessionState, TuneRequest, RETAINED_SESSIONS,
};
use crate::wal::SessionRecord;
use lt_common::json::Value;
use lt_common::{json, obs};
use lt_synth::{Synthesizer, WorkloadSpec};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server configuration. The `lt-serve` binary builds it once from the
/// defaults and its flags; tests set fields directly.
/// The coordinator derives its tenant cap, backlog cap and connection
/// limits from it ([`crate::CoordinatorConfig::new`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (tests, load generator).
    pub addr: String,
    /// Tuning worker threads (`--workers`, default 2).
    pub workers: usize,
    /// Job queue bound; a full queue answers 429 (`--queue`, default 64).
    pub queue_depth: usize,
    /// Concurrent connection-thread bound; connections above it answer 503
    /// without spawning a thread (`--conns`, default 64). This caps
    /// HTTP-layer threads the way `queue_depth` caps tuning jobs — a burst
    /// of idle connections cannot exhaust threads while it holds. This and
    /// the two keep-alive limits below bound the coordinator too.
    pub max_connections: usize,
    /// Per-tenant cap on non-terminal sessions (default 64). Tenancy is
    /// the `X-Tenant` request header (`"default"` when absent); a tenant at
    /// its cap gets 429 + `Retry-After` while other tenants keep being
    /// admitted.
    pub tenant_cap: usize,
    /// Requests served per connection before it is closed even for clients
    /// asking `Connection: keep-alive` (default 32). Bounds how long one
    /// client can monopolize a connection thread.
    pub keepalive_max: usize,
    /// Idle timeout in milliseconds: how long a connection may sit between
    /// requests (and how long one request may take to arrive) before the
    /// thread gives up (default 30000).
    pub idle_timeout_ms: u64,
    /// Durability directory (`--wal-dir`). When set, the server keeps a
    /// write-ahead session log in `<dir>/sessions.wal`, replays it on
    /// startup (re-queuing interrupted sessions) and records every
    /// acknowledged lifecycle event. `None` (the default) serves from
    /// memory only.
    pub wal_dir: Option<String>,
    /// Shard identity when this server runs as one shard of a fabric
    /// (`--shard-id`). Surfaces in `/shard/healthz` and `/metrics`;
    /// `None` (the default) means standalone.
    pub shard_id: Option<u32>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            max_connections: 64,
            tenant_cap: 64,
            keepalive_max: 32,
            idle_timeout_ms: 30_000,
            wal_dir: None,
            shard_id: None,
        }
    }
}

impl ServerConfig {
    /// The front-end connection limits.
    pub fn limits(&self) -> Limits {
        Limits {
            max_connections: self.max_connections,
            keepalive_max: self.keepalive_max,
            idle_timeout_ms: self.idle_timeout_ms,
        }
    }
}

struct ServerState {
    registry: SessionRegistry,
    pool: WorkerPool,
    /// Set by [`ServerHandle::shutdown`] and `POST /shutdown`.
    shutdown: Arc<Shutdown>,
    /// Per-tenant non-terminal-session quota.
    tenant_cap: usize,
    /// Shard identity (fabric mode), `None` standalone.
    shard_id: Option<u32>,
}

/// A running server. Dropping the handle (or calling
/// [`ServerHandle::shutdown`]) stops the accept loop and drains the pool.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server shuts down (via `POST /shutdown` or
    /// [`ServerHandle::shutdown`] from another thread).
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Graceful shutdown: stop accepting, drain queued sessions, join all
    /// threads, then flush the session log's batched records (retirements
    /// among them). Idempotent.
    pub fn shutdown(&mut self) {
        self.state.shutdown.request();
        self.wait();
        self.state.pool.shutdown();
        self.state.registry.sync_wal();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds, spawns the accept loop and worker pool, and returns immediately.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    // The service is observability-on by default: /metrics is part of the
    // API contract, not an opt-in debug facility. Metrics only, unless
    // tracing is on: the event log would grow with every span.
    obs::enable_metrics();
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let registry = SessionRegistry::new();
    let pool = WorkerPool::start(config.workers, config.queue_depth);
    // Durability: open (and compact) the session log, replay it, re-queue
    // interrupted work — all before the accept loop exists, so no request
    // can observe a half-recovered registry. The log is attached first so
    // restored handles carry it and post-recovery transitions get recorded.
    if let Some(dir) = &config.wal_dir {
        let (log, records) = crate::wal::SessionLog::open(std::path::Path::new(dir))?;
        registry.attach_wal(Arc::new(log));
        let stats = crate::wal::restore(&registry, Some(&pool), crate::wal::replay(&records));
        // Summary on stderr: stdout is the machine interface (the
        // "listening on" line the crash harness parses).
        eprintln!(
            "lt-serve: recovered {} sessions from {dir} \
             ({} re-queued, {} re-tunes re-queued, {} fleet entries, {} skipped)",
            stats.sessions, stats.requeued, stats.retunes_requeued, stats.fleet, stats.skipped
        );
    }
    let shutdown = Arc::new(Shutdown::new(addr));
    let state = Arc::new(ServerState {
        registry,
        pool,
        shutdown: shutdown.clone(),
        tenant_cap: config.tenant_cap.max(1),
        shard_id: config.shard_id,
    });
    let router_state = state.clone();
    let accept_thread = http::serve(
        listener,
        Role::Daemon,
        config.limits(),
        shutdown,
        move |request| route(request, &router_state),
    )?;
    Ok(ServerHandle {
        addr,
        state,
        accept_thread: Some(accept_thread),
    })
}

/// Dispatches one request. Total: every `(method, path)` gets an answer.
/// Paths are matched first, so a known path with the wrong verb is a 405
/// carrying an `Allow` header, and only unknown paths are 404.
fn route(request: &Request, state: &ServerState) -> Response {
    obs::counter("serve.http_requests", 1);
    let (path, segments) = request.route_path();
    let method = request.method.as_str();
    match segments.as_slice() {
        ["sessions"] => match method {
            "POST" => submit_session(request, state),
            "GET" => list_sessions(state),
            _ => Response::method_not_allowed(method, path, "GET, POST"),
        },
        ["sessions", id] => match method {
            "GET" => with_session(state, id, |s| session_status(request, s)),
            "DELETE" => with_session(state, id, cancel_session),
            _ => Response::method_not_allowed(method, path, "GET, DELETE"),
        },
        ["sessions", id, "queries"] => match method {
            "POST" => with_session(state, id, |s| feed_queries(request, state, s)),
            _ => Response::method_not_allowed(method, path, "POST"),
        },
        ["sessions", id, "config"] => match method {
            "GET" => with_session(state, id, |s| {
                let mut session = s.lock();
                match session.config_json() {
                    Some(doc) => {
                        session.delivered = true;
                        Response::json(200, &doc)
                    }
                    None => {
                        deliver_if_unsuccessful(&mut session);
                        Response::error(
                            409,
                            &format!(
                                "session is {} and has no configuration yet",
                                session.state.name()
                            ),
                        )
                    }
                }
            }),
            _ => Response::method_not_allowed(method, path, "GET"),
        },
        ["metrics"] => match method {
            "GET" => metrics(state),
            _ => Response::method_not_allowed(method, path, "GET"),
        },
        ["healthz"] => match method {
            "GET" => Response::json(200, &json!({ "ok": true })),
            _ => Response::method_not_allowed(method, path, "GET"),
        },
        ["shard", "healthz"] => match method {
            "GET" => shard_healthz(state),
            _ => Response::method_not_allowed(method, path, "GET"),
        },
        ["shard", "adopt"] => match method {
            "POST" => adopt_session(request, state),
            _ => Response::method_not_allowed(method, path, "POST"),
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

/// Upper bound on one long-poll wait; larger requests are clamped, so a
/// client cannot pin a connection thread longer than this per request.
pub const MAX_WAIT_MS: u64 = 30_000;

/// Extracts an integer query parameter from a raw request path.
fn query_param_u64(path: &str, name: &str) -> Option<u64> {
    let query = path.split_once('?')?.1;
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        if k == name {
            v.parse().ok()
        } else {
            None
        }
    })
}

/// The `GET /sessions/<id>` handler. With `?wait_ms=N` the response is
/// long-polled: held until the session leaves its current state or the
/// (clamped) wait elapses. Terminal sessions answer immediately — there
/// is no further transition to wait for.
fn session_status(request: &Request, handle: &SessionHandle) -> Response {
    let wait_ms = query_param_u64(&request.path, "wait_ms")
        .unwrap_or(0)
        .min(MAX_WAIT_MS);
    let current = handle.lock().state;
    let mut session = if wait_ms == 0 || current.is_terminal() {
        handle.lock()
    } else {
        obs::counter("serve.long_polls", 1);
        handle.wait_changed(current, wait_ms)
    };
    deliver_if_unsuccessful(&mut session);
    Response::json(200, &session.status_json())
}

/// A read that returns `failed` or `cancelled` delivers that result: the
/// session may be retired from now on.
fn deliver_if_unsuccessful(session: &mut Session) {
    if matches!(
        session.state,
        SessionState::Failed | SessionState::Cancelled
    ) {
        session.delivered = true;
    }
}

/// The `GET /shard/healthz` handler: shard identity plus enough load
/// signal for the coordinator's probe loop (state counts double as a
/// queue-pressure readout).
fn shard_healthz(state: &ServerState) -> Response {
    let shard_id = match state.shard_id {
        Some(id) => Value::Int(id as i64),
        None => Value::Null,
    };
    Response::json(
        200,
        &json!({
            "ok": true,
            "shard_id": shard_id,
            "sessions": state.registry.state_counts_json(),
        }),
    )
}

/// The `POST /shard/adopt` handler: coordinator-placed session admission.
///
/// Identical to `POST /sessions` except the session id and tenant come
/// from the body — the coordinator allocates ids fleet-wide and each id
/// names its shard, so the shard must register the session under exactly
/// that id. Global (fleet) quota was already enforced by the coordinator;
/// the shard still refuses duplicates and a full queue.
fn adopt_session(request: &Request, state: &ServerState) -> Response {
    if state.shutdown.is_requested() {
        return Response::error(503, "server is shutting down");
    }
    let doc = match request.json_body() {
        Ok(doc) => doc,
        Err(response) => return response,
    };
    let Some(id) = doc.get("id").and_then(|v| v.as_i64()).filter(|&v| v > 0) else {
        return Response::error(400, "\"id\" must be a positive integer");
    };
    let id = id as u64;
    let tenant = doc
        .get("tenant")
        .and_then(|v| v.as_str())
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .unwrap_or("default")
        .to_string();
    let Some(req_doc) = doc.get("request") else {
        return Response::error(400, "\"request\" object is required");
    };
    let tune_request = match TuneRequest::from_json(req_doc) {
        Ok(req) => req,
        Err(err) => {
            obs::counter("serve.sessions_rejected", 1);
            return Response::error(400, err.message());
        }
    };
    if state.registry.get(id).is_some() {
        return Response::error(409, &format!("session {id} already exists on this shard"));
    }
    let handle = state.registry.restore_handle(id, &tenant, tune_request);
    let response = enqueue(state, &handle, tenant);
    if response.status == 202 {
        obs::counter("serve.sessions_adopted", 1);
    }
    response
}

/// The `DELETE /sessions/<id>` handler.
fn cancel_session(s: &crate::session::SessionHandle) -> Response {
    let already_terminal = {
        let session = s.lock();
        session.state.is_terminal()
    };
    if !already_terminal {
        s.cancel();
        // A queued session may sit behind long jobs; flip it now so
        // DELETE is immediate for work that never started. Running
        // sessions flip when the worker observes the token.
        let mut session = s.lock();
        if session.state == SessionState::Queued {
            session.state = SessionState::Cancelled;
            obs::counter("serve.sessions_cancelled", 1);
            s.log_sync(&SessionRecord::Transition {
                id: session.id,
                state: SessionState::Cancelled,
                error: None,
            });
            drop(session);
            s.notify_change();
        }
    }
    let (id, state_name) = {
        let session = s.lock();
        (session.id, session.state.name())
    };
    Response::json(200, &json!({ "id": id, "state": state_name }))
}

fn submit_session(request: &Request, state: &ServerState) -> Response {
    if state.shutdown.is_requested() {
        return Response::error(503, "server is shutting down");
    }
    let doc = match request.json_body() {
        Ok(doc) => doc,
        Err(response) => return response,
    };
    let tune_request = match TuneRequest::from_json(&doc) {
        Ok(req) => req,
        Err(err) => {
            obs::counter("serve.sessions_rejected", 1);
            return Response::error(400, err.message());
        }
    };
    let tenant = request.tenant();
    let handle =
        match state
            .registry
            .create_if_within_quota(tune_request, &tenant, state.tenant_cap)
        {
            Ok(handle) => handle,
            Err(active) => {
                obs::counter("serve.tenant_rejected", 1);
                return Response::error(
                    429,
                    &format!(
                        "tenant {tenant:?} has {active} active sessions (cap {}), retry later",
                        state.tenant_cap
                    ),
                )
                .with_header("Retry-After", "30");
            }
        };
    enqueue(state, &handle, tenant)
}

/// Logs a new session's admission record and queues it — the shared tail
/// of `POST /sessions` and `POST /shard/adopt`. The record is fsynced
/// before the 202: once the client has an acknowledgement, a crash cannot
/// lose the session. An accepted admission then retires the delivered
/// sessions past [`RETAINED_SESSIONS`], each with a batched `removed`
/// record: losing one to a crash only brings a finished session back.
fn enqueue(state: &ServerState, handle: &SessionHandle, tenant: String) -> Response {
    let (id, request) = {
        let s = handle.lock();
        (s.id, s.request.to_wal_json())
    };
    handle.log_sync(&SessionRecord::Created {
        id,
        tenant,
        request,
    });
    match state.pool.submit(handle.clone()) {
        Ok(()) => {
            obs::counter("serve.sessions_accepted", 1);
            for retired in state.registry.retire_delivered(RETAINED_SESSIONS) {
                handle.log(&SessionRecord::Removed { id: retired });
                obs::counter("serve.sessions_retired", 1);
            }
            Response::json(202, &json!({ "id": id, "state": "queued" }))
        }
        Err(reason) => {
            // Admission failed: the session never existed as far as the
            // client is concerned — the `removed` record withdraws the
            // `created` so recovery does not resurrect it.
            handle.log_sync(&SessionRecord::Removed { id });
            state.registry.remove(id);
            obs::counter("serve.sessions_rejected", 1);
            match reason {
                SubmitError::QueueFull => Response::error(429, "job queue is full, retry later"),
                SubmitError::ShuttingDown => Response::error(503, "server is shutting down"),
            }
        }
    }
}

/// Upper bound on queries per feed call (`POST /sessions/<id>/queries`):
/// clients stream batches, they do not dump a history in one request.
const MAX_FEED_QUERIES: usize = 512;

/// The `POST /sessions/<id>/queries` handler: executes a batch of observed
/// queries on the session's serving database, feeds the drift monitor and,
/// when an alarm fires on a session with `auto_retune`, moves it to
/// `retuning` and hands it back to the worker pool for a warm-start
/// re-tune. The batch is either a `"queries"` array of literal SQL
/// strings or an inline `"spec"` workload spec expanded by `lt-synth`;
/// both run through the same validation and logging.
fn feed_queries(request: &Request, state: &ServerState, handle: &SessionHandle) -> Response {
    let doc = match request.json_body() {
        Ok(doc) => doc,
        Err(response) => return response,
    };
    if doc.get("queries").is_some() && doc.get("spec").is_some() {
        return Response::error(400, "provide either \"queries\" or \"spec\", not both");
    }
    let sqls = if let Some(spec_doc) = doc.get("spec") {
        // Declarative feed: synthesize the batch from an inline workload
        // spec, then fall through to the literal-query path — the same
        // all-or-nothing catalog validation, execution, and write-ahead
        // logging (the WAL records the expanded SQL, so recovery replays
        // the feed byte-for-byte without re-running the synthesizer).
        let spec = match WorkloadSpec::from_json(spec_doc) {
            Ok(spec) => spec,
            Err(err) => return Response::error(400, err.message()),
        };
        if spec.queries > MAX_FEED_QUERIES {
            return Response::error(400, &format!("at most {MAX_FEED_QUERIES} queries per call"));
        }
        let synthesis = match Synthesizer::shared(spec.benchmark).synthesize(&spec) {
            Ok(s) => s,
            Err(err) => {
                return Response::error(400, &format!("spec synthesis failed: {}", err.message()))
            }
        };
        obs::counter("serve.spec_feeds", 1);
        synthesis
            .workload
            .queries
            .iter()
            .map(|q| q.sql.clone())
            .collect()
    } else {
        let Some(Value::Array(items)) = doc.get("queries") else {
            return Response::error(400, "\"queries\" must be an array of SQL strings");
        };
        if items.is_empty() {
            return Response::error(400, "\"queries\" must not be empty");
        }
        if items.len() > MAX_FEED_QUERIES {
            return Response::error(400, &format!("at most {MAX_FEED_QUERIES} queries per call"));
        }
        let mut sqls = Vec::with_capacity(items.len());
        for item in items {
            match item.as_str() {
                Some(sql) => sqls.push(sql.to_string()),
                None => return Response::error(400, "\"queries\" must be an array of SQL strings"),
            }
        }
        sqls
    };

    let mut session = handle.lock();
    if session.state != SessionState::Done {
        return Response::error(
            409,
            &format!(
                "session is {}; queries can only be fed to a done session",
                session.state.name()
            ),
        );
    }
    let auto_retune = session.request.auto_retune;
    let Session {
        id,
        serving,
        drift,
        state: session_state,
        ..
    } = &mut *session;
    let id = *id;
    let Some(serving) = serving.as_mut() else {
        return Response::error(
            409,
            "session kept no serving state (tuning found no configuration)",
        );
    };

    // Validate the whole batch against the session's catalog before
    // executing any of it: a feed is all-or-nothing, so a typo in query
    // 40 cannot leave the monitor half-updated.
    let workload = match serving.feed_workload(&sqls) {
        Ok(w) => w,
        Err(err) => return Response::error(400, &format!("bad query batch: {err}")),
    };
    // Parsing is catalog-free; resolve table names here so a query against
    // a table this session never tuned is rejected instead of silently
    // profiled as an empty plan.
    for q in &workload.queries {
        let analysis = lt_sql::analysis::analyze(&q.parsed);
        for table in &analysis.tables {
            if workload.catalog.table_by_name(table).is_none() {
                return Response::error(
                    400,
                    &format!(
                        "bad query batch: query {}: unknown table {table:?}",
                        q.label
                    ),
                );
            }
        }
    }

    // Single execution path shared with write-ahead-log replay — see
    // [`crate::session::ServingState::observe_queries`].
    let events = serving.observe_queries(&workload);
    obs::counter("serve.queries_fed", workload.queries.len() as u64);
    obs::counter("serve.drift_events", events.len() as u64);
    drift.queries_observed = serving.monitor.observed();
    drift.events.extend(events.iter().cloned());
    let observed = drift.queries_observed;
    let should_retune = auto_retune && !events.is_empty();
    // Both records are written (fsynced) inside the session lock so the
    // log's feed/transition order matches execution order exactly.
    handle.log_sync(&SessionRecord::Feed {
        id,
        sqls: sqls.clone(),
    });
    if should_retune {
        *session_state = SessionState::Retuning;
        handle.log_sync(&SessionRecord::Transition {
            id,
            state: SessionState::Retuning,
            error: None,
        });
    }
    drop(session);
    handle.notify_change();

    // The pool submit happens outside the session lock; a worker that
    // picks the job up immediately must be able to lock the session.
    let mut retune_submitted = false;
    if should_retune {
        match state.pool.submit_retune(handle.clone()) {
            Ok(()) => retune_submitted = true,
            Err(reason) => {
                let mut s = handle.lock();
                s.state = SessionState::Done;
                s.drift.last_error = Some(match reason {
                    SubmitError::QueueFull => "re-tune not queued: job queue full".to_string(),
                    SubmitError::ShuttingDown => {
                        "re-tune not queued: server shutting down".to_string()
                    }
                });
                obs::counter("serve.retunes_rejected", 1);
                // Advisory rollback: withdraws the `retuning` transition so
                // recovery does not re-queue a re-tune the client was told
                // is not happening.
                handle.log_sync(&SessionRecord::Transition {
                    id,
                    state: SessionState::Done,
                    error: s.drift.last_error.clone(),
                });
                drop(s);
                handle.notify_change();
            }
        }
    }
    let events_json: Vec<Value> = events.iter().map(|e| e.to_json()).collect();
    Response::json(
        200,
        &json!({
            "executed": sqls.len(),
            "queries_observed": observed,
            "events": Value::Array(events_json),
            "retune": retune_submitted,
        }),
    )
}

fn list_sessions(state: &ServerState) -> Response {
    let sessions: Vec<Value> = state
        .registry
        .states()
        .into_iter()
        .map(|(id, s)| json!({ "id": id, "state": s.name() }))
        .collect();
    Response::json(200, &json!({ "sessions": Value::Array(sessions) }))
}

fn metrics(state: &ServerState) -> Response {
    let mut doc = obs::snapshot().to_metrics_json();
    if let Value::Object(entries) = &mut doc {
        entries.push(("sessions".to_string(), state.registry.state_counts_json()));
        if let Some(id) = state.shard_id {
            entries.push(("shard_id".to_string(), Value::Int(id as i64)));
        }
    }
    Response::json(200, &doc)
}

fn with_session(
    state: &ServerState,
    id: &str,
    f: impl FnOnce(&crate::session::SessionHandle) -> Response,
) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, "session id must be an integer");
    };
    match state.registry.get(id) {
        Some(handle) => f(&handle),
        None => Response::error(404, &format!("no session {id}")),
    }
}
