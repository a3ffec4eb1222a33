//! Tuning sessions: request schema, per-session state machine, registry.
//!
//! Every accepted `POST /sessions` becomes a [`Session`] that owns the full
//! description of one tuning run — benchmark, DBMS flavour, hardware, seed,
//! pipeline options — and moves through the state machine
//!
//! ```text
//! Queued ──▶ Tuning ──▶ Done ◀──▶ Retuning
//!    │          ├─────▶ Failed        │
//!    └──────────┴─────▶ Cancelled ◀───┘
//! ```
//!
//! A `Done` session that keeps a [`ServingState`] can receive live queries
//! (`POST /sessions/<id>/queries`); a drift alarm with `auto_retune` set
//! moves it to `Retuning`, and the warm-start re-tune returns it to `Done`.
//!
//! State transitions happen under the session's own mutex; the registry
//! mutex only guards the id → session map, so status polls never contend
//! with tuning progress writes of other sessions.

use crate::wal::Outcome;
use lambda_tune::{LambdaTuneOptions, ProgressEvent, TuneObserver};
use lt_common::json::Value;
use lt_common::{json, LtError, Result};
use lt_dbms::{Dbms, Hardware, SimDb, TuningTarget};
use lt_drift::{DriftConfig, DriftEvent, DriftMonitor};
use lt_workloads::{Benchmark, Workload};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Service-side ceiling on LLM samples per session. The pipeline allocates
/// and iterates `num_configs` times, so an unbounded value lets one request
/// pin a worker for hours or abort the process on a failed huge allocation
/// (`Vec::with_capacity`); anything above this is a 400, never a job.
pub const MAX_NUM_CONFIGS: u64 = 64;
/// Service-side ceiling on the workload-description token budget. Far above
/// any real model context, low enough that a typo'd exponent cannot balloon
/// compressor work.
pub const MAX_TOKEN_BUDGET: u64 = 10_000_000;
/// Observed queries a serving session retains as the re-tune workload;
/// older queries age out so memory stays bounded however long a session
/// serves.
pub const RECENT_QUERY_CAP: usize = 256;
/// Delivered sessions a registry keeps: at each admission, the least
/// recently requested terminal sessions whose result was delivered are
/// retired beyond this many ([`SessionRegistry::retire_delivered`]), so a
/// daemon's memory stays flat however many sessions it serves.
pub const RETAINED_SESSIONS: usize = 16;

/// Which engine a session's databases run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Virtual-time simulator ([`SimDb`]); the determinism-gated default.
    #[default]
    Sim,
    /// lt-store physical storage engine ([`lt_store::StoreDb`]): plans
    /// identically to the simulator, but query times are measured on a
    /// scaled-down on-disk replica.
    Store,
}

impl Backend {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Store => "store",
        }
    }

    /// Inverse of [`Backend::name`].
    pub fn parse(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "sim" | "simulator" => Some(Backend::Sim),
            "store" | "lt-store" => Some(Backend::Store),
            _ => None,
        }
    }

    /// Builds a database of this flavour. Both backends share the optimizer
    /// and statistics seed, so plans and prompts are identical; only plan
    /// *execution* differs (modelled vs measured).
    pub fn open(
        self,
        dbms: Dbms,
        catalog: lt_dbms::Catalog,
        hardware: Hardware,
        seed: u64,
    ) -> Box<dyn TuningTarget + Send> {
        match self {
            Backend::Sim => Box::new(SimDb::new(dbms, catalog, hardware, seed)),
            Backend::Store => Box::new(lt_store::StoreDb::new(dbms, catalog, hardware, seed)),
        }
    }
}

/// A client's tuning request, parsed and validated at submission time.
#[derive(Debug, Clone)]
pub struct TuneRequest {
    /// Workload to tune for.
    pub benchmark: Benchmark,
    /// Target system flavour.
    pub dbms: Dbms,
    /// Engine the session's databases run on (`"backend"`, default `sim`).
    pub backend: Backend,
    /// Simulated machine.
    pub hardware: Hardware,
    /// Session seed: drives misestimation patterns, LLM sampling and
    /// scheduling. The determinism contract is keyed on this value.
    pub seed: u64,
    /// Pipeline options (LLM sample count, token budget, scope, …).
    pub options: LambdaTuneOptions,
    /// Optional configuration script applied to the database before tuning
    /// starts (models tuning from a non-default starting state).
    pub initial_config: Option<String>,
    /// Re-enter tuning automatically when the drift monitor alarms on the
    /// query feed (`"auto_retune": true` in the request body).
    pub auto_retune: bool,
    /// Drift-detector configuration for this session: the defaults,
    /// overridden per-field by the request's optional `"drift"` object.
    pub drift: DriftConfig,
}

impl TuneRequest {
    /// Parses the `POST /sessions` body. Unknown benchmarks, malformed
    /// numbers and unsatisfiable option combinations are [`LtError`]s, so
    /// a bad request is answered with 400 instead of reaching a worker.
    pub fn from_json(doc: &Value) -> Result<TuneRequest> {
        let bad = |what: &str| LtError::Config(format!("bad request: {what}"));
        if !matches!(doc, Value::Object(_)) {
            return Err(bad("body must be a JSON object"));
        }
        let benchmark = match doc.get("benchmark") {
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| bad("\"benchmark\" must be a string"))?;
                Benchmark::parse(name)?
            }
            None => Benchmark::TpchSf1,
        };
        let dbms = match doc.get("dbms").map(|v| v.as_str()) {
            None => Dbms::Postgres,
            Some(Some(s)) => match s.to_ascii_lowercase().as_str() {
                "postgres" | "postgresql" | "pg" => Dbms::Postgres,
                "mysql" | "ms" => Dbms::Mysql,
                other => return Err(bad(&format!("unknown dbms {other:?}"))),
            },
            Some(None) => return Err(bad("\"dbms\" must be a string")),
        };
        let backend = match doc.get("backend").map(|v| v.as_str()) {
            None => Backend::Sim,
            Some(Some(s)) => {
                Backend::parse(s).ok_or_else(|| bad(&format!("unknown backend {s:?}")))?
            }
            Some(None) => return Err(bad("\"backend\" must be a string")),
        };
        let hardware = match doc.get("hardware").map(|v| v.as_str()) {
            None => Hardware::p3_2xlarge(),
            Some(Some(s)) => match s.to_ascii_lowercase().replace(['.', '_'], "-").as_str() {
                "p3-2xlarge" | "p32xlarge" | "paper" => Hardware::p3_2xlarge(),
                "small" => Hardware::small(),
                other => return Err(bad(&format!("unknown hardware {other:?}"))),
            },
            Some(None) => return Err(bad("\"hardware\" must be a string")),
        };
        let uint = |key: &str| -> Result<Option<u64>> {
            match doc.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(v) => match v.as_i64() {
                    Some(i) if i >= 0 => Ok(Some(i as u64)),
                    _ => Err(bad(&format!("\"{key}\" must be a non-negative integer"))),
                },
            }
        };
        let flag = |key: &str| -> Result<bool> {
            match doc.get(key) {
                None | Some(Value::Null) => Ok(false),
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| bad(&format!("\"{key}\" must be a boolean"))),
            }
        };
        // Multi-tenant admission limits: values the pipeline would happily
        // loop (or allocate) over for hours must never reach a worker.
        let bounded = |key: &str, max: u64| -> Result<Option<u64>> {
            match uint(key)? {
                Some(v) if v > max => Err(bad(&format!("\"{key}\" must be at most {max}"))),
                other => Ok(other),
            }
        };
        let defaults = LambdaTuneOptions::default();
        let seed = uint("seed")?.unwrap_or(0);
        let options = LambdaTuneOptions {
            num_configs: bounded("num_configs", MAX_NUM_CONFIGS)?
                .unwrap_or(defaults.num_configs as u64) as usize,
            temperature: match doc.get("temperature") {
                None | Some(Value::Null) => defaults.temperature,
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| bad("\"temperature\" must be a number"))?,
            },
            token_budget: bounded("token_budget", MAX_TOKEN_BUDGET)?.map(|t| t as usize),
            params_only: flag("params_only")?,
            indexes_only: flag("indexes_only")?,
            seed,
            ..defaults
        };
        // Reject unsatisfiable pipelines at the door (zero samples, zero
        // token budget, NaN temperature, …) — same validation the pipeline
        // itself applies, surfaced as a 400 instead of a failed session.
        options.validate()?;
        let initial_config = match doc.get("initial_config") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| bad("\"initial_config\" must be a string"))?
                    .to_string(),
            ),
        };
        Ok(TuneRequest {
            benchmark,
            dbms,
            backend,
            hardware,
            seed,
            options,
            initial_config,
            auto_retune: flag("auto_retune")?,
            drift: drift_config_from_json(doc)?,
        })
    }

    /// The request as JSON (echoed in status documents).
    pub fn to_json(&self) -> Value {
        json!({
            "benchmark": self.benchmark.name(),
            "dbms": match self.dbms {
                Dbms::Postgres => "postgres",
                Dbms::Mysql => "mysql",
            },
            "backend": self.backend.name(),
            "seed": self.seed,
            "num_configs": self.options.num_configs,
            "params_only": self.options.params_only,
            "token_budget": self.options.token_budget,
            "auto_retune": self.auto_retune,
        })
    }

    /// The request as a *round-trippable* JSON document for the write-ahead
    /// session log: every field [`TuneRequest::from_json`] reads is written
    /// back in the schema it reads, so `from_json(to_wal_json(r))`
    /// reproduces `r` exactly. (The fields `from_json` cannot set —
    /// compressor/scheduler/selector options — always hold their defaults
    /// in a served session, so they need no representation here.)
    pub fn to_wal_json(&self) -> Value {
        let mut doc = json!({
            "benchmark": self.benchmark.name(),
            "dbms": match self.dbms {
                Dbms::Postgres => "postgres",
                Dbms::Mysql => "mysql",
            },
            "hardware": if self.hardware.memory_bytes == Hardware::small().memory_bytes
                && self.hardware.cores == Hardware::small().cores
            {
                "small"
            } else {
                "p3-2xlarge"
            },
            "seed": self.seed as i64,
            "num_configs": self.options.num_configs,
            "temperature": self.options.temperature,
            "token_budget": self.options.token_budget,
            "params_only": self.options.params_only,
            "indexes_only": self.options.indexes_only,
            "initial_config": self.initial_config.as_deref(),
            "auto_retune": self.auto_retune,
            "drift": json!({
                "window": self.drift.window,
                "stride": self.drift.stride,
                "warmup": self.drift.warmup,
                "confirm": self.drift.confirm,
                "cooldown": self.drift.cooldown,
                "jsd_threshold": self.drift.jsd_threshold,
                "ewma_alpha": self.drift.ewma_alpha,
                "hit_arm": self.drift.hit_arm,
                "hit_collapse": self.drift.hit_collapse,
                "ph_delta": self.drift.ph_delta,
                "ph_lambda": self.drift.ph_lambda,
            }),
        });
        // Emitted only when non-default, so session logs written before the
        // backend field existed — and all sim sessions — keep their exact
        // bytes (the crash-recovery gate diffs replayed logs).
        if self.backend != Backend::Sim {
            if let Value::Object(fields) = &mut doc {
                fields.push(("backend".to_string(), json!(self.backend.name())));
            }
        }
        doc
    }
}

/// Parses the optional `"drift"` object of a tuning request: per-field
/// overrides on top of [`DriftConfig::default`], so a client can request a
/// tighter (or looser) monitor for one session without touching process
/// state.
fn drift_config_from_json(doc: &Value) -> Result<DriftConfig> {
    let bad = |what: &str| LtError::Config(format!("bad request: {what}"));
    let mut config = DriftConfig::default();
    let overrides = match doc.get("drift") {
        None | Some(Value::Null) => return Ok(config),
        Some(v @ Value::Object(_)) => v,
        Some(_) => return Err(bad("\"drift\" must be an object")),
    };
    let count = |key: &str, min: i64| -> Result<Option<usize>> {
        match overrides.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => match v.as_i64() {
                Some(i) if i >= min => Ok(Some(i as usize)),
                _ => Err(bad(&format!("\"drift.{key}\" must be an integer >= {min}"))),
            },
        }
    };
    let number = |key: &str| -> Result<Option<f64>> {
        match overrides.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => match v.as_f64() {
                Some(f) if f.is_finite() => Ok(Some(f)),
                _ => Err(bad(&format!("\"drift.{key}\" must be a finite number"))),
            },
        }
    };
    if let Some(v) = count("window", 1)? {
        config.window = v;
    }
    if let Some(v) = count("stride", 1)? {
        config.stride = v;
    }
    if let Some(v) = count("warmup", 0)? {
        config.warmup = v;
    }
    if let Some(v) = count("confirm", 1)? {
        config.confirm = v;
    }
    if let Some(v) = count("cooldown", 0)? {
        config.cooldown = v;
    }
    if let Some(v) = number("jsd_threshold")? {
        config.jsd_threshold = v;
    }
    if let Some(v) = number("ewma_alpha")? {
        config.ewma_alpha = v;
    }
    if let Some(v) = number("hit_arm")? {
        config.hit_arm = v;
    }
    if let Some(v) = number("hit_collapse")? {
        config.hit_collapse = v;
    }
    if let Some(v) = number("ph_delta")? {
        config.ph_delta = v;
    }
    if let Some(v) = number("ph_lambda")? {
        config.ph_lambda = v;
    }
    Ok(config)
}

/// Lifecycle of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running the pipeline.
    Tuning,
    /// A drift alarm sent the session back to a worker for a warm-start
    /// re-tune; it returns to [`SessionState::Done`] when that finishes.
    Retuning,
    /// The pipeline finished with a best configuration.
    Done,
    /// The pipeline returned an error (or panicked; see the worker).
    Failed,
    /// Cancelled by the client before completion.
    Cancelled,
}

impl SessionState {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Tuning => "tuning",
            SessionState::Retuning => "retuning",
            SessionState::Done => "done",
            SessionState::Failed => "failed",
            SessionState::Cancelled => "cancelled",
        }
    }

    /// True for states no transition leaves.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SessionState::Done | SessionState::Failed | SessionState::Cancelled
        )
    }

    /// Inverse of [`SessionState::name`], for write-ahead-log replay.
    pub fn parse(name: &str) -> Option<SessionState> {
        Some(match name {
            "queued" => SessionState::Queued,
            "tuning" => SessionState::Tuning,
            "retuning" => SessionState::Retuning,
            "done" => SessionState::Done,
            "failed" => SessionState::Failed,
            "cancelled" => SessionState::Cancelled,
            _ => return None,
        })
    }
}

/// Drift bookkeeping surfaced in session status documents.
#[derive(Debug, Clone, Default)]
pub struct DriftStatus {
    /// Queries consumed by the drift monitor over the session's lifetime.
    pub queries_observed: u64,
    /// Every drift alarm raised on the feed, in order.
    pub events: Vec<DriftEvent>,
    /// Completed warm-start re-tunes.
    pub retunes: u64,
    /// Last re-tune failure, if any (the session stays `done`; the error
    /// is advisory).
    pub last_error: Option<String>,
}

/// Everything a `Done` session keeps to serve a live query feed: the tuned
/// database, the drift monitor watching the feed, and the recent observed
/// queries that become the re-tune workload. (The warm-start prompt and
/// winner live in the session's [`Outcome`].)
pub struct ServingState {
    /// The session's database with the winning configuration applied.
    pub db: Box<dyn TuningTarget + Send>,
    /// Streaming drift monitor referenced on the tuned workload.
    pub monitor: DriftMonitor,
    /// Most recent `(label, sql)` observed queries, oldest first, capped
    /// at [`RECENT_QUERY_CAP`].
    pub recent: Vec<(String, String)>,
}

impl ServingState {
    /// Appends an observed query, aging out the oldest past the cap.
    pub fn push_recent(&mut self, label: String, sql: String) {
        self.recent.push((label, sql));
        if self.recent.len() > RECENT_QUERY_CAP {
            self.recent.remove(0);
        }
    }

    /// A feed batch as a workload over the serving catalog, its queries
    /// labelled `f<n>` by their position in the session's whole feed. The
    /// HTTP handler and write-ahead-log replay both build it here.
    pub(crate) fn feed_workload(&self, sqls: &[String]) -> Result<Workload> {
        let observed = self.monitor.observed();
        let labels: Vec<String> = (1..=sqls.len() as u64)
            .map(|i| format!("f{}", observed + i))
            .collect();
        let pairs: Vec<(&str, String)> = labels
            .iter()
            .zip(sqls)
            .map(|(label, sql)| (label.as_str(), sql.clone()))
            .collect();
        Workload::from_sql("feed", self.db.catalog().clone(), &pairs)
    }

    /// The recent-query window as the workload a re-tune tunes for. The
    /// worker and write-ahead-log replay both build it here.
    pub(crate) fn observed_workload(&self) -> Result<Workload> {
        let pairs: Vec<(&str, String)> = self
            .recent
            .iter()
            .map(|(label, sql)| (label.as_str(), sql.clone()))
            .collect();
        Workload::from_sql("observed", self.db.catalog().clone(), &pairs)
    }

    /// Executes one validated feed batch on the serving database and runs
    /// every query through the drift monitor, returning the alarms raised.
    /// This is the *single* code path for feeding queries — the HTTP
    /// handler and write-ahead-log replay both call it, which is what makes
    /// a recovered session's serving database byte-identical to an
    /// uninterrupted one's.
    pub fn observe_queries(&mut self, workload: &Workload) -> Vec<DriftEvent> {
        let mut events = Vec::new();
        for q in &workload.queries {
            if let Some(event) = self.monitor.execute_and_observe(&mut *self.db, &q.parsed) {
                events.push(event);
            }
            self.push_recent(q.label.clone(), q.sql.clone());
        }
        events
    }
}

impl fmt::Debug for ServingState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The boxed target carries no Debug bound; summarize instead.
        f.debug_struct("ServingState")
            .field("observed", &self.monitor.observed())
            .field("recent", &self.recent.len())
            .finish_non_exhaustive()
    }
}

/// One tuning session: request, live progress, outcome.
#[derive(Debug)]
pub struct Session {
    /// Registry-assigned id.
    pub id: u64,
    /// Tenant that submitted the session (`X-Tenant` header, `"default"`
    /// when absent); per-tenant admission quotas count by this.
    pub tenant: String,
    /// The request that created the session.
    pub request: TuneRequest,
    /// Current lifecycle state.
    pub state: SessionState,
    /// Error message for [`SessionState::Failed`].
    pub error: Option<String>,
    /// Progress so far and, once a (re-)tune finished, its result: what
    /// the `done` record logs.
    pub outcome: Outcome,
    /// Drift bookkeeping for the query feed.
    pub drift: DriftStatus,
    /// Live serving state; present only while the session is `Done` (or
    /// briefly `Retuning`) with a best configuration.
    pub serving: Option<ServingState>,
    /// The result reached a client: a `GET /sessions/<id>/config` answered
    /// 200, or a read returned `failed` or `cancelled`. Only a terminal
    /// session with this set may be retired; it is not logged, so a
    /// restart forgets it.
    pub delivered: bool,
}

impl Session {
    /// The `GET /sessions/<id>` document: state plus trajectory-so-far.
    pub fn status_json(&self) -> Value {
        let trajectory: Vec<Value> = self
            .outcome
            .trajectory
            .iter()
            .map(|p| {
                json!({
                    "opt_time_s": p.opt_time.as_f64(),
                    "best_workload_time_s": p.best_workload_time.as_f64(),
                })
            })
            .collect();
        let events: Vec<Value> = self.drift.events.iter().map(DriftEvent::to_json).collect();
        let scores = match &self.serving {
            Some(serving) => {
                let s = serving.monitor.scores();
                json!({
                    "jsd": s.jsd,
                    "ewma_hit_rate": s.ewma_hit_rate,
                    "page_hinkley": s.page_hinkley,
                })
            }
            None => Value::Null,
        };
        json!({
            "id": self.id,
            "state": self.state.name(),
            "tenant": self.tenant.as_str(),
            "request": self.request.to_json(),
            "samples_done": self.outcome.samples_done,
            "rounds_started": self.outcome.rounds_started,
            "workload_tokens": self.outcome.workload_tokens,
            "trajectory": Value::Array(trajectory),
            "best_time_s": self.outcome.best_time,
            "error": self.error.as_deref(),
            "drift": json!({
                "auto_retune": self.request.auto_retune,
                "queries_observed": self.drift.queries_observed,
                "events": Value::Array(events),
                "retunes": self.drift.retunes,
                "last_error": self.drift.last_error.as_deref(),
                "scores": scores,
            }),
        })
    }

    /// The `GET /sessions/<id>/config` document: best script + scaled cost.
    /// `None` until a best configuration exists.
    pub fn config_json(&self) -> Option<Value> {
        let o = &self.outcome;
        let script = o.best_script.as_deref()?;
        let scaled_cost = match (o.best_time, o.default_time) {
            (Some(best), Some(default)) if default > 0.0 => Some(best / default),
            _ => None,
        };
        Some(json!({
            "id": self.id,
            "state": self.state.name(),
            "script": script,
            "best_time_s": o.best_time,
            "default_time_s": o.default_time,
            "scaled_cost": scaled_cost,
            "tuning_time_s": o.tuning_time,
        }))
    }
}

/// A session plus its cancellation flag, shared between the HTTP threads
/// and the worker running it. When the registry has a write-ahead log
/// attached, the handle carries it so workers and feed handlers can log
/// transitions without going back through the registry.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    session: Arc<Mutex<Session>>,
    cancel: Arc<AtomicBool>,
    wal: Option<Arc<crate::wal::SessionLog>>,
    /// Signalled on state transitions; paired with `session` for the
    /// long-poll (`GET /sessions/<id>?wait_ms=...`) wait.
    changed: Arc<Condvar>,
    /// Registry clock at the session's last request (or its creation); the
    /// least recently requested delivered session is retired first.
    requested: Arc<AtomicU64>,
}

impl SessionHandle {
    /// Appends `record` to the session log, batched-fsync. No-op without
    /// an attached log; append errors are counted, not propagated — a
    /// full disk degrades durability, it does not take serving down.
    pub(crate) fn log(&self, record: &crate::wal::SessionRecord) {
        if let Some(wal) = &self.wal {
            wal.append(record);
        }
    }

    /// Appends `record` and fsyncs before returning — for acknowledgement
    /// points (session created, feed executed, terminal transition).
    pub(crate) fn log_sync(&self, record: &crate::wal::SessionRecord) {
        if let Some(wal) = &self.wal {
            wal.append_sync(record);
        }
    }

    /// Locks the session state.
    pub fn lock(&self) -> MutexGuard<'_, Session> {
        // Sessions are plain data: a poisoned mutex only means a panicking
        // thread held it, and the data stays valid.
        match self.session.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Wakes long-poll waiters after a state transition. Callers invoke
    /// this after releasing the session lock; waiters also re-check on a
    /// bounded interval, so a missed call degrades latency, never
    /// correctness.
    pub fn notify_change(&self) {
        self.changed.notify_all();
    }

    /// Blocks until the session leaves state `from` or `wait_ms` elapses,
    /// then returns the (locked) session. `wait_ms == 0` degenerates to a
    /// plain `lock()` — the pre-long-poll behaviour. The wait re-checks at
    /// least every 50 ms so an unnotified transition is still observed
    /// promptly.
    pub fn wait_changed(&self, from: SessionState, wait_ms: u64) -> MutexGuard<'_, Session> {
        let mut guard = self.lock();
        if wait_ms == 0 {
            return guard;
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(wait_ms);
        while guard.state == from {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            let step = (deadline - now).min(std::time::Duration::from_millis(50));
            guard = match self.changed.wait_timeout(guard, step) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        guard
    }

    /// Requests cancellation (observed by the worker between units of
    /// work — the same interruption points the timeout path uses).
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// True once [`SessionHandle::cancel`] was called.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The observer a worker passes into the pipeline for this session.
    pub fn observer(&self) -> SessionSink {
        SessionSink {
            handle: self.clone(),
        }
    }
}

/// Streams pipeline progress into the session and relays cancellation —
/// the hook between `lambda_tune::progress` and the serving layer.
#[derive(Debug, Clone)]
pub struct SessionSink {
    handle: SessionHandle,
}

impl TuneObserver for SessionSink {
    fn on_event(&self, event: ProgressEvent) {
        let outcome = &mut self.handle.lock().outcome;
        match event {
            ProgressEvent::PromptBuilt { tokens } => outcome.workload_tokens = Some(tokens),
            ProgressEvent::ConfigSampled { index, .. } => outcome.samples_done = index + 1,
            ProgressEvent::RoundStarted { round, .. } => outcome.rounds_started = round,
            ProgressEvent::Improvement { point, .. } => outcome.trajectory.push(point),
        }
    }

    fn cancelled(&self) -> bool {
        self.handle.cancel_requested()
    }
}

/// The id → session map. One registry per server.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    sessions: Mutex<HashMap<u64, SessionHandle>>,
    next_id: AtomicU64,
    wal: Mutex<Option<Arc<crate::wal::SessionLog>>>,
    /// Ticks once per lookup or registration; orders retirement.
    clock: AtomicU64,
}

impl SessionRegistry {
    /// An empty registry starting at id 1.
    pub fn new() -> SessionRegistry {
        SessionRegistry {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            wal: Mutex::new(None),
            clock: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Attaches a write-ahead session log: every handle created from now
    /// on carries it, so lifecycle transitions get recorded.
    pub fn attach_wal(&self, log: Arc<crate::wal::SessionLog>) {
        *self.wal.lock().unwrap_or_else(|p| p.into_inner()) = Some(log);
    }

    fn current_wal(&self) -> Option<Arc<crate::wal::SessionLog>> {
        self.wal.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Flushes and fsyncs the attached log's batched records, if any.
    pub(crate) fn sync_wal(&self) {
        if let Some(wal) = self.current_wal() {
            wal.sync();
        }
    }

    fn map(&self) -> MutexGuard<'_, HashMap<u64, SessionHandle>> {
        match self.sessions.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn build_handle(&self, id: u64, request: TuneRequest, tenant: &str) -> SessionHandle {
        SessionHandle {
            session: Arc::new(Mutex::new(Session {
                id,
                tenant: tenant.to_string(),
                request,
                state: SessionState::Queued,
                error: None,
                outcome: Outcome::default(),
                drift: DriftStatus::default(),
                serving: None,
                delivered: false,
            })),
            cancel: Arc::new(AtomicBool::new(false)),
            wal: self.current_wal(),
            changed: Arc::new(Condvar::new()),
            requested: Arc::new(AtomicU64::new(self.tick())),
        }
    }

    fn new_handle(&self, request: TuneRequest, tenant: &str) -> SessionHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.build_handle(id, request, tenant)
    }

    /// Re-registers a session under its original id during log replay.
    /// Fresh ids keep allocating above every recovered one, so recovered
    /// and new sessions never collide.
    pub fn restore_handle(&self, id: u64, tenant: &str, request: TuneRequest) -> SessionHandle {
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        let handle = self.build_handle(id, request, tenant);
        self.map().insert(id, handle.clone());
        handle
    }

    /// Registers a new queued session for the default tenant and returns
    /// its handle (no quota check; tests and embedded use).
    pub fn create(&self, request: TuneRequest) -> SessionHandle {
        let handle = self.new_handle(request, "default");
        let id = handle.lock().id;
        self.map().insert(id, handle.clone());
        handle
    }

    /// Registers a new queued session for `tenant` unless the tenant
    /// already has `cap` non-terminal sessions. The count and the insert
    /// happen under one registry lock, so two racing submissions cannot
    /// both slip under the quota. Returns the tenant's active-session
    /// count on rejection.
    pub fn create_if_within_quota(
        &self,
        request: TuneRequest,
        tenant: &str,
        cap: usize,
    ) -> std::result::Result<SessionHandle, usize> {
        let mut map = self.map();
        let active = map
            .values()
            .filter(|h| {
                let s = h.lock();
                s.tenant == tenant && !s.state.is_terminal()
            })
            .count();
        if active >= cap {
            return Err(active);
        }
        let handle = self.new_handle(request, tenant);
        let id = handle.lock().id;
        map.insert(id, handle.clone());
        Ok(handle)
    }

    /// Looks a session up by id, marking it as just requested: every
    /// per-session route comes through here.
    pub fn get(&self, id: u64) -> Option<SessionHandle> {
        let handle = self.map().get(&id).cloned()?;
        handle.requested.store(self.tick(), Ordering::Relaxed);
        Some(handle)
    }

    /// Removes a session (used when admission fails after registration).
    pub fn remove(&self, id: u64) {
        self.map().remove(&id);
    }

    /// Retires delivered sessions beyond `keep`: among the terminal
    /// sessions whose result was delivered, the least recently requested
    /// leave the registry until `keep` remain. Returns the retired ids,
    /// oldest request first. A session nobody fetched is never retired.
    pub(crate) fn retire_delivered(&self, keep: usize) -> Vec<u64> {
        let mut map = self.map();
        let mut delivered: Vec<(u64, u64)> = map
            .iter()
            .filter(|(_, h)| {
                let s = h.lock();
                s.delivered && s.state.is_terminal()
            })
            .map(|(&id, h)| (h.requested.load(Ordering::Relaxed), id))
            .collect();
        let excess = delivered.len().saturating_sub(keep);
        if excess == 0 {
            return Vec::new();
        }
        delivered.sort_unstable();
        delivered.truncate(excess);
        for (_, id) in &delivered {
            map.remove(id);
        }
        delivered.into_iter().map(|(_, id)| id).collect()
    }

    /// `(id, state)` of every session, id-ascending.
    pub fn states(&self) -> Vec<(u64, SessionState)> {
        let mut out: Vec<(u64, SessionState)> = self
            .map()
            .values()
            .map(|h| {
                let s = h.lock();
                (s.id, s.state)
            })
            .collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Number of sessions in each state, as a JSON object.
    pub fn state_counts_json(&self) -> Value {
        let mut counts = [0u64; 6];
        for (_, state) in self.states() {
            let i = match state {
                SessionState::Queued => 0,
                SessionState::Tuning => 1,
                SessionState::Retuning => 2,
                SessionState::Done => 3,
                SessionState::Failed => 4,
                SessionState::Cancelled => 5,
            };
            counts[i] += 1;
        }
        json!({
            "queued": counts[0],
            "tuning": counts[1],
            "retuning": counts[2],
            "done": counts[3],
            "failed": counts[4],
            "cancelled": counts[5],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_tune::TrajectoryPoint;
    use lt_common::json::parse;

    #[test]
    fn parses_a_full_request() {
        let doc = parse(
            r#"{"benchmark": "job", "dbms": "mysql", "hardware": "small", "seed": 9,
                "num_configs": 3, "token_budget": 500, "params_only": true,
                "temperature": 0.2, "initial_config": "SET GLOBAL tmp_table_size = '1GB';"}"#,
        )
        .unwrap();
        let req = TuneRequest::from_json(&doc).unwrap();
        assert_eq!(req.benchmark, Benchmark::Job);
        assert_eq!(req.dbms, Dbms::Mysql);
        assert_eq!(req.seed, 9);
        assert_eq!(req.options.num_configs, 3);
        assert_eq!(req.options.token_budget, Some(500));
        assert!(req.options.params_only);
        assert_eq!(req.options.temperature, 0.2);
        assert_eq!(req.options.seed, 9);
        assert!(req.initial_config.is_some());
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let req = TuneRequest::from_json(&parse("{}").unwrap()).unwrap();
        assert_eq!(req.benchmark, Benchmark::TpchSf1);
        assert_eq!(req.dbms, Dbms::Postgres);
        assert_eq!(req.seed, 0);
        assert_eq!(req.options.num_configs, 5);
        assert!(req.initial_config.is_none());
    }

    #[test]
    fn rejects_malformed_requests_with_config_errors() {
        let cases = [
            ("[1, 2]", "object"),
            (r#"{"benchmark": "tpcc"}"#, "unknown benchmark"),
            (r#"{"benchmark": 5}"#, "string"),
            (r#"{"dbms": "oracle"}"#, "unknown dbms"),
            (r#"{"hardware": "mainframe"}"#, "unknown hardware"),
            (r#"{"seed": -4}"#, "non-negative"),
            (r#"{"num_configs": 0}"#, "num_configs"),
            (r#"{"num_configs": 65}"#, "at most 64"),
            (r#"{"num_configs": 1000000000000000}"#, "at most 64"),
            (r#"{"token_budget": 0}"#, "token_budget"),
            (r#"{"token_budget": 99999999999}"#, "at most 10000000"),
            (r#"{"temperature": "hot"}"#, "number"),
            (r#"{"params_only": 1}"#, "boolean"),
            (r#"{"initial_config": 7}"#, "string"),
        ];
        for (body, needle) in cases {
            let err = TuneRequest::from_json(&parse(body).unwrap()).unwrap_err();
            assert!(
                err.message().contains(needle),
                "{body}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn admission_limits_are_inclusive() {
        let doc = parse(&format!(
            r#"{{"num_configs": {MAX_NUM_CONFIGS}, "token_budget": {MAX_TOKEN_BUDGET}}}"#
        ))
        .unwrap();
        let req = TuneRequest::from_json(&doc).unwrap();
        assert_eq!(req.options.num_configs, MAX_NUM_CONFIGS as usize);
        assert_eq!(req.options.token_budget, Some(MAX_TOKEN_BUDGET as usize));
    }

    #[test]
    fn parses_drift_overrides_and_auto_retune() {
        let doc = parse(
            r#"{"auto_retune": true,
                "drift": {"window": 16, "stride": 4, "warmup": 8, "jsd_threshold": 0.2}}"#,
        )
        .unwrap();
        let req = TuneRequest::from_json(&doc).unwrap();
        assert!(req.auto_retune);
        assert_eq!(req.drift.window, 16);
        assert_eq!(req.drift.stride, 4);
        assert_eq!(req.drift.warmup, 8);
        assert_eq!(req.drift.jsd_threshold, 0.2);
        // Unspecified fields keep their defaults.
        assert_eq!(req.drift.cooldown, DriftConfig::default().cooldown);
        // Absent entirely: defaults, auto_retune off.
        let req = TuneRequest::from_json(&parse("{}").unwrap()).unwrap();
        assert!(!req.auto_retune);
        assert_eq!(req.drift, DriftConfig::default());

        for (body, needle) in [
            (r#"{"drift": 5}"#, "object"),
            (r#"{"drift": {"window": 0}}"#, ">= 1"),
            (r#"{"drift": {"jsd_threshold": "high"}}"#, "finite number"),
            (r#"{"auto_retune": "yes"}"#, "boolean"),
        ] {
            let err = TuneRequest::from_json(&parse(body).unwrap()).unwrap_err();
            assert!(err.message().contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn tenant_quota_is_enforced_and_frees_on_terminal_states() {
        let registry = SessionRegistry::new();
        let req = TuneRequest::from_json(&parse("{}").unwrap()).unwrap();
        let a = registry
            .create_if_within_quota(req.clone(), "acme", 2)
            .unwrap();
        let _b = registry
            .create_if_within_quota(req.clone(), "acme", 2)
            .unwrap();
        assert_eq!(
            registry
                .create_if_within_quota(req.clone(), "acme", 2)
                .unwrap_err(),
            2
        );
        // Another tenant is unaffected by acme's quota.
        assert!(registry
            .create_if_within_quota(req.clone(), "other", 2)
            .is_ok());
        // A terminal session frees its slot; a retuning one does not.
        a.lock().state = SessionState::Done;
        let c = registry
            .create_if_within_quota(req.clone(), "acme", 2)
            .unwrap();
        c.lock().state = SessionState::Retuning;
        assert!(registry.create_if_within_quota(req, "acme", 2).is_err());
        let counts = registry.state_counts_json();
        assert_eq!(counts.get("retuning").and_then(Value::as_i64), Some(1));
    }

    #[test]
    fn registry_assigns_ids_and_tracks_states() {
        let registry = SessionRegistry::new();
        let req = TuneRequest::from_json(&parse("{}").unwrap()).unwrap();
        let a = registry.create(req.clone());
        let b = registry.create(req);
        let (id_a, id_b) = (a.lock().id, b.lock().id);
        assert_ne!(id_a, id_b);
        b.lock().state = SessionState::Tuning;
        assert_eq!(
            registry.states(),
            vec![(id_a, SessionState::Queued), (id_b, SessionState::Tuning)]
        );
        assert!(registry.get(id_a).is_some());
        assert!(registry.get(999).is_none());
        registry.remove(id_a);
        assert!(registry.get(id_a).is_none());
        let counts = registry.state_counts_json();
        assert_eq!(counts.get("tuning").and_then(Value::as_i64), Some(1));
        assert_eq!(counts.get("queued").and_then(Value::as_i64), Some(0));
    }

    /// A registry of `n` sessions, ids 1..=n, each terminal and delivered.
    fn delivered_registry(n: usize) -> SessionRegistry {
        let registry = SessionRegistry::new();
        let req = TuneRequest::from_json(&parse("{}").unwrap()).unwrap();
        for _ in 0..n {
            let handle = registry.create(req.clone());
            let mut s = handle.lock();
            s.state = SessionState::Done;
            s.delivered = true;
        }
        registry
    }

    #[test]
    fn retirement_takes_the_least_recently_requested_first() {
        let registry = delivered_registry(4);
        // Requests reorder the sessions: 3, then 1 are the freshest.
        registry.get(3);
        registry.get(1);
        assert_eq!(registry.retire_delivered(2), vec![2, 4]);
        let ids: Vec<u64> = registry.states().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3]);
        assert!(
            registry.retire_delivered(2).is_empty(),
            "nothing past the cap"
        );
    }

    #[test]
    fn undelivered_and_unfinished_sessions_are_never_retired() {
        let registry = SessionRegistry::new();
        let req = TuneRequest::from_json(&parse("{}").unwrap()).unwrap();
        // Finished, but nobody fetched the result.
        for _ in 0..3 {
            registry.create(req.clone()).lock().state = SessionState::Done;
        }
        // Fetched once, then sent back to a worker by a drift alarm.
        let retuning = registry.create(req.clone());
        {
            let mut s = retuning.lock();
            s.state = SessionState::Retuning;
            s.delivered = true;
        }
        // Marked delivered before it finished: the state alone keeps it.
        let queued = registry.create(req);
        queued.lock().delivered = true;
        assert!(registry.retire_delivered(0).is_empty());
        assert_eq!(registry.states().len(), 5);
        // Back to done, the re-tuned session is retire-able again.
        retuning.lock().state = SessionState::Done;
        assert_eq!(registry.retire_delivered(0), vec![4]);
    }

    #[test]
    fn at_most_the_retained_delivered_sessions_survive_retirement() {
        let registry = delivered_registry(RETAINED_SESSIONS + 5);
        let retired = registry.retire_delivered(RETAINED_SESSIONS);
        assert_eq!(retired, (1..=5).collect::<Vec<u64>>(), "oldest first");
        assert_eq!(registry.states().len(), RETAINED_SESSIONS);
        assert!(registry.get(1).is_none());
        assert!(registry.get(6).is_some());
    }

    #[test]
    fn sink_streams_progress_and_cancellation() {
        let registry = SessionRegistry::new();
        let req = TuneRequest::from_json(&parse("{}").unwrap()).unwrap();
        let handle = registry.create(req);
        let sink = handle.observer();
        sink.on_event(ProgressEvent::PromptBuilt { tokens: 123 });
        sink.on_event(ProgressEvent::ConfigSampled { index: 0, total: 5 });
        sink.on_event(ProgressEvent::RoundStarted {
            round: 1,
            timeout: lt_common::secs(10.0),
        });
        sink.on_event(ProgressEvent::Improvement {
            config_index: 2,
            point: TrajectoryPoint {
                opt_time: lt_common::secs(5.0),
                best_workload_time: lt_common::secs(50.0),
            },
        });
        {
            let s = handle.lock();
            assert_eq!(s.outcome.workload_tokens, Some(123));
            assert_eq!(s.outcome.samples_done, 1);
            assert_eq!(s.outcome.rounds_started, 1);
            assert_eq!(s.outcome.trajectory.len(), 1);
        }
        assert!(!sink.cancelled());
        handle.cancel();
        assert!(sink.cancelled());
    }

    #[test]
    fn status_and_config_documents_serialize() {
        let registry = SessionRegistry::new();
        let req = TuneRequest::from_json(&parse("{}").unwrap()).unwrap();
        let handle = registry.create(req);
        {
            let mut s = handle.lock();
            assert!(s.config_json().is_none(), "no config before completion");
            s.state = SessionState::Done;
            s.outcome.best_script = Some("SET work_mem = '1GB';".into());
            s.outcome.best_time = Some(25.0);
            s.outcome.default_time = Some(100.0);
            s.outcome.tuning_time = Some(300.0);
        }
        let s = handle.lock();
        let status = s.status_json();
        assert_eq!(status.get("state").and_then(Value::as_str), Some("done"));
        let config = s.config_json().unwrap();
        assert_eq!(
            config.get("scaled_cost").and_then(Value::as_f64),
            Some(0.25)
        );
        assert!(config
            .get("script")
            .and_then(Value::as_str)
            .unwrap()
            .contains("work_mem"));
    }
}
