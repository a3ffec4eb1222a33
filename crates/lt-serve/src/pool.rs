//! The worker pool: a bounded, tenant-fair job queue feeding a fixed set of
//! tuning threads.
//!
//! Accept threads never run the pipeline — they parse the request, register
//! a session and hand it to the pool. The bounded queue is the admission
//! control: a full queue surfaces as HTTP 429 at the server layer rather
//! than unbounded memory growth here. Closing the queue is the shutdown
//! signal; workers drain whatever was already queued and exit, so a graceful
//! shutdown never abandons an accepted session.
//!
//! Pickup is **deficit-round-robin across tenants**, not global FIFO: each
//! tenant gets its own FIFO, and workers take one job per tenant per round.
//! Every job costs one quantum (a session tune), so the classic DRR deficit
//! counter degenerates to plain rotation — but the fairness property is the
//! full one: a tenant submitting 10× faster than another cannot delay the
//! slow tenant's next job by more than one round. Tie-breaks are
//! deterministic: tenants join the rotation in first-arrival order and keep
//! their slot until their queue drains.

use crate::cache::{FleetCache, FleetKey};
use crate::session::{ServingState, SessionHandle, SessionState, TuneRequest};
use crate::wal::{Outcome, SessionRecord};
use lambda_tune::LambdaTune;
use lt_common::{derive_seed, obs, LtError, Secs};
use lt_dbms::{Configuration, TuningTarget};
use lt_drift::{
    delta_prompt, retune, DriftMonitor, LabeledProfile, Profile, RetuneOptions, TuneMemory,
    WorkloadDelta,
};
use lt_llm::{LlmClient, SimulatedLlm};
use lt_workloads::Workload;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One unit of worker-pool work.
#[derive(Debug)]
enum Job {
    /// Run a freshly queued session end to end.
    Tune(SessionHandle),
    /// Warm-start re-tune a session that a drift alarm moved to
    /// [`SessionState::Retuning`].
    Retune(SessionHandle),
}

impl Job {
    fn tenant(&self) -> String {
        let handle = match self {
            Job::Tune(s) | Job::Retune(s) => s,
        };
        handle.lock().tenant.clone()
    }
}

/// Bounded multi-tenant job queue with deficit-round-robin pickup.
///
/// Per-tenant FIFOs keyed in a `BTreeMap` (deterministic iteration), plus a
/// rotation list of tenants that currently have work. `pop` serves the front
/// tenant one job and moves it to the back of the rotation; a tenant whose
/// FIFO drains leaves the rotation and re-enters at the back on its next
/// submission. Total occupancy is bounded by `depth` across all tenants.
#[derive(Debug)]
struct JobQueue {
    inner: Mutex<QueueInner>,
    available: Condvar,
    depth: usize,
}

#[derive(Debug)]
struct QueueInner {
    queues: BTreeMap<String, VecDeque<Job>>,
    rotation: VecDeque<String>,
    len: usize,
    closed: bool,
}

impl JobQueue {
    fn new(depth: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                queues: BTreeMap::new(),
                rotation: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            available: Condvar::new(),
            depth,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Non-blocking bounded push; the admission-control edge.
    fn push(&self, job: Job) -> Result<(), SubmitError> {
        let tenant = job.tenant();
        let mut inner = self.lock();
        if inner.closed {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.len >= self.depth {
            return Err(SubmitError::QueueFull);
        }
        let fifo = inner.queues.entry(tenant.clone()).or_default();
        let was_empty = fifo.is_empty();
        fifo.push_back(job);
        inner.len += 1;
        if was_empty {
            inner.rotation.push_back(tenant);
        }
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Pops the next job in DRR order, blocking until there is one.
    /// Returns `None` only when the queue is closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.lock();
        while inner.len == 0 {
            if inner.closed {
                return None;
            }
            inner = match self.available.wait(inner) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        let tenant = inner.rotation.pop_front().expect("rotation tracks len");
        let fifo = inner.queues.get_mut(&tenant).expect("rotation has queue");
        let job = fifo.pop_front().expect("rotation queues are non-empty");
        let drained = fifo.is_empty();
        inner.len -= 1;
        if drained {
            inner.queues.remove(&tenant);
        } else {
            inner.rotation.push_back(tenant);
        }
        Some(job)
    }

    /// Stops accepting work; waiters wake and drain what remains.
    fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }
}

/// A fixed-size pool of tuning workers behind a bounded tenant-fair queue.
#[derive(Debug)]
pub struct WorkerPool {
    queue: Arc<JobQueue>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — the client should retry later (429).
    QueueFull,
    /// The pool is shutting down — no new work is accepted (503).
    ShuttingDown,
}

impl WorkerPool {
    /// Starts `workers` tuning threads behind a queue of depth `queue_depth`.
    pub fn start(workers: usize, queue_depth: usize) -> WorkerPool {
        let queue = Arc::new(JobQueue::new(queue_depth.max(1)));
        let handles = (0..workers.max(1))
            .map(|i| {
                let queue = queue.clone();
                std::thread::Builder::new()
                    .name(format!("lt-serve-worker-{i}"))
                    .spawn(move || {
                        // `None` means closed and drained: shutdown.
                        while let Some(job) = queue.pop() {
                            match job {
                                Job::Tune(session) => run_session(&session),
                                Job::Retune(session) => run_retune(&session),
                            }
                        }
                    })
                    .expect("spawn lt-serve worker")
            })
            .collect();
        WorkerPool {
            queue,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueues a session without blocking.
    pub fn submit(&self, session: SessionHandle) -> Result<(), SubmitError> {
        self.enqueue(Job::Tune(session))
    }

    /// Enqueues a warm-start re-tune for a session already in
    /// [`SessionState::Retuning`], without blocking.
    pub fn submit_retune(&self, session: SessionHandle) -> Result<(), SubmitError> {
        self.enqueue(Job::Retune(session))
    }

    fn enqueue(&self, job: Job) -> Result<(), SubmitError> {
        self.queue.push(job)
    }

    /// Graceful shutdown: stops accepting work, lets the workers drain the
    /// queue and joins them. Idempotent.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = match self.workers.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Total workload time under the database's *current* configuration with no
/// cap (the denominator of the scaled cost reported by `/config`).
fn measure_default(db: &mut dyn TuningTarget, workload: &Workload) -> Secs {
    let mut total = Secs::ZERO;
    for wq in &workload.queries {
        total += db.execute(&wq.parsed, Secs::INFINITY).time;
    }
    total
}

/// Runs one session end to end on the calling worker thread. Never panics:
/// the pipeline is wrapped in `catch_unwind`, so the worst a poisoned
/// request can do is fail its own session.
pub fn run_session(session: &SessionHandle) {
    // A cancel that raced the queue wins without spending any work.
    let id;
    {
        let mut s = session.lock();
        id = s.id;
        if session.cancel_requested() && s.state == SessionState::Queued {
            s.state = SessionState::Cancelled;
            obs::counter("serve.sessions_cancelled", 1);
            session.log_sync(&SessionRecord::Transition {
                id,
                state: SessionState::Cancelled,
                error: None,
            });
            drop(s);
            session.notify_change();
            return;
        }
        if s.state != SessionState::Queued {
            return;
        }
        s.state = SessionState::Tuning;
        // Batched, not fsynced: losing this record only means recovery
        // re-queues from `created`, which is the same outcome.
        session.log(&SessionRecord::Transition {
            id,
            state: SessionState::Tuning,
            error: None,
        });
    }
    session.notify_change();
    obs::counter("serve.sessions_started", 1);

    let request = session.lock().request.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| tune_session(session)));

    let mut s = session.lock();
    match outcome {
        Ok(Ok(cancelled)) => {
            if cancelled {
                s.state = SessionState::Cancelled;
                obs::counter("serve.sessions_cancelled", 1);
                session.log_sync(&SessionRecord::Transition {
                    id,
                    state: SessionState::Cancelled,
                    error: None,
                });
            } else {
                s.state = SessionState::Done;
                obs::counter("serve.sessions_done", 1);
                session.log_sync(&SessionRecord::Done {
                    id,
                    retunes: s.drift.retunes,
                    outcome: s.outcome.clone(),
                });
            }
        }
        Ok(Err(err)) => {
            s.state = SessionState::Failed;
            s.error = Some(err.to_string());
            obs::counter("serve.sessions_failed", 1);
            session.log_sync(&SessionRecord::Transition {
                id,
                state: SessionState::Failed,
                error: s.error.clone(),
            });
        }
        Err(panic) => {
            let what = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("unknown panic");
            s.state = SessionState::Failed;
            s.error = Some(format!(
                "worker panicked while tuning seed {}: {what}",
                request.seed
            ));
            obs::counter("serve.sessions_failed", 1);
            obs::counter("serve.worker_panics", 1);
            session.log_sync(&SessionRecord::Transition {
                id,
                state: SessionState::Failed,
                error: s.error.clone(),
            });
        }
    }
    drop(s);
    session.notify_change();
}

/// The fallible part of a session: validates any initial configuration,
/// consults the fleet tuning cache and — on a miss — builds the per-session
/// database, measures the default workload time and runs the pipeline (an
/// exact hit serves the cached run, including its default measurement).
/// Returns `Ok(true)` when the run was cancelled mid-flight.
fn tune_session(session: &SessionHandle) -> lt_common::Result<bool> {
    let request = session.lock().request.clone();
    let workload = request.benchmark.load();
    let initial_config = match &request.initial_config {
        Some(script) => {
            let config = Configuration::parse(script, request.dbms, &workload.catalog);
            if config.is_empty() && !config.warnings.is_empty() {
                return Err(LtError::Config(format!(
                    "initial_config has no valid statements: {}",
                    config.warnings.join("; ")
                )));
            }
            Some(config)
        }
        None => None,
    };

    let fleet = FleetCache::global();
    let key = FleetKey::for_request(&request, &workload);
    if let Some(cached) = fleet.lookup(&key) {
        // The cold run's result; the progress counters stay the session's
        // own, since a hit samples and evaluates nothing.
        let serving = cached
            .best_script
            .as_deref()
            .map(|script| build_serving(&request, &workload, script));
        let mut s = session.lock();
        s.outcome = Outcome {
            samples_done: s.outcome.samples_done,
            rounds_started: s.outcome.rounds_started,
            workload_tokens: s.outcome.workload_tokens,
            ..Outcome::clone(&cached)
        };
        s.serving = serving;
        return Ok(false);
    }

    let mut db = request.backend.open(
        request.dbms,
        workload.catalog.clone(),
        request.hardware,
        request.seed,
    );
    if let Some(config) = &initial_config {
        db.apply_knobs(config);
        for spec in config.index_specs() {
            db.create_index(spec);
        }
    }
    // Denominator of the scaled cost: the workload under the *default*
    // configuration, on a fresh database with the same seed (the tuning
    // database must not see these executions in its plan cache timeline).
    let mut default_db = request.backend.open(
        request.dbms,
        workload.catalog.clone(),
        request.hardware,
        request.seed,
    );
    let default_time = measure_default(default_db.as_mut(), &workload);
    session.lock().outcome.default_time = Some(default_time.as_f64());

    let tuner =
        LambdaTune::new(request.options).with_observer(std::sync::Arc::new(session.observer()));
    let llm = LlmClient::new(SimulatedLlm::new());
    let result = tuner.tune(db.as_mut(), &workload, &llm)?;

    let best_script = result
        .best_config
        .as_ref()
        .map(|c| c.to_script(request.dbms, db.catalog()));
    // A completed session keeps serving; see [`build_serving`].
    let serving = match &best_script {
        Some(script) if !result.cancelled => Some(build_serving(&request, &workload, script)),
        _ => None,
    };

    let mut s = session.lock();
    s.outcome.best_script = best_script;
    s.outcome.best_time = Some(result.best_time.as_f64());
    s.outcome.tuning_time = Some(result.tuning_time.as_f64());
    s.outcome.trajectory = result.trajectory;
    if serving.is_some() {
        s.outcome.prompt = result.prompt;
    }
    s.serving = serving;
    if !result.cancelled {
        // The `done` record written next is the durable copy: recovery
        // refills the cache from it.
        fleet.insert(key, s.outcome.clone());
    }
    Ok(result.cancelled)
}

/// Builds the serving state of a completed tune of `workload` (the
/// request's benchmark, loaded): a fresh database with the winning script
/// applied (derived serving seed — a configuration change is a restart, so
/// the plan cache starts cold) and a drift monitor referenced on the tuned
/// workload. This is the *single* construction path — the worker and
/// write-ahead-log recovery both call it, which is what makes a recovered
/// session's serving database byte-identical to an uninterrupted one's.
pub(crate) fn build_serving(
    request: &TuneRequest,
    workload: &Workload,
    best_script: &str,
) -> ServingState {
    let mut db = request.backend.open(
        request.dbms,
        workload.catalog.clone(),
        request.hardware,
        derive_seed(request.seed, 500),
    );
    let config = Configuration::parse(best_script, request.dbms, db.catalog());
    db.apply_knobs(&config);
    for spec in config.index_specs() {
        db.create_index(spec);
    }
    let reference = Profile::from_workload(db.catalog(), workload);
    ServingState {
        monitor: DriftMonitor::with_reference(request.drift.clone(), reference),
        db,
        recent: Vec::new(),
    }
}

/// Adopts a re-tune's winner on a live serving state: applies the script to
/// the serving database and rebases the drift monitor on the observed
/// workload so the regime the session just adapted to stops counting as
/// drift. Shared by [`warm_retune`] and write-ahead-log recovery (same
/// determinism argument as [`build_serving`]).
pub(crate) fn adopt_retune(
    serving: &mut ServingState,
    request: &TuneRequest,
    script: &str,
    workload: &Workload,
) {
    let config = Configuration::parse(script, request.dbms, serving.db.catalog());
    serving.db.apply_knobs(&config);
    for spec in config.index_specs() {
        serving.db.create_index(spec);
    }
    serving
        .monitor
        .rebase(Profile::from_workload(serving.db.catalog(), workload));
}

/// Runs one warm-start re-tune on the calling worker thread. The session
/// was already moved to [`SessionState::Retuning`] by the feed handler;
/// whatever happens here — success, pipeline error, panic — the session
/// ends back in `Done` (errors are advisory, recorded in the drift
/// status), except a client cancellation, which wins as usual.
pub fn run_retune(session: &SessionHandle) {
    let id = {
        let s = session.lock();
        if s.state != SessionState::Retuning {
            return;
        }
        s.id
    };
    obs::counter("serve.retunes_started", 1);
    let outcome = catch_unwind(AssertUnwindSafe(|| retune_session(session)));
    let mut s = session.lock();
    match outcome {
        Ok(Ok(true)) => {
            s.state = SessionState::Cancelled;
            obs::counter("serve.sessions_cancelled", 1);
            session.log_sync(&SessionRecord::Transition {
                id,
                state: SessionState::Cancelled,
                error: None,
            });
        }
        Ok(Ok(false)) => {
            s.state = SessionState::Done;
            obs::counter("serve.retunes_done", 1);
            // `retunes` was already incremented by the adopt; the record's
            // counter is what makes replay idempotent.
            session.log_sync(&SessionRecord::Done {
                id,
                retunes: s.drift.retunes,
                outcome: s.outcome.clone(),
            });
        }
        Ok(Err(err)) => {
            s.state = SessionState::Done;
            s.drift.last_error = Some(err.to_string());
            obs::counter("serve.retunes_failed", 1);
            session.log_sync(&SessionRecord::Transition {
                id,
                state: SessionState::Done,
                error: s.drift.last_error.clone(),
            });
        }
        Err(panic) => {
            let what = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("unknown panic");
            s.state = SessionState::Done;
            s.drift.last_error = Some(format!("re-tune worker panicked: {what}"));
            obs::counter("serve.retunes_failed", 1);
            obs::counter("serve.worker_panics", 1);
            session.log_sync(&SessionRecord::Transition {
                id,
                state: SessionState::Done,
                error: s.drift.last_error.clone(),
            });
        }
    }
    drop(s);
    session.notify_change();
}

/// The fallible part of a re-tune. Takes the serving state out of the
/// session for the duration (feeds observe 409 meanwhile) and always puts
/// it back — on failure the session keeps serving under the old
/// configuration. Returns `Ok(true)` when the run was cancelled.
fn retune_session(session: &SessionHandle) -> lt_common::Result<bool> {
    let (request, mut serving, memory, retunes) = {
        let mut s = session.lock();
        let serving = s.serving.take().ok_or_else(|| {
            LtError::Tuning("session has no serving state to re-tune".to_string())
        })?;
        // A serving session always has a winner: it was built from it.
        let memory = TuneMemory {
            prompt: s.outcome.prompt.clone(),
            best_script: s.outcome.best_script.clone().unwrap_or_default(),
            options: s.request.options,
        };
        (s.request.clone(), serving, memory, s.drift.retunes)
    };
    let outcome = warm_retune(session, &request, &mut serving, &memory, retunes);
    session.lock().serving = Some(serving);
    outcome
}

fn warm_retune(
    session: &SessionHandle,
    request: &TuneRequest,
    serving: &mut ServingState,
    memory: &TuneMemory,
    retunes: u64,
) -> lt_common::Result<bool> {
    if serving.recent.is_empty() {
        return Err(LtError::Tuning(
            "no observed queries to re-tune against".to_string(),
        ));
    }
    let workload = serving.observed_workload()?;
    let llm = LlmClient::new(SimulatedLlm::new());
    let sink = std::sync::Arc::new(session.observer());
    // Drift-aware prompt: compare the benchmark the session was tuned for
    // against what it actually served and, when something structural
    // moved, re-tune from a delta prompt (token-bounded by the memory
    // prompt) instead of replaying the stale reference prompt blind.
    let reference_workload = request.benchmark.load();
    let reference = LabeledProfile::from_workload(serving.db.catalog(), &reference_workload);
    let current = LabeledProfile::from_workload(serving.db.catalog(), &workload);
    let delta = WorkloadDelta::between(&reference, &current);
    let delta_text = if delta.is_empty() {
        None
    } else {
        obs::counter("serve.delta_retunes", 1);
        Some(delta_prompt(&memory.prompt, &delta))
    };
    // Each re-tune gets its own derived seed; the budget always scales
    // from the session's *original* options, so repeated re-tunes do not
    // shrink geometrically toward a single candidate.
    let result = retune(
        serving.db.as_mut(),
        &workload,
        &llm,
        memory,
        &RetuneOptions {
            seed: Some(derive_seed(request.seed, 1000 + retunes)),
            delta: delta_text,
        },
        Some(sink),
    )?;
    if result.cancelled {
        return Ok(true);
    }
    let best = result
        .best_config
        .as_ref()
        .ok_or_else(|| LtError::Tuning("re-tune found no configuration".to_string()))?;
    let script = best.to_script(request.dbms, serving.db.catalog());
    adopt_retune(serving, request, &script, &workload);
    let mut s = session.lock();
    s.outcome.best_script = Some(script);
    s.outcome.best_time = Some(result.best_time.as_f64());
    s.outcome.prompt = result.prompt;
    if let Some(t) = s.outcome.tuning_time.as_mut() {
        *t += result.tuning_time.as_f64();
    }
    s.drift.retunes += 1;
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionRegistry, TuneRequest};
    use lt_common::json::parse;

    fn quick_request(extra: &str) -> TuneRequest {
        let body = format!(r#"{{"benchmark": "tpch", "num_configs": 2{extra}}}"#);
        TuneRequest::from_json(&parse(&body).unwrap()).unwrap()
    }

    #[test]
    fn runs_a_session_to_done_with_a_config() {
        let registry = SessionRegistry::new();
        // A seed no other test uses: the fleet cache is process-global, and
        // this test asserts on sampling progress a replayed hit skips.
        let handle = registry.create(quick_request(r#", "seed": 9001"#));
        run_session(&handle);
        let s = handle.lock();
        assert_eq!(s.state, SessionState::Done, "error: {:?}", s.error);
        assert!(s.outcome.best_script.is_some());
        assert!(s.outcome.default_time.unwrap() > 0.0);
        assert!(s.outcome.best_time.unwrap() > 0.0);
        assert!(s.outcome.samples_done >= 2);
        let config = s.config_json().unwrap();
        assert!(config.get("scaled_cost").is_some());
    }

    #[test]
    fn pool_processes_jobs_and_drains_on_shutdown() {
        let registry = SessionRegistry::new();
        let pool = WorkerPool::start(2, 8);
        let handles: Vec<_> = (0..4)
            .map(|i| registry.create(quick_request(&format!(r#", "seed": {i}"#))))
            .collect();
        for h in &handles {
            pool.submit(h.clone()).unwrap();
        }
        pool.shutdown(); // joins only after the queue is drained
        for h in &handles {
            let s = h.lock();
            assert_eq!(s.state, SessionState::Done, "error: {:?}", s.error);
        }
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let registry = SessionRegistry::new();
        let pool = WorkerPool::start(1, 1);
        pool.shutdown();
        let err = pool.submit(registry.create(quick_request(""))).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
    }

    #[test]
    fn cancelled_before_start_never_tunes() {
        let registry = SessionRegistry::new();
        let handle = registry.create(quick_request(""));
        handle.cancel();
        run_session(&handle);
        let s = handle.lock();
        assert_eq!(s.state, SessionState::Cancelled);
        assert_eq!(s.outcome.samples_done, 0);
    }

    #[test]
    fn done_session_keeps_serving_state_with_warm_memory() {
        let registry = SessionRegistry::new();
        let handle = registry.create(quick_request(""));
        run_session(&handle);
        let s = handle.lock();
        assert_eq!(s.state, SessionState::Done, "error: {:?}", s.error);
        let serving = s
            .serving
            .as_ref()
            .expect("done session keeps serving state");
        // The warm memory of a re-tune: the winner and the prompt.
        assert!(s.outcome.best_script.is_some());
        assert!(!s.outcome.prompt.is_empty());
        assert_eq!(serving.monitor.observed(), 0);
    }

    #[test]
    fn retune_returns_the_session_to_done_with_a_new_winner() {
        let registry = SessionRegistry::new();
        let handle = registry.create(quick_request(""));
        run_session(&handle);
        let cold = handle.lock().outcome.clone();
        {
            let mut s = handle.lock();
            assert_eq!(s.state, SessionState::Done, "error: {:?}", s.error);
            // Pretend the feed observed the back half of TPC-H.
            let w = lt_workloads::Benchmark::TpchSf1.load();
            let serving = s.serving.as_mut().unwrap();
            for q in w.queries.iter().skip(w.queries.len() / 2) {
                serving.push_recent(q.label.clone(), q.sql.clone());
            }
            s.state = SessionState::Retuning;
        }
        run_retune(&handle);
        let s = handle.lock();
        assert_eq!(s.state, SessionState::Done);
        assert_eq!(s.drift.retunes, 1, "error: {:?}", s.drift.last_error);
        assert!(s.drift.last_error.is_none());
        assert!(s.serving.is_some(), "serving survives a re-tune");
        // The outcome now carries the re-tune: its winner and prompt (the
        // next re-tune's warm memory) and its share of the tuning time.
        assert!(s.outcome.best_script.is_some());
        assert!(!s.outcome.prompt.is_empty());
        assert!(s.outcome.tuning_time > cold.tuning_time);
    }

    #[test]
    fn retune_failure_keeps_the_session_done_and_serving() {
        let registry = SessionRegistry::new();
        let handle = registry.create(quick_request(""));
        run_session(&handle);
        // No observed queries: the re-tune has nothing to tune against.
        handle.lock().state = SessionState::Retuning;
        run_retune(&handle);
        let s = handle.lock();
        assert_eq!(s.state, SessionState::Done);
        assert_eq!(s.drift.retunes, 0);
        assert!(s
            .drift
            .last_error
            .as_deref()
            .unwrap()
            .contains("no observed queries"));
        assert!(s.serving.is_some(), "old serving state survives a failure");
    }

    #[test]
    fn retune_is_a_noop_unless_the_session_is_retuning() {
        let registry = SessionRegistry::new();
        let handle = registry.create(quick_request(""));
        run_session(&handle);
        let before = handle.lock().outcome.clone();
        run_retune(&handle); // state is Done, not Retuning
        let s = handle.lock();
        assert_eq!(s.state, SessionState::Done);
        assert_eq!(s.outcome, before);
        assert_eq!(s.drift.retunes, 0);
    }

    #[test]
    fn fleet_cache_replays_a_session_byte_for_byte() {
        let registry = SessionRegistry::new();
        // A seed no other test uses: the fleet cache is process-global.
        let cold = registry.create(quick_request(r#", "seed": 9100"#));
        run_session(&cold);
        let hit = registry.create(quick_request(r#", "seed": 9100"#));
        run_session(&hit);
        let (c, h) = (cold.lock(), hit.lock());
        assert_eq!(h.state, SessionState::Done, "error: {:?}", h.error);
        // Session-local proof of the hit: the cold run sampled both
        // candidates and built a prompt, the hit did neither.
        assert_eq!(c.outcome.samples_done, 2);
        assert!(c.outcome.workload_tokens.is_some());
        assert_eq!(h.outcome.samples_done, 0);
        assert_eq!(h.outcome.workload_tokens, None);
        // The replay keeps serving too, with the cold run's warm memory.
        assert!(h.serving.is_some());
        let (c, h) = (&c.outcome, &h.outcome);
        assert_eq!(c.prompt, h.prompt);
        assert_eq!(c.best_script, h.best_script);
        assert_eq!(c.best_time, h.best_time);
        assert_eq!(c.default_time, h.default_time);
        assert_eq!(c.tuning_time, h.tuning_time);
        assert_eq!(c.trajectory, h.trajectory);
    }

    #[test]
    fn a_store_session_never_replays_a_sim_sessions_result() {
        let registry = SessionRegistry::new();
        // A seed no other test uses: the fleet cache is process-global.
        let sim = registry.create(quick_request(r#", "seed": 9150"#));
        run_session(&sim);
        let store = registry.create(quick_request(r#", "seed": 9150, "backend": "store""#));
        run_session(&store);
        let (sim, store) = (sim.lock(), store.lock());
        assert_eq!(sim.state, SessionState::Done, "error: {:?}", sim.error);
        assert_eq!(store.state, SessionState::Done, "error: {:?}", store.error);
        // A replayed hit samples nothing; a miss samples every candidate.
        assert_eq!(
            store.outcome.samples_done, 2,
            "the store session must tune, not replay"
        );
    }

    #[test]
    fn invalid_initial_config_fails_the_session_not_the_worker() {
        let registry = SessionRegistry::new();
        let handle = registry.create(quick_request(
            r#", "initial_config": "FROBNICATE THE DATABASE;""#,
        ));
        run_session(&handle);
        let s = handle.lock();
        assert_eq!(s.state, SessionState::Failed);
        assert!(s.error.as_deref().unwrap().contains("initial_config"));
    }

    #[test]
    fn partially_valid_initial_config_is_applied() {
        let registry = SessionRegistry::new();
        let handle = registry.create(quick_request(
            r#", "initial_config": "SET work_mem = '64MB'; FROBNICATE;""#,
        ));
        run_session(&handle);
        let s = handle.lock();
        assert_eq!(s.state, SessionState::Done, "error: {:?}", s.error);
    }

    fn tenant_job(registry: &SessionRegistry, tenant: &str, seed: i64) -> Job {
        let req = quick_request(&format!(r#", "seed": {seed}"#));
        let handle = registry
            .create_if_within_quota(req, tenant, usize::MAX)
            .unwrap();
        Job::Tune(handle)
    }

    fn pop_tenants(queue: &JobQueue, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| queue.pop().expect("a queued job").tenant())
            .collect()
    }

    /// Deficit-round-robin regression: tenant A floods the queue at 10×
    /// tenant B's rate; B's job must be served in the second slot, not
    /// the eleventh, and the interleave must be deterministic.
    #[test]
    fn drr_queue_is_tenant_fair_at_ten_to_one() {
        let registry = SessionRegistry::new();
        let queue = JobQueue::new(64);
        // A submits 10 jobs before B gets its single one in.
        for i in 0..10 {
            queue.push(tenant_job(&registry, "a", 9300 + i)).unwrap();
        }
        queue.push(tenant_job(&registry, "b", 9310)).unwrap();
        let order = pop_tenants(&queue, 11);
        assert_eq!(
            order,
            ["a", "b", "a", "a", "a", "a", "a", "a", "a", "a", "a"],
            "B waits exactly one round, never behind A's backlog"
        );
    }

    /// Tie-break determinism: tenants enter the rotation in first-arrival
    /// order and keep their slot until drained.
    #[test]
    fn drr_rotation_order_is_deterministic() {
        let registry = SessionRegistry::new();
        let queue = JobQueue::new(64);
        for (tenant, seed) in [
            ("c", 9320),
            ("c", 9321),
            ("a", 9322),
            ("b", 9323),
            ("a", 9324),
        ] {
            queue.push(tenant_job(&registry, tenant, seed)).unwrap();
        }
        assert_eq!(pop_tenants(&queue, 5), ["c", "a", "b", "c", "a"]);
    }

    /// The depth bound applies across tenants, and a closed queue still
    /// drains before reporting empty.
    #[test]
    fn drr_queue_bounds_and_drains() {
        let registry = SessionRegistry::new();
        let queue = JobQueue::new(2);
        queue.push(tenant_job(&registry, "a", 9350)).unwrap();
        queue.push(tenant_job(&registry, "b", 9351)).unwrap();
        let err = queue.push(tenant_job(&registry, "c", 9352)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        queue.close();
        let err = queue.push(tenant_job(&registry, "a", 9353)).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
        assert_eq!(pop_tenants(&queue, 2), ["a", "b"]);
        assert!(queue.pop().is_none());
    }
}
