//! Durable sessions: the write-ahead session log and crash recovery.
//!
//! Byte framing (length prefix + CRC-32 + fsync batching) lives in
//! [`lt_common::wal`]; this module defines what goes *into* the frames and
//! how the registry comes back from them.
//!
//! # Records
//!
//! Each frame payload is one JSON document with a `"type"` tag:
//!
//! | type         | written at                         | carries                         |
//! |--------------|------------------------------------|---------------------------------|
//! | `created`    | admission, before the 202 (fsync)  | id, tenant, full request        |
//! | `removed`    | pool rejection after `created`     | id                              |
//! | `transition` | state changes (terminal ⇒ fsync)   | id, state, optional error       |
//! | `done`       | (re-)tune completion (fsync)       | id, retune count, full outcome  |
//! | `feed`       | query feed, before the 200 (fsync) | id, the SQL batch               |
//!
//! Logs written before the fleet cache was rebuilt from `done` records
//! also hold `fleet` records; they no longer decode, so replay skips them
//! (`wal.records_skipped`) and the compaction on open drops them.
//!
//! # Recovery state machine
//!
//! [`replay`] folds the record stream into per-session histories;
//! [`restore`] turns each history back into a live [`Session`]:
//!
//! - `created` without a terminal record → restored as `Queued` and
//!   re-queued on the worker pool (the interrupted run re-executes with the
//!   same seed, so the determinism contract makes the winner byte-identical
//!   to the run the crash interrupted);
//! - `done` with a winner → fields restored from the snapshot, and the
//!   serving state rebuilt exactly the way the worker builds it: fresh
//!   seeded `SimDb`, winner script applied, drift monitor referenced on the
//!   tuned workload — then every logged `feed` re-executed in order; the
//!   first `done` record's outcome (`retunes: 0`) also refills the fleet
//!   cache ([`crate::cache`]) under the session's request key;
//! - a trailing `retuning` transition without its `done` → the serving
//!   state is restored and exactly one warm re-tune is re-queued (the
//!   `done` record's retune counter makes replay idempotent, so a re-tune
//!   that *did* complete is never run twice);
//! - `failed` / `cancelled` → restored terminally with their error.
//!
//! # Compaction
//!
//! The log is truncated by snapshotting: on open (and every
//! [`COMPACT_EVERY`] appends) the file is atomically rewritten with
//! only the records replay still needs — non-terminal transitions,
//! superseded advisory errors and removed sessions drop out; `done` and
//! `feed` records are retained because serving-database replay needs the
//! full feed history.

use crate::cache::{FleetCache, FleetKey};
use crate::pool::WorkerPool;
use crate::session::{SessionHandle, SessionRegistry, SessionState, TuneRequest};
use lambda_tune::TrajectoryPoint;
use lt_common::json::{parse, Value};
use lt_common::wal::{read_log, rewrite_log, LogWriter, Tail, WalOptions};
use lt_common::{json, obs, secs};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Records in the file beyond which an append takes a compaction snapshot.
const COMPACT_EVERY: u64 = 4096;

/// The one record of a finished tune or re-tune: the session holds it, the
/// `done` record snapshots it, and the fleet cache keeps the cold run's
/// copy. All fields are absolute, so replaying the *last* `done` record
/// alone reproduces the scalar state (the serving database still needs the
/// feed history).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Winning configuration script.
    pub best_script: Option<String>,
    /// Workload time under the winner, virtual seconds.
    pub best_time: Option<f64>,
    /// Workload time under the default configuration, virtual seconds
    /// (denominator of the scaled cost).
    pub default_time: Option<f64>,
    /// Cumulative virtual tuning time.
    pub tuning_time: Option<f64>,
    /// Prompt workload-description tokens (known after prompt build).
    pub workload_tokens: Option<usize>,
    /// LLM samples received.
    pub samples_done: usize,
    /// Selector rounds started.
    pub rounds_started: usize,
    /// The prompt of the latest (re-)tune whose winner the session serves
    /// (empty without one) — the warm-start memory of the next re-tune.
    pub prompt: String,
    /// Improvement trajectory, streamed from the selector as it happens.
    pub trajectory: Vec<TrajectoryPoint>,
}

/// One write-ahead-log record; see the module docs for the schema.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionRecord {
    /// Session admitted (logged before the 202 acknowledgement).
    Created {
        /// Registry-assigned id.
        id: u64,
        /// Submitting tenant.
        tenant: String,
        /// The request, in [`TuneRequest::to_wal_json`] form.
        request: Value,
    },
    /// Admission failed after `created` (pool queue full / shutting down);
    /// the client saw an error, so the session must not be resurrected.
    Removed {
        /// Id of the withdrawn session.
        id: u64,
    },
    /// A lifecycle transition that carries no outcome payload. A `done`
    /// state here is the *advisory* form: a failed re-tune returning the
    /// session to `Done` with `drift.last_error` set.
    Transition {
        /// Session id.
        id: u64,
        /// The state entered.
        state: SessionState,
        /// Failure detail (`failed`) or advisory re-tune error (`done`).
        error: Option<String>,
    },
    /// A (re-)tune completed; `retunes` is the session's completed-re-tune
    /// count *after* this record (0 = the initial tune).
    Done {
        /// Session id.
        id: u64,
        /// Completed re-tunes after this record.
        retunes: u64,
        /// Absolute outcome snapshot.
        outcome: Outcome,
    },
    /// A query feed batch that was executed and acknowledged.
    Feed {
        /// Session id.
        id: u64,
        /// The batch, in execution order.
        sqls: Vec<String>,
    },
}

impl Outcome {
    fn to_json(&self) -> Value {
        let trajectory: Vec<Value> = self
            .trajectory
            .iter()
            .map(|p| {
                json!({
                    "opt_time_s": p.opt_time.as_f64(),
                    "best_workload_time_s": p.best_workload_time.as_f64(),
                })
            })
            .collect();
        json!({
            "best_script": self.best_script.as_deref(),
            "best_time_s": self.best_time,
            "default_time_s": self.default_time,
            "tuning_time_s": self.tuning_time,
            "workload_tokens": self.workload_tokens,
            "samples_done": self.samples_done,
            "rounds_started": self.rounds_started,
            "prompt": self.prompt.as_str(),
            "trajectory": Value::Array(trajectory),
        })
    }

    fn from_json(doc: &Value) -> Option<Outcome> {
        let opt_f64 = |field: &str| match doc.get(field)? {
            Value::Null => Some(None),
            v => v.as_f64().map(Some),
        };
        let mut trajectory = Vec::new();
        for p in doc.get("trajectory")?.as_array()? {
            trajectory.push(TrajectoryPoint {
                opt_time: secs(p.get("opt_time_s")?.as_f64()?),
                best_workload_time: secs(p.get("best_workload_time_s")?.as_f64()?),
            });
        }
        Some(Outcome {
            best_script: match doc.get("best_script")? {
                Value::Null => None,
                v => Some(v.as_str()?.to_string()),
            },
            best_time: opt_f64("best_time_s")?,
            default_time: opt_f64("default_time_s")?,
            tuning_time: opt_f64("tuning_time_s")?,
            workload_tokens: match doc.get("workload_tokens")? {
                Value::Null => None,
                v => Some(usize::try_from(v.as_i64()?).ok()?),
            },
            samples_done: usize::try_from(doc.get("samples_done")?.as_i64()?).ok()?,
            rounds_started: usize::try_from(doc.get("rounds_started")?.as_i64()?).ok()?,
            prompt: doc.get("prompt")?.as_str()?.to_string(),
            trajectory,
        })
    }
}

impl SessionRecord {
    /// Serializes to the frame payload document.
    pub fn to_json(&self) -> Value {
        match self {
            SessionRecord::Created {
                id,
                tenant,
                request,
            } => json!({
                "type": "created",
                "id": *id as i64,
                "tenant": tenant.as_str(),
                "request": request.clone(),
            }),
            SessionRecord::Removed { id } => json!({ "type": "removed", "id": *id as i64 }),
            SessionRecord::Transition { id, state, error } => json!({
                "type": "transition",
                "id": *id as i64,
                "state": state.name(),
                "error": error.as_deref(),
            }),
            SessionRecord::Done {
                id,
                retunes,
                outcome,
            } => json!({
                "type": "done",
                "id": *id as i64,
                "retunes": *retunes as i64,
                "outcome": outcome.to_json(),
            }),
            SessionRecord::Feed { id, sqls } => json!({
                "type": "feed",
                "id": *id as i64,
                "sqls": sqls.clone(),
            }),
        }
    }

    /// Parses a frame payload document; `None` for anything malformed (a
    /// skipped record costs that record, never the log).
    pub fn from_json(doc: &Value) -> Option<SessionRecord> {
        let id = || u64::try_from(doc.get("id")?.as_i64()?).ok();
        Some(match doc.get("type")?.as_str()? {
            "created" => SessionRecord::Created {
                id: id()?,
                tenant: doc.get("tenant")?.as_str()?.to_string(),
                request: doc.get("request")?.clone(),
            },
            "removed" => SessionRecord::Removed { id: id()? },
            "transition" => SessionRecord::Transition {
                id: id()?,
                state: SessionState::parse(doc.get("state")?.as_str()?)?,
                error: match doc.get("error")? {
                    Value::Null => None,
                    v => Some(v.as_str()?.to_string()),
                },
            },
            "done" => SessionRecord::Done {
                id: id()?,
                retunes: u64::try_from(doc.get("retunes")?.as_i64()?).ok()?,
                outcome: Outcome::from_json(doc.get("outcome")?)?,
            },
            "feed" => SessionRecord::Feed {
                id: id()?,
                sqls: doc
                    .get("sqls")?
                    .as_array()?
                    .iter()
                    .map(|v| v.as_str().map(str::to_string))
                    .collect::<Option<_>>()?,
            },
            _ => None?,
        })
    }

    fn payload(&self) -> Vec<u8> {
        self.to_json().to_string_pretty().into_bytes()
    }

    /// The session id the record belongs to.
    pub fn id(&self) -> u64 {
        match self {
            SessionRecord::Created { id, .. }
            | SessionRecord::Removed { id }
            | SessionRecord::Transition { id, .. }
            | SessionRecord::Done { id, .. }
            | SessionRecord::Feed { id, .. } => *id,
        }
    }
}

/// Decodes raw frame payloads into records, counting (not failing on)
/// undecodable ones.
fn decode_records(payloads: &[Vec<u8>]) -> Vec<SessionRecord> {
    let mut records = Vec::with_capacity(payloads.len());
    let mut skipped = 0u64;
    for payload in payloads {
        let decoded = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| parse(text).ok())
            .and_then(|doc| SessionRecord::from_json(&doc));
        match decoded {
            Some(record) => records.push(record),
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        obs::counter("wal.records_skipped", skipped);
    }
    records
}

/// Drops every record replay no longer needs, preserving order:
///
/// - all records of sessions that were `removed`,
/// - non-terminal `transition`s (`tuning`), and `retuning` transitions
///   superseded by a later `done`,
/// - advisory-error transitions other than the last one per session.
///
/// `replay(compact_records(r))` and `replay(r)` restore identical state —
/// the property the WAL edge-case suite pins down.
pub fn compact_records(records: &[SessionRecord]) -> Vec<SessionRecord> {
    use std::collections::{HashMap, HashSet};
    let mut removed: HashSet<u64> = HashSet::new();
    // Per session: index of the done record that supersedes retuning
    // transitions before it, and of the last advisory transition.
    let mut last_done: HashMap<u64, usize> = HashMap::new();
    let mut last_advisory: HashMap<u64, usize> = HashMap::new();
    for (i, record) in records.iter().enumerate() {
        match record {
            SessionRecord::Removed { id } => {
                removed.insert(*id);
            }
            SessionRecord::Done { id, .. } => {
                last_done.insert(*id, i);
            }
            SessionRecord::Transition {
                id,
                state: SessionState::Done,
                ..
            } => {
                last_advisory.insert(*id, i);
            }
            _ => {}
        }
    }
    let mut out = Vec::with_capacity(records.len());
    for (i, record) in records.iter().enumerate() {
        if removed.contains(&record.id()) {
            continue;
        }
        let keep = match record {
            SessionRecord::Removed { .. } => false,
            SessionRecord::Transition { id, state, .. } => match state {
                SessionState::Tuning | SessionState::Queued => false,
                SessionState::Retuning => last_done.get(id).is_none_or(|&d| d < i),
                SessionState::Done => last_advisory.get(id) == Some(&i),
                SessionState::Failed | SessionState::Cancelled => true,
            },
            _ => true,
        };
        if keep {
            out.push(record.clone());
        }
    }
    out
}

/// One session's folded history after [`replay`].
#[derive(Debug)]
pub struct ReplaySession {
    /// Session id.
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// The logged request document.
    pub request: Value,
    /// Final logged state.
    pub state: SessionState,
    /// Failure detail, for `failed`.
    pub error: Option<String>,
    /// Advisory re-tune error, if the last one was not superseded.
    pub last_error: Option<String>,
    /// True when the log ends with an unfinished re-tune: the serving
    /// state must be restored *and* exactly one warm re-tune re-queued.
    pub retuning_pending: bool,
    /// Completions and feeds, in log order.
    pub ops: Vec<ReplayOp>,
}

/// An operation that must be re-applied to rebuild session state.
#[derive(Debug)]
pub enum ReplayOp {
    /// A (re-)tune completion snapshot.
    Complete {
        /// Re-tune counter of the record (0 = initial tune).
        retunes: u64,
        /// The snapshot.
        outcome: Outcome,
    },
    /// An acknowledged feed batch to re-execute on the serving database.
    Feed {
        /// The batch, in execution order.
        sqls: Vec<String>,
    },
}

/// The full replayed log: per-session histories.
#[derive(Debug, Default)]
pub struct Replay {
    /// Sessions by ascending id.
    pub sessions: Vec<ReplaySession>,
}

/// Folds a record stream into recovery state. Pure — no registry, no I/O —
/// so the edge-case suite can drive it directly. Tolerates duplicate
/// records: repeated `created`s keep the first, repeated transitions are
/// idempotent, and a `done` only applies when its re-tune counter is the
/// next one the session expects.
pub fn replay(records: &[SessionRecord]) -> Replay {
    let mut sessions: BTreeMap<u64, ReplaySession> = BTreeMap::new();
    for record in records {
        match record {
            SessionRecord::Created {
                id,
                tenant,
                request,
            } => {
                sessions.entry(*id).or_insert_with(|| ReplaySession {
                    id: *id,
                    tenant: tenant.clone(),
                    request: request.clone(),
                    state: SessionState::Queued,
                    error: None,
                    last_error: None,
                    retuning_pending: false,
                    ops: Vec::new(),
                });
            }
            SessionRecord::Removed { id } => {
                sessions.remove(id);
            }
            SessionRecord::Transition { id, state, error } => {
                let Some(s) = sessions.get_mut(id) else {
                    continue;
                };
                match state {
                    SessionState::Queued => {}
                    SessionState::Tuning => {
                        // Only meaningful from the queue; ignore echoes.
                        if matches!(s.state, SessionState::Queued | SessionState::Tuning) {
                            s.state = SessionState::Tuning;
                        }
                    }
                    SessionState::Retuning => {
                        if s.state == SessionState::Done {
                            s.state = SessionState::Retuning;
                            s.retuning_pending = true;
                        }
                    }
                    SessionState::Done => {
                        // Advisory: a re-tune failed (or was withdrawn);
                        // the session is serving again under its old winner.
                        s.state = SessionState::Done;
                        s.retuning_pending = false;
                        s.last_error = error.clone();
                    }
                    SessionState::Failed => {
                        s.state = SessionState::Failed;
                        s.error = error.clone();
                        s.retuning_pending = false;
                    }
                    SessionState::Cancelled => {
                        s.state = SessionState::Cancelled;
                        s.retuning_pending = false;
                    }
                }
            }
            SessionRecord::Done {
                id,
                retunes,
                outcome,
            } => {
                let Some(s) = sessions.get_mut(id) else {
                    continue;
                };
                let completions = s
                    .ops
                    .iter()
                    .filter(|op| matches!(op, ReplayOp::Complete { .. }))
                    .count() as u64;
                // Idempotency: apply only the completion the session
                // expects next; duplicates (same counter again) are noise.
                if *retunes == completions {
                    s.ops.push(ReplayOp::Complete {
                        retunes: *retunes,
                        outcome: outcome.clone(),
                    });
                }
                s.state = SessionState::Done;
                s.retuning_pending = false;
            }
            SessionRecord::Feed { id, sqls } => {
                if let Some(s) = sessions.get_mut(id) {
                    s.ops.push(ReplayOp::Feed { sqls: sqls.clone() });
                }
            }
        }
    }
    Replay {
        sessions: sessions.into_values().collect(),
    }
}

/// What [`restore`] did, for the startup log line and `/metrics`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RestoreStats {
    /// Sessions restored into the registry.
    pub sessions: usize,
    /// Interrupted sessions re-queued for a fresh run.
    pub requeued: usize,
    /// Unfinished re-tunes re-queued.
    pub retunes_requeued: usize,
    /// Fleet-cache entries refilled from first `done` records.
    pub fleet: usize,
    /// Histories skipped because their request or payload no longer parses.
    pub skipped: usize,
}

/// Rebuilds the registry (and the global fleet cache) from a replayed log,
/// re-queuing interrupted work on `pool` when one is given.
pub fn restore(
    registry: &SessionRegistry,
    pool: Option<&WorkerPool>,
    replay: Replay,
) -> RestoreStats {
    let mut stats = RestoreStats::default();
    for rs in replay.sessions {
        let Ok(request) = TuneRequest::from_json(&rs.request) else {
            stats.skipped += 1;
            obs::counter("wal.sessions_skipped", 1);
            continue;
        };
        let handle = registry.restore_handle(rs.id, &rs.tenant, request.clone());
        if restore_session(&handle, &request, &rs) {
            stats.fleet += 1;
        }
        stats.sessions += 1;
        match rs.state {
            SessionState::Queued | SessionState::Tuning => {
                handle.lock().state = SessionState::Queued;
                if let Some(pool) = pool {
                    if pool.submit(handle.clone()).is_ok() {
                        stats.requeued += 1;
                    } else {
                        obs::counter("wal.requeue_failed", 1);
                    }
                }
            }
            SessionState::Retuning if rs.retuning_pending => {
                if let Some(pool) = pool {
                    if pool.submit_retune(handle.clone()).is_ok() {
                        stats.retunes_requeued += 1;
                    } else {
                        obs::counter("wal.requeue_failed", 1);
                    }
                }
            }
            _ => {}
        }
    }
    stats
}

/// Applies one replayed history to a freshly restored session: outcome
/// snapshots rebuild scalar state and the serving database; feeds
/// re-execute on it in order. The first tune's outcome goes back into the
/// fleet cache, as the worker published it; returns whether there was one.
fn restore_session(handle: &SessionHandle, request: &TuneRequest, rs: &ReplaySession) -> bool {
    let mut s = handle.lock();
    let mut refilled = false;
    for op in &rs.ops {
        match op {
            ReplayOp::Complete { retunes, outcome } => {
                s.outcome = outcome.clone();
                if *retunes == 0 {
                    let workload = request.benchmark.load();
                    let key = FleetKey::for_request(request, &workload);
                    FleetCache::global().insert(key, outcome.clone());
                    refilled = true;
                    if let Some(script) = &outcome.best_script {
                        s.serving = Some(crate::pool::build_serving(request, &workload, script));
                    }
                } else if let (Some(serving), Some(script)) =
                    (s.serving.as_mut(), outcome.best_script.as_deref())
                {
                    // Re-adopt the re-tune's winner exactly the way the
                    // worker did: the observed workload is the recent-query
                    // window as it stood then, which the replayed feeds
                    // have just rebuilt.
                    if let Ok(workload) = serving.observed_workload() {
                        crate::pool::adopt_retune(serving, request, script, &workload);
                        s.drift.retunes = *retunes;
                    } else {
                        obs::counter("wal.retune_replay_failed", 1);
                    }
                }
            }
            ReplayOp::Feed { sqls } => {
                let Some(serving) = s.serving.as_mut() else {
                    obs::counter("wal.feed_skipped", 1);
                    continue;
                };
                match serving.feed_workload(sqls) {
                    Ok(workload) => {
                        let events = serving.observe_queries(&workload);
                        let now_observed = serving.monitor.observed();
                        s.drift.queries_observed = now_observed;
                        s.drift.events.extend(events);
                    }
                    Err(_) => obs::counter("wal.feed_skipped", 1),
                }
            }
        }
    }
    s.state = rs.state;
    s.error = rs.error.clone();
    s.drift.last_error = rs.last_error.clone();
    refilled
}

#[derive(Debug)]
struct LogState {
    writer: LogWriter,
    records_in_file: u64,
}

/// The durable session log: a [`LogWriter`] under a mutex, plus the path
/// and options compaction reopens it with. One per server; handles carry
/// it as an `Arc`.
#[derive(Debug)]
pub struct SessionLog {
    inner: Mutex<LogState>,
    path: PathBuf,
    opts: WalOptions,
}

impl SessionLog {
    /// Opens (or creates) `dir/sessions.wal`, replays what is there, takes
    /// a compaction snapshot — which also truncates any torn tail — and
    /// returns the log plus the replayed records for [`restore`].
    pub fn open(dir: &Path) -> io::Result<(SessionLog, Vec<SessionRecord>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("sessions.wal");
        let read = read_log(&path)?;
        match read.tail {
            Tail::Clean => {}
            Tail::Torn { dropped } | Tail::Corrupt { dropped } => {
                obs::counter("wal.tail_dropped_bytes", dropped);
                eprintln!(
                    "lt-serve: dropping {dropped} trailing bytes of {} ({})",
                    path.display(),
                    match read.tail {
                        Tail::Torn { .. } => "torn write",
                        _ => "checksum failure",
                    },
                );
            }
        }
        let records = decode_records(&read.records);
        let compacted = compact_records(&records);
        let opts = WalOptions::from_env();
        // Startup snapshot: rewrite unconditionally so a torn tail is gone
        // from disk before the writer appends after it.
        rewrite_log(&path, compacted.iter().map(|r| r.payload()), opts.sync)?;
        let writer = LogWriter::open(&path, opts.clone())?;
        let log = SessionLog {
            inner: Mutex::new(LogState {
                writer,
                records_in_file: compacted.len() as u64,
            }),
            path,
            opts,
        };
        Ok((log, compacted))
    }

    /// Appends a record, batched-fsync.
    pub fn append(&self, record: &SessionRecord) {
        self.write(record, false);
    }

    /// Appends a record and fsyncs before returning.
    pub fn append_sync(&self, record: &SessionRecord) {
        self.write(record, true);
    }

    fn write(&self, record: &SessionRecord, sync: bool) {
        let payload = record.payload();
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let result = if sync {
            g.writer.append_sync(&payload)
        } else {
            g.writer.append(&payload)
        };
        match result {
            Ok(()) => {
                obs::counter("wal.records_appended", 1);
                g.records_in_file += 1;
            }
            Err(err) => {
                obs::counter("wal.append_errors", 1);
                eprintln!("lt-serve: wal append failed: {err}");
            }
        }
        if g.records_in_file > COMPACT_EVERY {
            if let Err(err) = self.compact_locked(&mut g) {
                obs::counter("wal.compact_errors", 1);
                eprintln!("lt-serve: wal compaction failed: {err}");
            }
        }
    }

    /// Rewrites the file with only the records replay still needs and
    /// reopens the writer. Runs under the writer lock, so appends queue
    /// behind it; the snapshot is atomic (write-temp + rename).
    fn compact_locked(&self, g: &mut LogState) -> io::Result<()> {
        g.writer.sync()?; // buffered frames must reach the file first
        let read = read_log(&self.path)?;
        let compacted = compact_records(&decode_records(&read.records));
        rewrite_log(
            &self.path,
            compacted.iter().map(|r| r.payload()),
            self.opts.sync,
        )?;
        g.writer = LogWriter::open(&self.path, self.opts.clone())?;
        g.records_in_file = compacted.len() as u64;
        obs::counter("wal.compactions", 1);
        Ok(())
    }

    /// Records currently in the file (including the snapshot prefix).
    pub fn records_in_file(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .records_in_file
    }

    /// Flushes and fsyncs any batched records.
    pub fn sync(&self) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Err(err) = g.writer.sync() {
            obs::counter("wal.append_errors", 1);
            eprintln!("lt-serve: wal sync failed: {err}");
        }
    }
}
