//! Edge-case suite for the durable session log: torn tails, duplicate
//! records, compaction equivalence, and cold starts. These drive the pure
//! replay/compaction layer and [`SessionLog`] directly; end-to-end crash
//! recovery through the HTTP service is `crash-bench`'s job.

use lambda_tune::TrajectoryPoint;
use lt_common::json;
use lt_common::json::Value;
use lt_common::secs;
use lt_serve::wal::{compact_records, replay, restore, Outcome, Replay, SessionLog, SessionRecord};
use lt_serve::{SessionRegistry, SessionState};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lt_wal_test_{}_{}_{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn outcome(script: &str, best: f64) -> Outcome {
    Outcome {
        best_script: Some(script.to_string()),
        best_time: Some(best),
        default_time: Some(best * 2.0),
        tuning_time: Some(1.5),
        workload_tokens: Some(420),
        samples_done: 4,
        rounds_started: 2,
        prompt: format!("prompt for {script}"),
        trajectory: vec![point(0.5, best * 2.0), point(1.5, best)],
    }
}

fn point(opt_time: f64, best_workload_time: f64) -> TrajectoryPoint {
    TrajectoryPoint {
        opt_time: secs(opt_time),
        best_workload_time: secs(best_workload_time),
    }
}

fn created(id: u64) -> SessionRecord {
    SessionRecord::Created {
        id,
        tenant: "default".to_string(),
        request: json!({ "benchmark": "tpch-sf1", "seed": id as i64, "num_configs": 2 }),
    }
}

fn transition(id: u64, state: SessionState) -> SessionRecord {
    SessionRecord::Transition {
        id,
        state,
        error: None,
    }
}

/// Collapses a replay into a comparable form.
fn summarize(r: &Replay) -> Vec<String> {
    r.sessions.iter().map(|s| format!("{s:?}")).collect()
}

/// A representative history: two completed sessions (one with feeds and a
/// finished re-tune), one failed, one removed after admission, one still
/// queued.
fn scenario() -> Vec<SessionRecord> {
    vec![
        created(1),
        transition(1, SessionState::Tuning),
        SessionRecord::Done {
            id: 1,
            retunes: 0,
            outcome: outcome("SET shared_buffers = '4GB';", 10.0),
        },
        created(2),
        transition(2, SessionState::Tuning),
        SessionRecord::Feed {
            id: 1,
            sqls: vec!["SELECT 1".to_string(), "SELECT 2".to_string()],
        },
        transition(1, SessionState::Retuning),
        SessionRecord::Done {
            id: 1,
            retunes: 1,
            outcome: outcome("SET work_mem = '64MB';", 8.0),
        },
        SessionRecord::Transition {
            id: 2,
            state: SessionState::Failed,
            error: Some("llm refused".to_string()),
        },
        created(3),
        SessionRecord::Removed { id: 3 },
        created(4),
    ]
}

#[test]
fn records_round_trip_through_json() {
    for record in scenario() {
        let doc = record.to_json();
        let back = SessionRecord::from_json(&doc).expect("round-trip");
        assert_eq!(record, back, "through {}", doc.to_string_pretty());
    }
}

#[test]
fn cold_start_missing_and_empty_log() {
    // Directory does not exist yet: open creates it and starts empty.
    let dir = fresh_dir("missing");
    let (log, records) = SessionLog::open(&dir).expect("open missing");
    assert!(records.is_empty());
    assert_eq!(log.records_in_file(), 0);
    drop(log);

    // A zero-byte log file (crash before the magic was written).
    let dir = fresh_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("sessions.wal"), b"").unwrap();
    let (_log, records) = SessionLog::open(&dir).expect("open empty");
    assert!(records.is_empty());
}

#[test]
fn appended_records_survive_reopen() {
    let dir = fresh_dir("reopen");
    let (log, records) = SessionLog::open(&dir).expect("open");
    assert!(records.is_empty());
    let written = scenario();
    for record in &written {
        log.append_sync(record);
    }
    assert_eq!(log.records_in_file(), written.len() as u64);
    drop(log);

    // Open always rewrites a compaction snapshot, so the reopened log is
    // the compacted history — replay-equivalent to what was appended.
    let (_log, records) = SessionLog::open(&dir).expect("reopen");
    assert_eq!(records, compact_records(&written));
    assert_eq!(summarize(&replay(&records)), summarize(&replay(&written)));
}

#[test]
fn torn_final_record_is_truncated_on_open() {
    let dir = fresh_dir("torn");
    let (log, _) = SessionLog::open(&dir).expect("open");
    let written = scenario();
    for record in &written {
        log.append_sync(record);
    }
    drop(log);

    // A crash mid-append leaves a frame header promising more bytes than
    // the file holds.
    let path = dir.join("sessions.wal");
    let clean_len = std::fs::metadata(&path).unwrap().len();
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&1024u32.to_le_bytes()).unwrap();
        f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
        f.write_all(b"partial record").unwrap();
    }
    assert!(std::fs::metadata(&path).unwrap().len() > clean_len);

    // Open truncates the tail, keeps every whole record (modulo the
    // compaction snapshot), and rewrites the file clean so the next
    // append does not land after garbage.
    let (log, records) = SessionLog::open(&dir).expect("reopen torn");
    assert_eq!(records, compact_records(&written));
    let compacted = records.len();
    log.append_sync(&created(9));
    drop(log);
    let (_log, records) = SessionLog::open(&dir).expect("reopen appended");
    assert_eq!(records.len(), compacted + 1);
    assert_eq!(records[records.len() - 1], created(9));
}

#[test]
fn corrupt_middle_record_drops_the_rest() {
    let dir = fresh_dir("corrupt");
    let (log, _) = SessionLog::open(&dir).expect("open");
    for record in scenario() {
        log.append_sync(&record);
    }
    drop(log);

    let path = dir.join("sessions.wal");
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    // The frame layer keeps exactly the records before the damaged one…
    let written = scenario();
    let surviving: Vec<SessionRecord> = lt_common::wal::read_log(&path)
        .expect("read corrupt")
        .records
        .iter()
        .filter_map(|p| {
            SessionRecord::from_json(&lt_common::json::parse(std::str::from_utf8(p).ok()?).ok()?)
        })
        .collect();
    assert!(
        !surviving.is_empty() && surviving.len() < written.len(),
        "corruption must drop a strict suffix, kept {}",
        surviving.len()
    );
    assert_eq!(surviving[..], written[..surviving.len()]);

    // …and the session log opens to the compacted form of that prefix.
    let (_log, records) = SessionLog::open(&dir).expect("reopen corrupt");
    assert_eq!(records, compact_records(&surviving));
}

#[test]
fn duplicate_and_illegal_transitions_are_idempotent() {
    let final_outcome = outcome("SET x = 1;", 5.0);
    let records = vec![
        created(7),
        // A crash between the batched `tuning` append and the fsynced
        // terminal record can replay `tuning` twice on the next run.
        transition(7, SessionState::Tuning),
        transition(7, SessionState::Tuning),
        SessionRecord::Done {
            id: 7,
            retunes: 0,
            outcome: final_outcome.clone(),
        },
        // Stale duplicates after completion must not regress the state or
        // double-apply the tune.
        transition(7, SessionState::Tuning),
        SessionRecord::Done {
            id: 7,
            retunes: 0,
            outcome: outcome("SET x = 2;", 4.0),
        },
        // A second `created` for a live id keeps the first.
        created(7),
    ];
    let replayed = replay(&records);
    assert_eq!(replayed.sessions.len(), 1);
    let s = &replayed.sessions[0];
    assert_eq!(s.state, SessionState::Done);
    assert!(!s.retuning_pending);
    assert_eq!(s.ops.len(), 1, "duplicate done must not re-apply");
    match &s.ops[0] {
        lt_serve::wal::ReplayOp::Complete { retunes, outcome } => {
            assert_eq!(*retunes, 0);
            assert_eq!(*outcome, final_outcome);
        }
        other => panic!("expected a completion, got {other:?}"),
    }
}

#[test]
fn interrupted_retune_is_flagged_exactly_once() {
    let records = vec![
        created(5),
        transition(5, SessionState::Tuning),
        SessionRecord::Done {
            id: 5,
            retunes: 0,
            outcome: outcome("SET a = 1;", 9.0),
        },
        transition(5, SessionState::Retuning),
        transition(5, SessionState::Retuning),
    ];
    let replayed = replay(&records);
    let s = &replayed.sessions[0];
    assert!(s.retuning_pending, "unfinished re-tune must be re-queued");
    assert_eq!(s.ops.len(), 1);

    // Once the re-tune's own `done` lands, the flag clears and the second
    // completion is applied exactly once.
    let mut finished = records;
    finished.push(SessionRecord::Done {
        id: 5,
        retunes: 1,
        outcome: outcome("SET a = 2;", 7.0),
    });
    let replayed = replay(&finished);
    let s = &replayed.sessions[0];
    assert!(!s.retuning_pending);
    assert_eq!(s.state, SessionState::Done);
    assert_eq!(s.ops.len(), 2);
}

#[test]
fn compaction_preserves_replay() {
    let records = scenario();
    let compacted = compact_records(&records);
    assert!(
        compacted.len() < records.len(),
        "compaction must drop something from {} records",
        records.len()
    );
    assert_eq!(summarize(&replay(&compacted)), summarize(&replay(&records)));

    // The removed session is gone.
    assert!(!compacted.iter().any(|r| r.id() == 3));
}

#[test]
fn compaction_snapshot_plus_tail_replays_like_the_full_log() {
    let records = scenario();
    // A running compaction can snapshot at any record boundary; whatever
    // arrives afterwards is an ordinary tail. Every split point must fold
    // to the same state as the uncompacted history.
    let want = summarize(&replay(&records));
    for split in 0..=records.len() {
        let mut log = compact_records(&records[..split]);
        log.extend_from_slice(&records[split..]);
        assert_eq!(
            summarize(&replay(&log)),
            want,
            "split at record {split} diverged"
        );
    }
}

#[test]
fn compaction_is_idempotent() {
    let records = scenario();
    let once = compact_records(&records);
    let twice = compact_records(&once);
    assert_eq!(once, twice);
}

/// A log from before the fleet cache was rebuilt from `done` records: the
/// worker also logged each cold tune's cache entry as a `fleet` record.
/// Those records no longer decode, so every session recovers from its own
/// records, and the compaction on open leaves no `fleet` record behind.
#[test]
fn a_log_with_fleet_records_recovers_every_session_and_drops_them() {
    let dir = fresh_dir("fleet-records");
    std::fs::create_dir_all(&dir).unwrap();
    let fleet = json!({
        "type": "fleet",
        "key": json!({
            "catalog": "470a8c3c2bd1e12b",
            "backend": "eb3a1bd1c6deb20b",
            "dbms": "postgres",
            "memory_bytes": "0000000f40000000",
            "cores": 8,
            "profile": "835151b3f5cd2aff",
            "options": "f0c9abef4bdd4fc9",
            "initial_config": "2b44b1b4e2ab206b",
        }),
        "entry": json!({
            "config_scripts": vec!["SET shared_buffers = '4GB';".to_string()],
            "best_index": 0,
            "best_time_s": 10.0,
            "trajectory": Value::Array(Vec::new()),
            "llm_calls": 1,
            "llm_prompt_tokens": 900,
            "llm_completion_tokens": 120,
            "workload_tokens": 420,
            "rounds": 2,
            "tuning_time_s": 1.5,
            "prompt": "prompt",
            "default_time_s": 20.0,
        }),
    });
    let docs = [
        created(1).to_json(),
        fleet,
        SessionRecord::Done {
            id: 1,
            retunes: 0,
            outcome: outcome("SET shared_buffers = '4GB';", 10.0),
        }
        .to_json(),
        created(2).to_json(),
    ];
    let path = dir.join("sessions.wal");
    lt_common::wal::rewrite_log(
        &path,
        docs.iter().map(|d| d.to_string_pretty().into_bytes()),
        false,
    )
    .unwrap();

    let (log, records) = SessionLog::open(&dir).expect("open");
    assert_eq!(records.len(), 3, "the fleet record is skipped");
    let registry = SessionRegistry::new();
    let stats = restore(&registry, None, replay(&records));
    assert_eq!(stats.sessions, 2);
    assert_eq!(stats.fleet, 1, "the done record refills the cache");
    assert_eq!(
        registry.states(),
        vec![(1, SessionState::Done), (2, SessionState::Queued)]
    );
    let restored = registry.get(1).unwrap();
    assert_eq!(
        restored.lock().outcome,
        outcome("SET shared_buffers = '4GB';", 10.0)
    );
    drop(log);

    let types: Vec<String> = lt_common::wal::read_log(&path)
        .unwrap()
        .records
        .iter()
        .map(|p| {
            let doc = json::parse(std::str::from_utf8(p).unwrap()).unwrap();
            doc.get("type").and_then(Value::as_str).unwrap().to_string()
        })
        .collect();
    assert_eq!(types, ["created", "done", "created"]);
}
