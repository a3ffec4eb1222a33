//! `crash-bench`: deterministic crash-injection harness for the durable
//! session log.
//!
//! ```text
//! crash-bench          # full matrix: every record-prefix kill point,
//!                      # corruption cases, live child kill points;
//!                      # writes results/BENCH_crash.json
//! crash-bench --smoke  # reduced scenario, run by the CI determinism
//!                      # gate; writes results/BENCH_crash.smoke.json
//! ```
//!
//! Three layers of injection, strongest guarantee first:
//!
//! 1. **Prefix enumeration** — a baseline run records a known scenario
//!    (plain sessions plus one auto-re-tune session driven through a drift
//!    alarm); then for *every* `n`, a fresh server recovers from only the
//!    first `n` log records. A prefix is exactly what a crash between two
//!    fsyncs leaves behind, so this enumerates every kill point once
//!    without racing a real process.
//! 2. **Corruption** — the full log with a torn half-frame appended, and
//!    with a byte flipped mid-file: recovery must truncate to the valid
//!    prefix and satisfy the same invariants.
//! 3. **Live child** — the real `lt-serve` binary with `LT_WAL_CRASH_AT=n`
//!    aborts itself mid-scenario; a clean restart must recover every
//!    session the client had an acknowledgement for. The run fails if
//!    `lt-serve` is not next to `crash-bench`.
//!
//! Invariants checked at every kill point: no acknowledged session is
//! lost, every recovered session reaches the same terminal state, winners
//! are byte-identical to the uninterrupted baseline, and re-tunes are
//! never duplicated. Exit status is nonzero on the first violation. The
//! results file holds only deterministic fields (ids, fingerprints,
//! virtual times — no ports, paths or wall-clock durations), so the CI
//! determinism gate diffs it across thread counts.

use lt_common::json::{parse, Value};
use lt_common::wal::{read_log, WalOptions};
use lt_common::{hash_one, json};
use lt_serve::cache::FleetCache;
use lt_serve::http::request;
use lt_serve::{start, ServerConfig, ServerHandle};
use lt_synth::{predicate_templates, Phase};
use lt_workloads::Benchmark;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Seed base for the harness's sessions; chosen to collide with no other
/// test or benchmark (the fleet cache is process-global).
const SEED_BASE: u64 = 7300;
/// Seed of the auto-re-tune session.
const RETUNE_SEED: u64 = 7350;

fn fail(why: &str) -> ! {
    eprintln!("crash-bench FAILED: {why}");
    std::process::exit(1);
}

fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lt_crash_{}_{}_{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(&format!("mkdir {dir:?}: {e}")));
    dir
}

fn feed_body(sqls: &[String]) -> String {
    let queries: Vec<Value> = sqls.iter().map(|s| Value::String(s.clone())).collect();
    Value::Object(vec![("queries".to_string(), Value::Array(queries))]).to_string_pretty()
}

fn plain_body(i: usize) -> String {
    format!(r#"{{"seed": {}, "num_configs": 2}}"#, SEED_BASE + i as u64)
}

fn retune_body() -> String {
    format!(
        r#"{{"seed": {RETUNE_SEED}, "num_configs": 2, "auto_retune": true,
            "drift": {{"window": 16, "stride": 4, "confirm": 2, "cooldown": 32}}}}"#
    )
}

/// The two feed batches of the scenario: the tuned workload (must not
/// alarm), then the post-shift predicate templates repeated (must alarm).
fn feeds() -> (Vec<String>, Vec<String>) {
    let tpch: Vec<String> = Benchmark::TpchSf1
        .load()
        .queries
        .iter()
        .map(|q| q.sql.clone())
        .collect();
    let templates: Vec<String> = predicate_templates(Phase::After)
        .into_iter()
        .map(|(_, sql)| sql)
        .collect();
    let shifted: Vec<String> = std::iter::repeat_with(|| templates.clone())
        .take(16)
        .flatten()
        .collect();
    (tpch, shifted)
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Value) {
    match request(addr, "GET", path, None) {
        Ok((status, body)) => (
            status,
            parse(&body).unwrap_or_else(|e| fail(&format!("GET {path}: bad JSON: {e}"))),
        ),
        Err(e) => fail(&format!("GET {path}: {e}")),
    }
}

fn wait_terminal(addr: SocketAddr, id: i64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, doc) = get_json(addr, &format!("/sessions/{id}"));
        if status != 200 {
            fail(&format!("session {id} vanished: {status}"));
        }
        let state = doc
            .get("state")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        if matches!(state.as_str(), "done" | "failed" | "cancelled") {
            return state;
        }
        if Instant::now() > deadline {
            fail(&format!("session {id} stuck in {state}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Waits until the session is `done` with at least `want` completed
/// re-tunes (a re-tuning session is not terminal yet).
fn wait_retunes(addr: SocketAddr, id: i64, want: i64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, doc) = get_json(addr, &format!("/sessions/{id}"));
        let state = doc.get("state").and_then(Value::as_str).unwrap_or_default();
        let retunes = doc
            .get("drift")
            .and_then(|d| d.get("retunes"))
            .and_then(Value::as_i64)
            .unwrap_or(0);
        if state == "done" && retunes >= want {
            return;
        }
        if Instant::now() > deadline {
            fail(&format!("session {id}: {state} with {retunes} re-tunes"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A session's deterministic outcome: winner fingerprint + virtual times.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    state: String,
    fingerprint: Option<String>,
    best_time: Option<f64>,
    retunes: i64,
}

fn snapshot(addr: SocketAddr, id: i64) -> Snapshot {
    let (_, status_doc) = get_json(addr, &format!("/sessions/{id}"));
    let state = status_doc
        .get("state")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let retunes = status_doc
        .get("drift")
        .and_then(|d| d.get("retunes"))
        .and_then(Value::as_i64)
        .unwrap_or(0);
    let (config_status, config) = get_json(addr, &format!("/sessions/{id}/config"));
    let (fingerprint, best_time) = if config_status == 200 {
        (
            config
                .get("script")
                .and_then(Value::as_str)
                .map(|s| format!("{:016x}", hash_one(s))),
            config.get("best_time_s").and_then(Value::as_f64),
        )
    } else {
        (None, None)
    };
    Snapshot {
        state,
        fingerprint,
        best_time,
        retunes,
    }
}

struct Baseline {
    /// Raw frame payloads of the completed run, in append order.
    payloads: Vec<Vec<u8>>,
    /// Ids of the plain sessions, submission order.
    plain_ids: Vec<i64>,
    /// Id of the auto-re-tune session.
    retune_id: i64,
    /// Final outcome per plain session.
    plain: Vec<Snapshot>,
    /// The re-tune session before the drift feed (0 re-tunes)…
    retune_initial: Snapshot,
    /// …and after the re-tune completed.
    retune_final: Snapshot,
}

fn wal_server(dir: &Path) -> ServerHandle {
    FleetCache::global().clear();
    start(ServerConfig {
        workers: 1,
        wal_dir: Some(dir.display().to_string()),
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| fail(&format!("cannot start server: {e}")))
}

fn submit(addr: SocketAddr, body: &str) -> i64 {
    let (status, response) = request(addr, "POST", "/sessions", Some(body))
        .unwrap_or_else(|e| fail(&format!("submit: {e}")));
    if status != 202 {
        fail(&format!("submit answered {status}: {response}"));
    }
    parse(&response)
        .ok()
        .and_then(|d| d.get("id")?.as_i64())
        .unwrap_or_else(|| fail("202 without an id"))
}

/// Runs the scenario uninterrupted and captures everything the kill-point
/// runs will be compared against.
fn run_baseline(plain_sessions: usize) -> Baseline {
    let dir = fresh_dir("baseline");
    let mut server = wal_server(&dir);
    let addr = server.addr();

    let mut plain_ids = Vec::new();
    let mut plain = Vec::new();
    for i in 0..plain_sessions {
        let id = submit(addr, &plain_body(i));
        if wait_terminal(addr, id) != "done" {
            fail(&format!("baseline plain session {id} did not finish done"));
        }
        plain_ids.push(id);
        plain.push(snapshot(addr, id));
    }

    let retune_id = submit(addr, &retune_body());
    if wait_terminal(addr, retune_id) != "done" {
        fail("baseline re-tune session did not finish done");
    }
    let retune_initial = snapshot(addr, retune_id);

    let (tpch, shifted) = feeds();
    let path = format!("/sessions/{retune_id}/queries");
    let (status, response) = request(addr, "POST", &path, Some(&feed_body(&tpch)))
        .unwrap_or_else(|e| fail(&format!("feed: {e}")));
    if status != 200 {
        fail(&format!(
            "in-distribution feed answered {status}: {response}"
        ));
    }
    let (status, response) = request(addr, "POST", &path, Some(&feed_body(&shifted)))
        .unwrap_or_else(|e| fail(&format!("feed: {e}")));
    if status != 200 {
        fail(&format!("shifted feed answered {status}: {response}"));
    }
    let retune_kicked = parse(&response)
        .ok()
        .and_then(|d| d.get("retune")?.as_bool())
        .unwrap_or(false);
    if !retune_kicked {
        fail("shifted feed did not trigger the auto-re-tune");
    }
    wait_retunes(addr, retune_id, 1);
    let retune_final = snapshot(addr, retune_id);
    server.shutdown();

    let read = read_log(&dir.join("sessions.wal"))
        .unwrap_or_else(|e| fail(&format!("read baseline log: {e}")));
    if !matches!(read.tail, lt_common::wal::Tail::Clean) {
        fail("baseline log has a dirty tail");
    }
    let _ = std::fs::remove_dir_all(&dir);
    Baseline {
        payloads: read.records,
        plain_ids,
        retune_id,
        plain,
        retune_initial,
        retune_final,
    }
}

/// What a record prefix promises per session, decoded from the records
/// themselves: a session with a `retuning` transition (or a completed
/// re-tune) in the prefix must recover to the post-re-tune outcome; one
/// with only its `created` must re-run to the initial outcome.
struct Expectation {
    ids: Vec<i64>,
    retune_expected_final: bool,
}

fn expectation(baseline: &Baseline, payloads: &[Vec<u8>]) -> Expectation {
    let mut ids = Vec::new();
    let mut retune_expected_final = false;
    for payload in payloads {
        let Ok(doc) = parse(std::str::from_utf8(payload).unwrap_or_default()) else {
            continue;
        };
        let id = doc.get("id").and_then(Value::as_i64).unwrap_or(-1);
        match doc.get("type").and_then(Value::as_str) {
            Some("created") if !ids.contains(&id) => ids.push(id),
            Some("removed") => ids.retain(|&k| k != id),
            Some("transition")
                if id == baseline.retune_id
                    && doc.get("state").and_then(Value::as_str) == Some("retuning") =>
            {
                retune_expected_final = true;
            }
            Some("done")
                if id == baseline.retune_id
                    && doc.get("retunes").and_then(Value::as_i64).unwrap_or(0) >= 1 =>
            {
                retune_expected_final = true;
            }
            _ => {}
        }
    }
    Expectation {
        ids,
        retune_expected_final,
    }
}

/// Starts a server over `dir`, waits for every expected session, and
/// checks the recovery invariants against the baseline.
fn recover_and_check(dir: &Path, baseline: &Baseline, expect: &Expectation, what: &str) {
    let mut server = wal_server(dir);
    let addr = server.addr();
    for &id in &expect.ids {
        let state = wait_terminal(addr, id);
        let got = snapshot(addr, id);
        if let Some(i) = baseline.plain_ids.iter().position(|&p| p == id) {
            let want = &baseline.plain[i];
            if state != "done" || got != *want {
                fail(&format!(
                    "{what}: plain session {id} recovered to {got:?}, baseline {want:?}"
                ));
            }
        } else if id == baseline.retune_id {
            let want = if expect.retune_expected_final {
                &baseline.retune_final
            } else {
                &baseline.retune_initial
            };
            if got.retunes > baseline.retune_final.retunes {
                fail(&format!(
                    "{what}: re-tune duplicated — session {id} has {} re-tunes",
                    got.retunes
                ));
            }
            if state != "done" || got != *want {
                fail(&format!(
                    "{what}: re-tune session {id} recovered to {got:?}, expected {want:?}"
                ));
            }
        } else {
            fail(&format!("{what}: unexpected session {id} in the log"));
        }
    }
    // No resurrections either: the registry holds exactly the expected ids.
    let (_, listing) = get_json(addr, "/sessions");
    let listed = listing
        .get("sessions")
        .and_then(Value::as_array)
        .map(|s| s.len())
        .unwrap_or(0);
    if listed != expect.ids.len() {
        fail(&format!(
            "{what}: {listed} sessions recovered, expected {}",
            expect.ids.len()
        ));
    }
    server.shutdown();
}

/// Writes the first `n` baseline records into a fresh directory as the
/// crash artifact and checks recovery from it.
fn check_prefix(baseline: &Baseline, n: usize) {
    let dir = fresh_dir("prefix");
    lt_common::wal::rewrite_log(
        &dir.join("sessions.wal"),
        baseline.payloads.iter().take(n),
        false,
    )
    .unwrap_or_else(|e| fail(&format!("write prefix {n}: {e}")));
    let expect = expectation(baseline, &baseline.payloads[..n]);
    recover_and_check(&dir, baseline, &expect, &format!("prefix {n}"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption cases: a torn half-frame appended to the full log, and a
/// byte flipped mid-file. Both must truncate to the surviving prefix and
/// recover it.
fn check_corruption(baseline: &Baseline) {
    use std::io::Write;
    // Torn tail: a frame header promising 64 bytes with 7 behind it.
    let dir = fresh_dir("torn");
    let path = dir.join("sessions.wal");
    lt_common::wal::rewrite_log(&path, baseline.payloads.iter(), false)
        .unwrap_or_else(|e| fail(&format!("write torn-case log: {e}")));
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| fail(&format!("open torn-case log: {e}")));
        f.write_all(&64u32.to_le_bytes()).unwrap();
        f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
        f.write_all(b"torn...").unwrap();
    }
    let expect = expectation(baseline, &baseline.payloads);
    recover_and_check(&dir, baseline, &expect, "torn tail");
    let _ = std::fs::remove_dir_all(&dir);

    // Byte flip at 60% of the file: everything from the damaged frame on
    // is dropped, so the invariants are those of the surviving prefix.
    let dir = fresh_dir("flip");
    let path = dir.join("sessions.wal");
    lt_common::wal::rewrite_log(&path, baseline.payloads.iter(), false)
        .unwrap_or_else(|e| fail(&format!("write flip-case log: {e}")));
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() * 3 / 5;
    bytes[at] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let surviving = read_log(&path)
        .unwrap_or_else(|e| fail(&format!("read flipped log: {e}")))
        .records;
    if surviving.len() >= baseline.payloads.len() {
        fail("byte flip did not damage the log");
    }
    let expect = expectation(baseline, &surviving);
    recover_and_check(&dir, baseline, &expect, "byte flip");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives the scenario against a live child `lt-serve` that will abort
/// itself at the `kill_at`-th record append. Connection errors are the
/// crash being observed — the driver stops and moves to recovery.
fn drive_live(addr: SocketAddr, plain_sessions: usize) -> Vec<i64> {
    let mut acked = Vec::new();
    for i in 0..plain_sessions {
        match request(addr, "POST", "/sessions", Some(&plain_body(i))) {
            Ok((202, response)) => {
                if let Some(id) = parse(&response).ok().and_then(|d| d.get("id")?.as_i64()) {
                    acked.push(id);
                }
            }
            _ => return acked,
        }
        if !poll_live(addr, *acked.last().unwrap()) {
            return acked;
        }
    }
    let retune_id = match request(addr, "POST", "/sessions", Some(&retune_body())) {
        Ok((202, response)) => match parse(&response).ok().and_then(|d| d.get("id")?.as_i64()) {
            Some(id) => {
                acked.push(id);
                id
            }
            None => return acked,
        },
        _ => return acked,
    };
    if !poll_live(addr, retune_id) {
        return acked;
    }
    let (tpch, shifted) = feeds();
    let path = format!("/sessions/{retune_id}/queries");
    for batch in [&tpch, &shifted] {
        match request(addr, "POST", &path, Some(&feed_body(batch))) {
            Ok((200, _)) => {}
            _ => return acked,
        }
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while Instant::now() < deadline {
        match request(addr, "GET", &format!("/sessions/{retune_id}"), None) {
            Ok((200, body)) => {
                let done = parse(&body).ok().is_some_and(|d| {
                    d.get("state").and_then(Value::as_str) == Some("done")
                        && d.get("drift")
                            .and_then(|dr| dr.get("retunes"))
                            .and_then(Value::as_i64)
                            .unwrap_or(0)
                            >= 1
                });
                if done {
                    return acked;
                }
            }
            _ => return acked,
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    acked
}

/// Polls a live session to a terminal state; `false` means the server died
/// (which is the expected way most live runs end).
fn poll_live(addr: SocketAddr, id: i64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(120);
    while Instant::now() < deadline {
        match request(addr, "GET", &format!("/sessions/{id}"), None) {
            Ok((200, body)) => {
                let state = parse(&body)
                    .ok()
                    .and_then(|d| Some(d.get("state")?.as_str()?.to_string()))
                    .unwrap_or_default();
                if matches!(state.as_str(), "done" | "failed" | "cancelled") {
                    return true;
                }
            }
            _ => return false,
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

fn spawn_server(bin: &Path, dir: &Path, kill_at: Option<u64>) -> (Child, SocketAddr) {
    let mut cmd = Command::new(bin);
    cmd.args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .arg("--wal-dir")
        .arg(dir)
        .stderr(Stdio::null());
    match kill_at {
        Some(n) => cmd
            .env("LT_WAL_CRASH_AT", n.to_string())
            .env("LT_WAL_SYNC_EVERY", "1"),
        None => cmd.env_remove("LT_WAL_CRASH_AT"),
    };
    lt_serve::fleet::spawn_announced(cmd).unwrap_or_else(|e| fail(&format!("spawn {bin:?}: {e}")))
}

/// One live kill point: run the scenario against a self-aborting child,
/// then restart cleanly (in-process) and verify every acknowledged session
/// recovered with a baseline-identical winner.
fn check_live(bin: &Path, baseline: &Baseline, plain_sessions: usize, kill_at: u64) {
    let dir = fresh_dir("live");
    let (mut child, addr) = spawn_server(bin, &dir, Some(kill_at));
    let acked = drive_live(addr, plain_sessions);
    // If the scenario completed before the kill point was reached, stop
    // the child cleanly; either way, wait for it to exit.
    let _ = request(addr, "POST", "/shutdown", None);
    let _ = child.wait();

    let read = read_log(&dir.join("sessions.wal"))
        .unwrap_or_else(|e| fail(&format!("read live log: {e}")));
    let expect = expectation(baseline, &read.records);
    // Acknowledged ⊆ recovered: every 202'd session must be in the log.
    for id in &acked {
        if !expect.ids.contains(id) {
            fail(&format!(
                "live kill {kill_at}: acknowledged session {id} missing from the log"
            ));
        }
    }
    recover_and_check(&dir, baseline, &expect, &format!("live kill {kill_at}"));
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if std::env::args().skip(1).any(|a| a != "--smoke") {
        eprintln!("usage: crash-bench [--smoke]");
        std::process::exit(2);
    }
    // The harness must never inherit crash injection itself.
    if WalOptions::from_env().crash_at.is_some() {
        fail("unset LT_WAL_CRASH_AT before running crash-bench");
    }
    let bin = lt_serve::fleet::server_binary().unwrap_or_else(|e| fail(&e.to_string()));
    let plain_sessions = if smoke { 1 } else { 3 };
    let live_points: Vec<u64> = if smoke {
        vec![2, 6]
    } else {
        (1..=12).collect()
    };

    println!("crash-bench: baseline scenario ({plain_sessions} plain + 1 auto-re-tune session)");
    let baseline = run_baseline(plain_sessions);
    let records = baseline.payloads.len();
    println!(
        "  baseline log: {records} records, re-tunes: {}",
        baseline.retune_final.retunes
    );

    println!("  prefix kill points: 0..={records}");
    for n in 0..=records {
        check_prefix(&baseline, n);
    }
    println!("  corruption: torn tail, mid-file byte flip");
    check_corruption(&baseline);

    println!("  live kill points: {live_points:?}");
    for &n in &live_points {
        check_live(&bin, &baseline, plain_sessions, n);
    }

    let sessions: Vec<Value> = baseline
        .plain_ids
        .iter()
        .zip(&baseline.plain)
        .map(|(id, s)| {
            json!({
                "id": *id,
                "fingerprint": s.fingerprint.as_deref(),
                "best_time_s": s.best_time,
                "retunes": s.retunes,
            })
        })
        .collect();
    let doc = json!({
        "mode": if smoke { "smoke" } else { "full" },
        "plain_sessions": plain_sessions,
        "baseline_records": records,
        "sessions": Value::Array(sessions),
        "retune_session": json!({
            "id": baseline.retune_id,
            "initial_fingerprint": baseline.retune_initial.fingerprint.as_deref(),
            "initial_best_time_s": baseline.retune_initial.best_time,
            "final_fingerprint": baseline.retune_final.fingerprint.as_deref(),
            "final_best_time_s": baseline.retune_final.best_time,
            "retunes": baseline.retune_final.retunes,
        }),
        "prefix_points": records + 1,
        "corruption_cases": 2,
        "live_kill_points": live_points.iter().map(|&n| n as i64).collect::<Vec<i64>>(),
        "live_tested": true,
        "ok": true,
    });
    std::fs::create_dir_all("results").unwrap_or_else(|e| fail(&format!("mkdir results: {e}")));
    let file = if smoke {
        "results/BENCH_crash.smoke.json"
    } else {
        "results/BENCH_crash.json"
    };
    std::fs::write(file, doc.to_string_pretty())
        .unwrap_or_else(|e| fail(&format!("write {file}: {e}")));
    println!(
        "crash-bench ok: {} prefixes, 2 corruption cases, {} live kill points; wrote {file}",
        records + 1,
        live_points.len()
    );
}
