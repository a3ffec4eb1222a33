//! Multi-process shard fabric: spawns N `lt-serve` shard daemons plus one
//! coordinator fronting them, for the sharded serving benchmark and its
//! CI smoke.
//!
//! Everything here is real processes over real loopback TCP — the same
//! binary an operator would run, found next to the current executable.
//! Each shard gets its own WAL directory under a per-fleet scratch root,
//! so kill/restart scenarios exercise the PR 7 recovery path exactly as a
//! production crash would: SIGKILL the child, respawn it on the same
//! address with the same `--wal-dir`, and the coordinator's next probe
//! folds it back in.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One shard child process.
pub struct ShardProc {
    /// Stable shard id (decides which session ids it owns; survives
    /// restarts).
    pub id: u32,
    /// Bound address. Restarts rebind the same address so the
    /// coordinator's static shard table stays valid.
    pub addr: SocketAddr,
    /// The shard's WAL directory (reused across restarts — that is the
    /// whole point).
    pub wal_dir: PathBuf,
    child: Option<Child>,
}

impl ShardProc {
    /// True while the child process handle is held (i.e. not killed).
    pub fn running(&self) -> bool {
        self.child.is_some()
    }
}

/// A coordinator + N shards, all child processes.
pub struct Fleet {
    bin: PathBuf,
    root: PathBuf,
    workers: usize,
    conns: usize,
    envs: Vec<(String, String)>,
    /// The shard children, index-stable (killed shards keep their slot).
    pub shards: Vec<ShardProc>,
    coordinator: Option<Child>,
    coordinator_addr: SocketAddr,
}

/// Locates the `lt-serve` binary next to the current executable (works
/// from the release bin dir and from `target/.../deps` test binaries).
pub fn server_binary() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let mut dirs: Vec<&Path> = Vec::new();
    if let Some(d) = exe.parent() {
        dirs.push(d);
        if let Some(dd) = d.parent() {
            dirs.push(dd);
        }
    }
    for dir in dirs {
        let candidate = dir.join("lt-serve");
        if candidate.exists() {
            return Ok(candidate);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "lt-serve binary not found next to the current executable (build it first)",
    ))
}

/// Fleet-unique scratch root under the system temp dir.
fn scratch_root() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lt-fleet-{}-{n}", std::process::id()))
}

/// Spawns a child and reads its announced address: the first stdout line
/// containing `http://`. Keeps draining stdout afterwards so the child
/// never blocks on a full pipe.
pub fn spawn_announced(mut cmd: Command) -> io::Result<(Child, SocketAddr)> {
    let mut child = cmd.stdout(Stdio::piped()).spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(rest) = line.split("http://").nth(1) {
                    let text = rest.split_whitespace().next().unwrap_or("");
                    match text.parse() {
                        Ok(addr) => break addr,
                        Err(_) => {
                            let _ = child.kill();
                            let _ = child.wait();
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("bad address in announcement {line:?}"),
                            ));
                        }
                    }
                }
            }
            _ => {
                let _ = child.wait();
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "child exited before announcing its address",
                ));
            }
        }
    };
    std::thread::spawn(move || for _line in lines.map_while(Result::ok) {});
    Ok((child, addr))
}

impl Fleet {
    /// Spawns `n` shard daemons (each with `workers` pool workers and its
    /// own WAL dir) and a coordinator fronting them, every child started
    /// with `--conns conns`. `envs` is applied to every child — the place
    /// for `LT_LLM_LATENCY_MS` and `LT_SHARD_PROBE_MS`. Blocks until the
    /// coordinator answers `/healthz`.
    pub fn spawn(
        n: usize,
        workers: usize,
        conns: usize,
        envs: &[(String, String)],
    ) -> io::Result<Fleet> {
        let bin = server_binary()?;
        let root = scratch_root();
        std::fs::create_dir_all(&root)?;
        let mut fleet = Fleet {
            bin,
            root,
            workers,
            conns,
            envs: envs.to_vec(),
            shards: Vec::new(),
            coordinator: None,
            coordinator_addr: "127.0.0.1:0".parse().unwrap(),
        };
        for id in 0..n as u32 {
            let wal_dir = fleet.root.join(format!("shard-{id}"));
            let (child, addr) = spawn_announced(fleet.shard_command(id, &wal_dir, None))?;
            fleet.shards.push(ShardProc {
                id,
                addr,
                wal_dir,
                child: Some(child),
            });
        }

        let mut cmd = Command::new(&fleet.bin);
        cmd.args(["--coordinator", "--addr", "127.0.0.1:0"]);
        cmd.args(["--conns", &conns.to_string()]);
        for shard in &fleet.shards {
            cmd.args(["--shard", &format!("{}={}", shard.id, shard.addr)]);
        }
        for (k, v) in &fleet.envs {
            cmd.env(k, v);
        }
        let (child, addr) = spawn_announced(cmd)?;
        fleet.coordinator = Some(child);
        fleet.coordinator_addr = addr;
        fleet.await_healthy(Duration::from_secs(10))?;
        Ok(fleet)
    }

    fn shard_command(&self, id: u32, wal_dir: &Path, addr: Option<SocketAddr>) -> Command {
        let mut cmd = Command::new(&self.bin);
        let bind = addr.map_or_else(|| "127.0.0.1:0".to_string(), |a| a.to_string());
        cmd.args(["--addr", &bind, "--workers", &self.workers.to_string()]);
        cmd.args(["--conns", &self.conns.to_string()]);
        cmd.args(["--wal-dir".as_ref(), wal_dir.as_os_str()]);
        cmd.args(["--shard-id", &id.to_string()]);
        for (k, v) in &self.envs {
            cmd.env(k, v);
        }
        cmd
    }

    /// The coordinator's address — the fabric's only client-facing door.
    pub fn coordinator_addr(&self) -> SocketAddr {
        self.coordinator_addr
    }

    fn await_healthy(&self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Ok((200, _)) =
                crate::http::request(self.coordinator_addr, "GET", "/healthz", None)
            {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "coordinator never became healthy",
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// SIGKILLs shard `index` — no drain, no flush: the crash scenario.
    pub fn kill_shard(&mut self, index: usize) {
        if let Some(mut child) = self.shards[index].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Respawns a killed shard on its original address with its original
    /// WAL dir. Rebinding a just-freed port can transiently fail, so this
    /// retries for a few seconds.
    pub fn restart_shard(&mut self, index: usize) -> io::Result<()> {
        let (id, addr, wal_dir) = {
            let s = &self.shards[index];
            (s.id, s.addr, s.wal_dir.clone())
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match spawn_announced(self.shard_command(id, &wal_dir, Some(addr))) {
                Ok((child, bound)) => {
                    debug_assert_eq!(bound, addr);
                    self.shards[index].child = Some(child);
                    return Ok(());
                }
                Err(err) if Instant::now() < deadline => {
                    let _ = err;
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Graceful teardown: shut the coordinator down first (so nothing
    /// routes), then every live shard, then remove the scratch root.
    pub fn shutdown(&mut self) {
        if let Some(mut child) = self.coordinator.take() {
            let _ = crate::http::request(self.coordinator_addr, "POST", "/shutdown", None);
            if !wait_with_timeout(&mut child, Duration::from_secs(5)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        for shard in &mut self.shards {
            if let Some(mut child) = shard.child.take() {
                let _ = crate::http::request(shard.addr, "POST", "/shutdown", None);
                if !wait_with_timeout(&mut child, Duration::from_secs(5)) {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Polls `try_wait` until the child exits or `timeout` passes.
fn wait_with_timeout(child: &mut Child, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return true,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => return false,
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Best-effort: never leak children or scratch dirs, even on panic.
        if let Some(mut child) = self.coordinator.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        for shard in &mut self.shards {
            if let Some(mut child) = shard.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
