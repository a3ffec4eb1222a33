//! Child processes: `lt-serve` daemons and re-executions of `lt-perf`.
//!
//! Every process the benchmark starts is stopped and waited for before the
//! benchmark returns, on success and on error alike (the handles kill and
//! reap in `Drop`).

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `lt-serve` binary, built next to `lt-perf`.
pub fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate lt-perf: {e}"))?;
    let candidate = exe.with_file_name("lt-serve");
    if candidate.is_file() {
        Ok(candidate)
    } else {
        Err(format!(
            "{} is missing: build the workspace first (cargo build --release)",
            candidate.display()
        ))
    }
}

/// A command re-executing this `lt-perf` binary.
pub fn self_command() -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate lt-perf: {e}"))?;
    Ok(Command::new(exe))
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    read_hwm(&format!("/proc/{pid}/status"))
}

/// Restarts this process's peak-resident-set counter, so the next reading
/// covers only what runs from now on. Best effort: without it the reading
/// is the peak since process start.
pub fn reset_own_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, in MiB.
pub fn own_peak_rss_mib() -> Option<f64> {
    read_hwm("/proc/self/status")
}

fn read_hwm(path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One running `lt-serve` process and the address it announced.
pub struct Server {
    child: Option<Child>,
    drain: Option<JoinHandle<()>>,
    /// Bound address, read from the `http://` announcement.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `lt-serve` with `args` and waits for its announced address.
    /// `tmp` becomes the child's temporary directory, so nothing it writes
    /// leaves the benchmark's scratch space.
    pub fn spawn(args: &[String], tmp: &Path) -> Result<Server, String> {
        let mut child = Command::new(server_binary()?)
            .args(args)
            .env("TMPDIR", tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start lt-serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child: Some(child),
            drain: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let (addr, lines) = read_announcement(stdout)?;
        server.addr = addr;
        // Keep reading so the daemon never blocks on a full stdout pipe.
        server.drain = Some(std::thread::spawn(move || {
            lines.for_each(drop);
        }));
        Ok(server)
    }

    /// Process id.
    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Asks the daemon to shut down, kills it if it does not exit within
    /// five seconds, and reaps it.
    pub fn stop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = crate::client::Client::new(self.addr).call("POST", "/shutdown", None);
            let deadline = Instant::now() + Duration::from_secs(5);
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

type Lines = std::io::Lines<BufReader<ChildStdout>>;

fn read_announcement(stdout: ChildStdout) -> Result<(SocketAddr, Lines), String> {
    let mut lines = BufReader::new(stdout).lines();
    for line in lines.by_ref() {
        let line = line.map_err(|e| format!("reading lt-serve output: {e}"))?;
        if let Some(rest) = line.split("http://").nth(1) {
            let text = rest.split_whitespace().next().unwrap_or("");
            let addr = text
                .parse()
                .map_err(|_| format!("bad address in lt-serve announcement {line:?}"))?;
            return Ok((addr, lines));
        }
    }
    Err("lt-serve exited before announcing its address".to_string())
}

/// Runs a re-executed `lt-perf` child to completion, returning its
/// standard output lines and how long after `started` each line arrived.
pub fn run_child(
    mut cmd: Command,
    tmp: &Path,
    started: Instant,
) -> Result<Vec<(f64, String)>, String> {
    let mut child = cmd
        .env("TMPDIR", tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut out = Vec::new();
    for line in BufReader::new(stdout).lines() {
        match line {
            Ok(line) => out.push((started.elapsed().as_secs_f64(), line)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("reading child output: {e}"));
            }
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    if status.success() {
        Ok(out)
    } else {
        Err(format!("child exited with {status}"))
    }
}

/// A fresh scratch directory inside the checkout, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Creates `<target dir>/lt-perf-scratch/<name>-<pid>`.
    pub fn new(name: &str) -> io::Result<Scratch> {
        let root = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        let dir = root
            .join("lt-perf-scratch")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        // Absolute, so children started in other directories agree.
        Ok(Scratch(std::fs::canonicalize(&dir)?))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
