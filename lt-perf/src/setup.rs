//! `setup_s`: the time to bring up a workload's processes under test,
//! measured several times per run.
//!
//! Every bring-up starts after a short idle pause. On the reference
//! machine (a 2-core KVM guest) a process spawned while the cores are busy
//! or just woken costs 1.2 to 2.3 ms depending on scheduling history, while
//! one spawned from idle costs a steady 2.7 ms; the pause makes every
//! sample start from the same state, so the median repeats across runs.

use crate::{inproc, serve};
use std::path::Path;
use std::time::{Duration, Instant};

/// Bring-ups timed per run (per `--smoke` run); `setup_s` is their median.
const SETUPS: usize = 15;
const SMOKE_SETUPS: usize = 5;
/// Leading bring-ups not counted: they take the binaries and inputs into
/// the page cache.
const PRIMING: usize = 2;
/// Idle pause before each bring-up.
const PAUSE: Duration = Duration::from_millis(100);

/// Seconds each timed bring-up of `workload` took, from spawn until ready.
/// HTTP workloads are ready when `/healthz` answers; in-process workloads
/// when a spawned process has loaded its benchmark.
pub fn samples(workload: &str, smoke: bool, tmp: &Path) -> Result<Vec<f64>, String> {
    let mut samples = Vec::new();
    let count = if smoke { SMOKE_SETUPS } else { SETUPS };
    for _ in 0..PRIMING + count {
        std::thread::sleep(PAUSE);
        let seconds = match workload {
            "cold-job" | "store-tpch" => {
                inproc::probe_once(inproc::benchmark(workload, smoke), tmp)?
            }
            _ => {
                let start = Instant::now();
                let (mut servers, _) = serve::bring_up(workload, tmp)?;
                let seconds = start.elapsed().as_secs_f64();
                serve::stop_all(&mut servers);
                seconds
            }
        };
        samples.push(seconds);
    }
    Ok(samples.split_off(PRIMING))
}
