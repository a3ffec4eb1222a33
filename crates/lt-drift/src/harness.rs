//! Shared experiment harness: plays a [`PhasedStream`] through per-source
//! simulated databases and a [`DriftMonitor`], and runs the stale vs
//! warm-start vs full-re-tune quality comparison. Used by both
//! `drift_bench` and the seeded property suite, so the committed numbers
//! and the CI assertions exercise the identical code path.

use crate::delta::{delta_prompt, LabeledProfile, WorkloadDelta};
use crate::detect::{DriftConfig, DriftEvent, DriftMonitor};
use crate::retune::{retune, RetuneOptions, TuneMemory};
use lambda_tune::{LambdaTune, LambdaTuneOptions};
use lt_common::{derive_seed, Result, Secs};
use lt_dbms::{Configuration, Dbms, Hardware, SimDb};
use lt_llm::{LlmClient, SimulatedLlm};
use lt_synth::{
    predicate_templates, Phase, PhasedStream, PhasedStreamSpec, ShiftClass, StreamSpec,
};
use lt_workloads::{Benchmark, Workload};

/// Outcome of playing one phased stream through the monitor.
#[derive(Debug, Clone)]
pub struct StreamRunReport {
    /// The spec that was played.
    pub spec: PhasedStreamSpec,
    /// Every alarm, in stream order.
    pub events: Vec<DriftEvent>,
    /// Alarms at or before the shift point (for a stationary stream:
    /// every alarm). These are false positives by construction.
    pub false_alarms: usize,
    /// Queries from the shift point to the first post-shift alarm, when
    /// one fired (`at_query - shift_at`).
    pub detection_latency: Option<u64>,
}

/// Plays a built stream through fresh per-source databases and a
/// self-calibrating [`DriftMonitor`]; the draw loop both entry points
/// share. One simulated database per source benchmark, created lazily;
/// its seed is derived from `stream_seed` per source so a scale jump
/// lands on a database with its own noise stream, deterministically.
fn play_stream(stream: PhasedStream, stream_seed: u64, config: &DriftConfig) -> Vec<DriftEvent> {
    let mut monitor = DriftMonitor::new(config.clone());
    let mut dbs: Vec<(Benchmark, SimDb)> = Vec::new();
    let mut events = Vec::new();
    for sq in stream {
        let db = match dbs.iter().position(|(b, _)| *b == sq.source) {
            Some(i) => &mut dbs[i].1,
            None => {
                let w = sq.source.load();
                let seed = derive_seed(stream_seed, dbs.len() as u64);
                dbs.push((
                    sq.source,
                    SimDb::new(Dbms::Postgres, w.catalog, Hardware::p3_2xlarge(), seed),
                ));
                &mut dbs.last_mut().expect("just pushed").1
            }
        };
        if let Some(event) = monitor.execute_and_observe(db, &sq.parsed) {
            events.push(event);
        }
    }
    events
}

/// Splits alarms at the shift boundary: at or before `shift_at` they are
/// false positives by construction; the first one after it gives the
/// detection latency.
fn split_alarms(events: &[DriftEvent], shift_at: u64) -> (usize, Option<u64>) {
    let false_alarms = events.iter().filter(|e| e.at_query <= shift_at).count();
    let detection_latency = events
        .iter()
        .find(|e| e.at_query > shift_at)
        .map(|e| e.at_query - shift_at);
    (false_alarms, detection_latency)
}

/// Plays `spec` through fresh per-source databases and a self-calibrating
/// [`DriftMonitor`] with `config`; see [`StreamRunReport`].
pub fn run_stream(spec: PhasedStreamSpec, config: &DriftConfig) -> StreamRunReport {
    let events = play_stream(PhasedStream::new(spec), spec.seed, config);
    let shift_at = match spec.shift {
        ShiftClass::Stationary => spec.len as u64,
        _ => spec.shift_at as u64,
    };
    let (false_alarms, detection_latency) = split_alarms(&events, shift_at);
    StreamRunReport {
        spec,
        events,
        false_alarms,
        detection_latency,
    }
}

/// Outcome of playing one declarative [`StreamSpec`] through the monitor.
#[derive(Debug, Clone)]
pub struct SpecStreamReport {
    /// Every alarm, in stream order.
    pub events: Vec<DriftEvent>,
    /// Alarms at or before `shift_at` (for a stream declared stationary:
    /// every alarm) — false positives by construction.
    pub false_alarms: usize,
    /// Queries from `shift_at` to the first later alarm, when one fired.
    pub detection_latency: Option<u64>,
}

/// Plays a declarative stream spec through the monitor. `shift_at` is
/// where the caller knows the distribution moves (`None` = the stream is
/// stationary and every alarm is false). Synthesized pools make stream
/// construction fallible.
pub fn run_stream_spec(
    spec: &StreamSpec,
    shift_at: Option<usize>,
    config: &DriftConfig,
) -> Result<SpecStreamReport> {
    let events = play_stream(PhasedStream::from_spec(spec)?, spec.seed, config);
    let boundary = shift_at.unwrap_or(spec.len) as u64;
    let (false_alarms, detection_latency) = split_alarms(&events, boundary);
    Ok(SpecStreamReport {
        events,
        false_alarms,
        detection_latency,
    })
}

/// Quality/budget comparison of the four post-drift strategies.
#[derive(Debug, Clone)]
pub struct RetuneComparison {
    /// Post-shift workload time under the configuration tuned pre-shift.
    pub stale_time: f64,
    /// … under a from-scratch full-budget re-tune.
    pub full_time: f64,
    /// … under the warm-start half-budget re-tune.
    pub warm_time: f64,
    /// `warm_time / full_time` — ≤ 1.05 meets the ≤ 5 % acceptance bound.
    pub quality_ratio: f64,
    /// LLM tokens (prompt + completion) of the full re-tune.
    pub full_tokens: u64,
    /// … and of the warm-start re-tune.
    pub warm_tokens: u64,
    /// Virtual tuning time of the full re-tune.
    pub full_tuning_time: f64,
    /// … and of the warm-start re-tune.
    pub warm_tuning_time: f64,
    /// Post-shift workload time under the delta-prompt re-tune.
    pub delta_time: f64,
    /// LLM tokens (prompt + completion) of the delta-prompt re-tune.
    pub delta_tokens: u64,
    /// Virtual tuning time of the delta-prompt re-tune.
    pub delta_tuning_time: f64,
}

fn fresh_db(catalog: &lt_dbms::Catalog, seed: u64) -> SimDb {
    SimDb::new(
        Dbms::Postgres,
        catalog.clone(),
        Hardware::p3_2xlarge(),
        seed,
    )
}

fn apply(db: &mut SimDb, config: &Configuration) {
    db.apply_knobs(config);
    for spec in config.index_specs() {
        db.create_index(spec);
    }
}

fn measure(db: &mut SimDb, workload: &Workload) -> f64 {
    let mut total = Secs::ZERO;
    for q in &workload.queries {
        total += db.execute(&q.parsed, Secs::INFINITY).time;
    }
    total.as_f64()
}

/// The drifted workload of the comparison: the post-shift predicate
/// templates plus the back half of TPC-H — overlapping enough that the
/// stale configuration is not hopeless, shifted enough that re-tuning
/// has something to gain.
pub fn drifted_workload() -> Result<Workload> {
    let tpch = Benchmark::TpchSf1.load();
    let mut queries: Vec<(String, String)> = predicate_templates(Phase::After);
    for q in tpch.queries.iter().skip(tpch.queries.len() / 2) {
        queries.push((q.label.clone(), q.sql.clone()));
    }
    let pairs: Vec<(&str, String)> = queries
        .iter()
        .map(|(l, s)| (l.as_str(), s.clone()))
        .collect();
    Workload::from_sql("tpch-drifted", tpch.catalog, &pairs)
}

/// Runs the four-arm comparison for one seed; see [`RetuneComparison`].
pub fn compare_retune(seed: u64) -> Result<RetuneComparison> {
    let original = Benchmark::TpchSf1.load();
    let drifted = drifted_workload()?;
    let options = LambdaTuneOptions {
        seed: derive_seed(seed, 1),
        ..Default::default()
    };

    // Pre-shift tune on the original workload → the session's memory.
    let mut tune_db = fresh_db(&original.catalog, derive_seed(seed, 2));
    let llm = LlmClient::new(SimulatedLlm::new());
    let first = LambdaTune::new(options).tune(&mut tune_db, &original, &llm)?;
    let stale_config = first
        .best_config
        .clone()
        .ok_or_else(|| lt_common::LtError::Tuning("pre-shift tune found no config".into()))?;
    let memory = TuneMemory {
        prompt: first.prompt.clone(),
        best_script: stale_config.to_script(Dbms::Postgres, &original.catalog),
        options,
    };

    // Arm 1 — stale: keep running the old configuration.
    let measure_seed = derive_seed(seed, 3);
    let mut stale_db = fresh_db(&original.catalog, measure_seed);
    apply(&mut stale_db, &stale_config);
    let stale_time = measure(&mut stale_db, &drifted);

    // Arm 2 — full re-tune: from scratch at the full budget.
    let full_options = LambdaTuneOptions {
        seed: derive_seed(seed, 4),
        ..Default::default()
    };
    let mut full_db = fresh_db(&original.catalog, derive_seed(seed, 5));
    let full_llm = LlmClient::new(SimulatedLlm::new());
    let full = LambdaTune::new(full_options).tune(&mut full_db, &drifted, &full_llm)?;
    let full_config = full
        .best_config
        .clone()
        .ok_or_else(|| lt_common::LtError::Tuning("full re-tune found no config".into()))?;
    let mut full_measure_db = fresh_db(&original.catalog, measure_seed);
    apply(&mut full_measure_db, &full_config);
    let full_time = measure(&mut full_measure_db, &drifted);

    // Arm 3 — warm start: previous prompt + winner at half the budget.
    let mut warm_db = fresh_db(&original.catalog, derive_seed(seed, 6));
    let warm_llm = LlmClient::new(SimulatedLlm::new());
    let warm = retune(
        &mut warm_db,
        &drifted,
        &warm_llm,
        &memory,
        &RetuneOptions {
            seed: Some(derive_seed(seed, 7)),
            ..Default::default()
        },
        None,
    )?;
    let warm_config = warm
        .best_config
        .clone()
        .ok_or_else(|| lt_common::LtError::Tuning("warm re-tune found no config".into()))?;
    let mut warm_measure_db = fresh_db(&original.catalog, measure_seed);
    apply(&mut warm_measure_db, &warm_config);
    let warm_time = measure(&mut warm_measure_db, &drifted);

    // Arm 4 — delta prompt: a controlled repeat of arm 3 (same database
    // seed, same sampling seed, same budget) where the only change is the
    // prompt — the LLM sees a profile delta (reference vs drifted
    // workload) instead of the stale reference prompt, bounded to the
    // reference prompt's tokens. Any quality or budget movement is then
    // attributable to the delta prompt alone.
    let reference = LabeledProfile::from_workload(&original.catalog, &original);
    let current = LabeledProfile::from_workload(&original.catalog, &drifted);
    let delta = WorkloadDelta::between(&reference, &current);
    let mut delta_db = fresh_db(&original.catalog, derive_seed(seed, 6));
    let delta_llm = LlmClient::new(SimulatedLlm::new());
    let delta_result = retune(
        &mut delta_db,
        &drifted,
        &delta_llm,
        &memory,
        &RetuneOptions {
            seed: Some(derive_seed(seed, 7)),
            delta: Some(delta_prompt(&first.prompt, &delta)),
        },
        None,
    )?;
    let delta_config = delta_result
        .best_config
        .clone()
        .ok_or_else(|| lt_common::LtError::Tuning("delta re-tune found no config".into()))?;
    let mut delta_measure_db = fresh_db(&original.catalog, measure_seed);
    apply(&mut delta_measure_db, &delta_config);
    let delta_time = measure(&mut delta_measure_db, &drifted);

    Ok(RetuneComparison {
        stale_time,
        full_time,
        warm_time,
        quality_ratio: warm_time / full_time,
        full_tokens: full.llm_usage.prompt_tokens + full.llm_usage.completion_tokens,
        warm_tokens: warm.llm_usage.prompt_tokens + warm.llm_usage.completion_tokens,
        full_tuning_time: full.tuning_time.as_f64(),
        warm_tuning_time: warm.tuning_time.as_f64(),
        delta_time,
        delta_tokens: delta_result.llm_usage.prompt_tokens
            + delta_result.llm_usage.completion_tokens,
        delta_tuning_time: delta_result.tuning_time.as_f64(),
    })
}
