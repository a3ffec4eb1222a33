//! Shared tuner interface and measurement helpers.

use lambda_tune::TrajectoryPoint;
use lt_common::{ColumnId, Secs};
use lt_dbms::{Configuration, IndexSpec, TuningTarget};
use lt_workloads::Workload;
use std::collections::HashMap;

/// Outcome of one baseline tuning run.
#[derive(Debug, Clone)]
pub struct TunerRun {
    /// Best configuration found (None when nothing completed in budget).
    pub best_config: Option<Configuration>,
    /// Full-workload execution time under the best configuration.
    pub best_time: Secs,
    /// Improvement events over optimization time.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Number of configurations evaluated (Table 4).
    pub configs_evaluated: u64,
}

impl TunerRun {
    /// An empty run (nothing found).
    pub fn empty() -> Self {
        TunerRun {
            best_config: None,
            best_time: Secs::INFINITY,
            trajectory: Vec::new(),
            configs_evaluated: 0,
        }
    }
}

/// A database tuning system under evaluation.
pub trait Tuner {
    /// Display name used in tables and figures.
    fn name(&self) -> &'static str;

    /// Tunes `db` for `workload` within `budget` virtual seconds of
    /// optimization time.
    fn tune(&self, db: &mut dyn TuningTarget, workload: &Workload, budget: Secs) -> TunerRun;
}

/// Re-exported from `lt-workloads`, next to [`Workload`].
pub use lt_workloads::measure_workload;

/// Applies `config` (knobs + eager index builds), measures the workload
/// under `cap`, then drops the indexes. Returns `(time, completed)`;
/// `time` covers query execution only (reconfiguration is still charged to
/// the tuning clock, as on a real system).
pub fn measure_config(
    db: &mut dyn TuningTarget,
    workload: &Workload,
    config: &Configuration,
    cap: Secs,
) -> (Secs, bool) {
    db.apply_knobs(config);
    // Build only indexes that do not already exist (pre-built scenario
    // indexes are shared infrastructure and must survive the measurement).
    let mut built = Vec::new();
    for spec in config.index_specs() {
        if db.indexes().find(spec.table, &spec.columns).is_none() {
            let (id, _) = db.create_index(spec);
            built.push(id);
        }
    }
    let result = measure_workload(db, workload, cap);
    for id in built {
        db.drop_index(id);
    }
    result
}

/// Enumerates candidate single-column indexes for a workload: every join
/// or filter column, ranked by the total estimated cost of the operators
/// touching it (most promising first).
pub fn index_candidates(db: &dyn TuningTarget, workload: &Workload) -> Vec<IndexSpec> {
    let mut value: HashMap<ColumnId, f64> = HashMap::new();
    for wq in &workload.queries {
        let plan = db.explain(&wq.parsed);
        for (l, r, cost) in &plan.join_costs {
            *value.entry(*l).or_insert(0.0) += cost;
            *value.entry(*r).or_insert(0.0) += cost;
        }
        let preds = lt_dbms::stats::extract(&wq.parsed, db.catalog());
        for (table, terms) in &preds.filters {
            let table_cost = db.catalog().table(*table).pages(db.catalog()) as f64;
            for t in terms {
                *value.entry(t.column).or_insert(0.0) += table_cost * 0.1;
            }
        }
    }
    let mut ranked: Vec<(ColumnId, f64)> = value.into_iter().collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    ranked
        .into_iter()
        .map(|(col, _)| IndexSpec {
            table: db.catalog().column(col).table,
            columns: vec![col],
            name: None,
        })
        .collect()
}

/// Deduplicated trajectory push: records only improvements.
pub(crate) fn record_improvement(
    trajectory: &mut Vec<TrajectoryPoint>,
    best: &mut Secs,
    now: Secs,
    time: Secs,
) -> bool {
    if time < *best {
        *best = time;
        trajectory.push(TrajectoryPoint {
            opt_time: now,
            best_workload_time: time,
        });
        true
    } else {
        false
    }
}

/// A discrete search grid per tunable knob: the level sets UDO explores and
/// the other parameter tuners derive their ranges from. Grounded against
/// the machine's RAM and core count.
pub fn knob_grid(
    dbms: lt_dbms::Dbms,
    hardware: lt_dbms::Hardware,
) -> Vec<(&'static str, Vec<lt_dbms::KnobValue>)> {
    use lt_dbms::KnobValue as V;
    let ram = hardware.memory_bytes;
    let cores = hardware.cores as i64;
    let frac = |p: f64| V::Bytes((ram as f64 * p) as u64);
    let mib = |m: u64| V::Bytes(m << 20);
    let gib = |g: u64| V::Bytes(g << 30);
    match dbms {
        lt_dbms::Dbms::Postgres => vec![
            (
                "shared_buffers",
                vec![mib(128), gib(1), frac(0.125), frac(0.25), frac(0.5)],
            ),
            ("work_mem", vec![mib(4), mib(64), mib(256), gib(1), gib(4)]),
            ("effective_cache_size", vec![gib(4), frac(0.5), frac(0.75)]),
            ("maintenance_work_mem", vec![mib(64), gib(1), gib(2)]),
            (
                "random_page_cost",
                vec![V::Float(1.1), V::Float(2.0), V::Float(4.0)],
            ),
            (
                "effective_io_concurrency",
                vec![V::Int(1), V::Int(32), V::Int(200)],
            ),
            (
                "max_parallel_workers_per_gather",
                vec![V::Int(0), V::Int(2), V::Int(cores / 2), V::Int(cores)],
            ),
            (
                "max_parallel_workers",
                vec![V::Int(cores), V::Int(2 * cores)],
            ),
            (
                "checkpoint_completion_target",
                vec![V::Float(0.5), V::Float(0.9)],
            ),
            ("wal_buffers", vec![mib(16), mib(64)]),
        ],
        lt_dbms::Dbms::Mysql => vec![
            (
                "innodb_buffer_pool_size",
                vec![mib(128), gib(1), frac(0.25), frac(0.5), frac(0.65)],
            ),
            (
                "sort_buffer_size",
                vec![V::Bytes(256 << 10), mib(64), mib(256)],
            ),
            (
                "join_buffer_size",
                vec![V::Bytes(256 << 10), mib(64), mib(256)],
            ),
            ("tmp_table_size", vec![mib(16), gib(1), gib(2)]),
            ("max_heap_table_size", vec![mib(16), gib(1), gib(2)]),
            ("innodb_log_file_size", vec![mib(48), gib(1)]),
            ("innodb_flush_log_at_trx_commit", vec![V::Int(1), V::Int(2)]),
            (
                "innodb_io_capacity",
                vec![V::Int(200), V::Int(2000), V::Int(10_000)],
            ),
            ("innodb_read_io_threads", vec![V::Int(4), V::Int(cores)]),
            (
                "innodb_parallel_read_threads",
                vec![V::Int(4), V::Int(cores), V::Int(2 * cores)],
            ),
        ],
    }
}

/// Builds a [`Configuration`] from explicit knob assignments (+ optional
/// index specs) without going through script text.
pub fn config_from_values(
    knobs: &[(&str, lt_dbms::KnobValue)],
    indexes: &[IndexSpec],
) -> Configuration {
    let mut config = Configuration::default();
    for (name, value) in knobs {
        config.commands.push(lt_dbms::ConfigCommand::SetKnob {
            name: (*name).to_string(),
            value: *value,
        });
    }
    for spec in indexes {
        config
            .commands
            .push(lt_dbms::ConfigCommand::CreateIndex(spec.clone()));
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_dbms::{Dbms, Hardware, SimDb};
    use lt_workloads::Benchmark;

    fn setup() -> (SimDb, Workload) {
        let w = Benchmark::TpchSf1.load();
        let db = SimDb::new(Dbms::Postgres, w.catalog.clone(), Hardware::p3_2xlarge(), 3);
        (db, w)
    }

    #[test]
    fn measure_workload_completes_without_cap() {
        let (mut db, w) = setup();
        let (time, done) = measure_workload(&mut db, &w, Secs::INFINITY);
        assert!(done);
        assert!(time > Secs::ZERO);
    }

    #[test]
    fn measure_workload_respects_cap() {
        let (mut db, w) = setup();
        let cap = lt_common::secs(1.0);
        let (time, done) = measure_workload(&mut db, &w, cap);
        assert!(!done);
        assert!(time <= cap + lt_common::secs(1e-6));
    }

    #[test]
    fn measure_config_cleans_up_indexes() {
        let (mut db, w) = setup();
        let config = Configuration::parse(
            "ALTER SYSTEM SET work_mem = '1GB'; CREATE INDEX ON lineitem (l_orderkey);",
            Dbms::Postgres,
            db.catalog(),
        );
        let (time, done) = measure_config(&mut db, &w, &config, Secs::INFINITY);
        assert!(done && time > Secs::ZERO);
        assert!(db.indexes().is_empty());
    }

    #[test]
    fn index_candidates_rank_join_keys_high() {
        let (db, w) = setup();
        let cands = index_candidates(&db, &w);
        assert!(!cands.is_empty());
        // l_orderkey or o_orderkey should appear near the top.
        let top: Vec<&str> = cands
            .iter()
            .take(4)
            .map(|s| db.catalog().column(s.columns[0]).name.as_str())
            .collect();
        assert!(
            top.iter().any(|n| n.contains("orderkey")),
            "top candidates: {top:?}"
        );
    }

    #[test]
    fn record_improvement_only_on_progress() {
        let mut traj = Vec::new();
        let mut best = Secs::INFINITY;
        assert!(record_improvement(
            &mut traj,
            &mut best,
            lt_common::secs(1.0),
            lt_common::secs(10.0)
        ));
        assert!(!record_improvement(
            &mut traj,
            &mut best,
            lt_common::secs(2.0),
            lt_common::secs(11.0)
        ));
        assert!(record_improvement(
            &mut traj,
            &mut best,
            lt_common::secs(3.0),
            lt_common::secs(9.0)
        ));
        assert_eq!(traj.len(), 2);
    }
}
