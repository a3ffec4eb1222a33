//! The content-addressed tuning cache; see the crate docs.

use lambda_tune::selector::TrajectoryPoint;
use lambda_tune::{LambdaTuneOptions, TuneResult};
use lt_common::lru::{Counters, Memo};
use lt_common::{hash_one, obs, Fingerprint, FxHasher, Secs};
use lt_dbms::{Catalog, Configuration, Dbms, TuningTarget};
use lt_drift::Profile;
use lt_llm::LlmUsage;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Bound on the process-wide cache's tuning sessions.
const GLOBAL_CAP: usize = 1024;

/// Digest of every [`LambdaTuneOptions`] field, the sampling seed included:
/// it addresses one exact sampling run.
pub fn options_digest(opts: &LambdaTuneOptions) -> u64 {
    let mut h = FxHasher::new();
    h.write_u64(opts.num_configs as u64);
    h.write_u64(opts.temperature.to_bits());
    match opts.token_budget {
        Some(b) => {
            h.write_u8(1);
            h.write_u64(b as u64);
        }
        None => h.write_u8(0),
    }
    h.write_u8(opts.params_only as u8);
    h.write_u8(opts.indexes_only as u8);
    h.write_u8(opts.use_compressor as u8);
    h.write_u8(opts.obfuscate as u8);
    h.write_u8(opts.use_scheduler as u8);
    h.write_u64(opts.selector.initial_timeout.as_f64().to_bits());
    h.write_u64(opts.selector.alpha.to_bits());
    h.write_u8(opts.selector.adaptive_timeout as u8);
    h.write_u64(opts.selector.max_rounds as u64);
    h.write_u64(opts.llm_latency.as_f64().to_bits());
    h.write_u64(opts.seed);
    h.finish()
}

/// Cache key: a fingerprint of every input the tuning pipeline's output
/// depends on. Two sessions with equal keys produce byte-identical
/// [`TuneResult`]s, so the cached entry can stand in for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FleetKey {
    /// `Catalog::fingerprint()` — schema and statistics.
    pub catalog: Fingerprint,
    /// Hash of the name of the engine that executes the queries. Backends
    /// plan alike and report the same catalog fingerprint, but measure
    /// different query times, so their runs are not interchangeable.
    pub backend: u64,
    /// Target system flavour.
    pub dbms: Dbms,
    /// Hardware main memory in bytes.
    pub memory_bytes: u64,
    /// Hardware core count.
    pub cores: u32,
    /// `Profile::digest()` of the workload (its shape, not its SQL text).
    pub profile: u64,
    /// [`options_digest`] — the exact sampling run.
    pub options: u64,
    /// Hash of the initial configuration script applied before tuning
    /// (`hash_one("")` when none).
    pub initial_config: u64,
}

impl FleetKey {
    /// Key for tuning `profile`'s workload on `db` under `options`, where
    /// `backend` names the engine behind `db` (lt-serve's `Backend::name`)
    /// and `initial_config` is the pre-applied configuration script (empty
    /// string for none).
    pub fn for_session<D: TuningTarget + ?Sized>(
        db: &D,
        backend: &str,
        profile: &Profile,
        options: &LambdaTuneOptions,
        initial_config: &str,
    ) -> FleetKey {
        let hw = db.hardware();
        FleetKey {
            catalog: db.catalog_fingerprint(),
            backend: hash_one(backend),
            dbms: db.dbms(),
            memory_bytes: hw.memory_bytes,
            cores: hw.cores,
            profile: profile.digest(),
            options: options_digest(options),
            initial_config: hash_one(initial_config),
        }
    }
}

/// Cached outcome of one cold tuning run: the full [`TuneResult`] in
/// catalog-independent script form.
#[derive(Debug, Clone)]
pub struct FleetEntry {
    /// Every candidate configuration, rendered to its canonical script.
    pub config_scripts: Vec<String>,
    /// Index of the winner among `config_scripts`.
    pub best_index: Option<usize>,
    /// Workload time under the winner.
    pub best_time: Secs,
    /// Improvement trajectory of the cold run.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Token usage of the cold run (what the hit *avoided* spending).
    pub llm_usage: LlmUsage,
    /// Workload-description tokens inside the prompt.
    pub workload_tokens: usize,
    /// Selector rounds of the cold run.
    pub rounds: usize,
    /// Virtual tuning time of the cold run.
    pub tuning_time: Secs,
    /// The exact prompt of the cold run.
    pub prompt: String,
    /// Workload time under the *default* configuration, when the caller
    /// measured one (the serving layer does); a hit skips that measurement
    /// too.
    pub default_time: Option<Secs>,
}

impl FleetEntry {
    /// Captures a finished cold run. `default_time` is the caller's
    /// default-configuration measurement, if it made one.
    pub fn from_result(
        result: &TuneResult,
        dbms: Dbms,
        catalog: &Catalog,
        default_time: Option<Secs>,
    ) -> FleetEntry {
        FleetEntry {
            config_scripts: result
                .configs
                .iter()
                .map(|c| c.to_script(dbms, catalog))
                .collect(),
            best_index: result.best_index,
            best_time: result.best_time,
            trajectory: result.trajectory.clone(),
            llm_usage: result.llm_usage,
            workload_tokens: result.workload_tokens,
            rounds: result.rounds,
            tuning_time: result.tuning_time,
            prompt: result.prompt.clone(),
            default_time,
        }
    }

    /// Reconstructs the cold run's [`TuneResult`] against `db`'s catalog.
    /// Scripts round-trip through `Configuration::parse`, so the replayed
    /// result carries the same configurations, stats, and trajectory the
    /// cold run produced — without any LLM or evaluation work.
    pub fn to_result<D: TuningTarget + ?Sized>(&self, db: &D) -> TuneResult {
        let configs: Vec<Configuration> = self
            .config_scripts
            .iter()
            .map(|s| Configuration::parse(s, db.dbms(), db.catalog()))
            .collect();
        TuneResult {
            best_config: self.best_index.map(|i| configs[i].clone()),
            best_index: self.best_index,
            best_time: self.best_time,
            configs,
            trajectory: self.trajectory.clone(),
            llm_usage: self.llm_usage,
            workload_tokens: self.workload_tokens,
            rounds: self.rounds,
            tuning_time: self.tuning_time,
            prompt: self.prompt.clone(),
            cancelled: false,
        }
    }
}

/// [`FleetKey`] as JSON for the write-ahead session log. Digests are
/// full-range `u64`s, so they serialize as 16-hex-digit strings (the JSON
/// layer stores integers as `i64`).
pub fn fleet_key_to_json(key: &FleetKey) -> lt_common::json::Value {
    lt_common::json!({
        "catalog": format!("{}", key.catalog),
        "backend": format!("{:016x}", key.backend),
        "dbms": match key.dbms {
            Dbms::Postgres => "postgres",
            Dbms::Mysql => "mysql",
        },
        "memory_bytes": format!("{:016x}", key.memory_bytes),
        "cores": key.cores as i64,
        "profile": format!("{:016x}", key.profile),
        "options": format!("{:016x}", key.options),
        "initial_config": format!("{:016x}", key.initial_config),
    })
}

fn hex_u64(doc: &lt_common::json::Value, field: &str) -> Option<u64> {
    u64::from_str_radix(doc.get(field)?.as_str()?, 16).ok()
}

/// Rebuilds a [`FleetKey`] written by [`fleet_key_to_json`].
pub fn fleet_key_from_json(doc: &lt_common::json::Value) -> Option<FleetKey> {
    Some(FleetKey {
        catalog: Fingerprint(hex_u64(doc, "catalog")?),
        backend: hex_u64(doc, "backend")?,
        dbms: match doc.get("dbms")?.as_str()? {
            "postgres" => Dbms::Postgres,
            "mysql" => Dbms::Mysql,
            _ => return None,
        },
        memory_bytes: hex_u64(doc, "memory_bytes")?,
        cores: u32::try_from(doc.get("cores")?.as_i64()?).ok()?,
        profile: hex_u64(doc, "profile")?,
        options: hex_u64(doc, "options")?,
        initial_config: hex_u64(doc, "initial_config")?,
    })
}

/// [`FleetEntry`] as JSON for the write-ahead session log. Times serialize
/// as plain floats: the JSON writer uses shortest-round-trip formatting, so
/// re-parsing recovers the exact bits and replayed entries stay
/// byte-identical.
pub fn fleet_entry_to_json(entry: &FleetEntry) -> lt_common::json::Value {
    use lt_common::json::Value;
    let trajectory: Vec<Value> = entry
        .trajectory
        .iter()
        .map(|p| {
            lt_common::json!({
                "opt_time_s": p.opt_time.as_f64(),
                "best_workload_time_s": p.best_workload_time.as_f64(),
            })
        })
        .collect();
    lt_common::json!({
        "config_scripts": entry.config_scripts.clone(),
        "best_index": entry.best_index.map(|i| i as i64),
        "best_time_s": entry.best_time.as_f64(),
        "trajectory": Value::Array(trajectory),
        "llm_calls": entry.llm_usage.calls as i64,
        "llm_prompt_tokens": entry.llm_usage.prompt_tokens as i64,
        "llm_completion_tokens": entry.llm_usage.completion_tokens as i64,
        "workload_tokens": entry.workload_tokens as i64,
        "rounds": entry.rounds as i64,
        "tuning_time_s": entry.tuning_time.as_f64(),
        "prompt": entry.prompt.clone(),
        "default_time_s": entry.default_time.map(Secs::as_f64),
    })
}

/// Rebuilds a [`FleetEntry`] written by [`fleet_entry_to_json`].
pub fn fleet_entry_from_json(doc: &lt_common::json::Value) -> Option<FleetEntry> {
    use lt_common::json::Value;
    let config_scripts: Vec<String> = doc
        .get("config_scripts")?
        .as_array()?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Option<_>>()?;
    let best_index = match doc.get("best_index")? {
        Value::Null => None,
        v => {
            let i = usize::try_from(v.as_i64()?).ok()?;
            if i >= config_scripts.len() {
                return None;
            }
            Some(i)
        }
    };
    let mut trajectory = Vec::new();
    for p in doc.get("trajectory")?.as_array()? {
        trajectory.push(TrajectoryPoint {
            opt_time: lt_common::secs(p.get("opt_time_s")?.as_f64()?),
            best_workload_time: lt_common::secs(p.get("best_workload_time_s")?.as_f64()?),
        });
    }
    Some(FleetEntry {
        config_scripts,
        best_index,
        best_time: lt_common::secs(doc.get("best_time_s")?.as_f64()?),
        trajectory,
        llm_usage: LlmUsage {
            calls: doc.get("llm_calls")?.as_i64()? as u64,
            prompt_tokens: doc.get("llm_prompt_tokens")?.as_i64()? as u64,
            completion_tokens: doc.get("llm_completion_tokens")?.as_i64()? as u64,
        },
        workload_tokens: usize::try_from(doc.get("workload_tokens")?.as_i64()?).ok()?,
        rounds: usize::try_from(doc.get("rounds")?.as_i64()?).ok()?,
        tuning_time: lt_common::secs(doc.get("tuning_time_s")?.as_f64()?),
        prompt: doc.get("prompt")?.as_str()?.to_string(),
        default_time: match doc.get("default_time_s")? {
            Value::Null => None,
            v => Some(lt_common::secs(v.as_f64()?)),
        },
    })
}

/// The cross-session tuning cache (bounded LRU; see the crate docs).
#[derive(Debug)]
pub struct FleetCache {
    entries: Memo<FleetKey, Arc<FleetEntry>>,
    enabled: AtomicBool,
}

impl FleetCache {
    /// Cache bounded to `cap` sessions, enabled.
    pub fn new(cap: usize) -> FleetCache {
        FleetCache {
            entries: Memo::new(
                cap,
                Counters {
                    hit: "fleet.tune_hit",
                    miss: "fleet.tune_miss",
                    evict: "fleet.tune_evict",
                },
            ),
            enabled: AtomicBool::new(true),
        }
    }

    /// The process-wide cache.
    pub fn global() -> &'static FleetCache {
        static GLOBAL: OnceLock<FleetCache> = OnceLock::new();
        GLOBAL.get_or_init(|| FleetCache::new(GLOBAL_CAP))
    }

    /// Turns the cache on or off at runtime (benchmarks measure cold vs
    /// warm phases on the same process this way). Disabled means every
    /// lookup misses silently and inserts are dropped.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// True when lookups and inserts are live.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Drops every entry (benchmark phase boundaries).
    pub fn clear(&self) {
        self.entries.clear();
    }

    /// Cached session count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact lookup. Counts `fleet.tune_hit` / `fleet.tune_miss` (nothing
    /// when disabled — a disabled cache is absent, not missing).
    pub fn lookup(&self, key: &FleetKey) -> Option<Arc<FleetEntry>> {
        if !self.is_enabled() {
            return None;
        }
        self.entries.get(key)
    }

    /// Publishes a finished cold run. Counts `fleet.tune_insert`, and
    /// `fleet.tune_evict` when it displaced the coldest entry.
    pub fn insert(&self, key: FleetKey, entry: FleetEntry) {
        if self.is_enabled() && self.entries.insert(key, Arc::new(entry)) {
            obs::counter("fleet.tune_insert", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_tune::{LambdaTune, LambdaTuneOptions};
    use lt_dbms::{Hardware, SimDb};
    use lt_llm::{LlmClient, SimulatedLlm};
    use lt_workloads::{Benchmark, Workload};

    fn key(profile: u64, seed: u64) -> FleetKey {
        let opts = LambdaTuneOptions {
            seed,
            ..Default::default()
        };
        FleetKey {
            catalog: Fingerprint(7),
            backend: hash_one("sim"),
            dbms: Dbms::Postgres,
            memory_bytes: 1 << 30,
            cores: 8,
            profile,
            options: options_digest(&opts),
            initial_config: hash_one(""),
        }
    }

    fn entry() -> FleetEntry {
        FleetEntry {
            config_scripts: vec!["SET work_mem = '64MB';".into()],
            best_index: Some(0),
            best_time: Secs::ZERO,
            trajectory: Vec::new(),
            llm_usage: LlmUsage::default(),
            workload_tokens: 0,
            rounds: 1,
            tuning_time: Secs::ZERO,
            prompt: "p".into(),
            default_time: None,
        }
    }

    fn sim(w: &Workload, hardware: Hardware) -> SimDb {
        SimDb::new(Dbms::Postgres, w.catalog.clone(), hardware, 7)
    }

    fn opts(num_configs: usize, seed: u64) -> LambdaTuneOptions {
        LambdaTuneOptions {
            num_configs,
            seed,
            ..Default::default()
        }
    }

    /// Pinned: a digest that moved would orphan every fleet record in an
    /// existing write-ahead log.
    #[test]
    fn options_digest_is_pinned_and_covers_the_seed() {
        assert_eq!(
            options_digest(&LambdaTuneOptions::default()),
            0xbb67_ca4f_721a_c1c8
        );
        assert_eq!(options_digest(&opts(3, 42)), 0xf0c9_abef_4bdd_4fc9);
        assert_ne!(options_digest(&opts(3, 42)), options_digest(&opts(3, 43)));
        assert_ne!(options_digest(&opts(3, 42)), options_digest(&opts(2, 42)));
    }

    #[test]
    fn for_session_key_changes_with_each_input() {
        let tpch = Benchmark::TpchSf1.load();
        let tpcds = Benchmark::TpcdsSf1.load();
        let db = sim(&tpch, Hardware::p3_2xlarge());
        let profile = Profile::from_workload(&tpch.catalog, &tpch);
        let base = FleetKey::for_session(&db, "sim", &profile, &opts(3, 7), "");
        assert_eq!(
            base,
            FleetKey::for_session(&db, "sim", &profile, &opts(3, 7), ""),
            "equal inputs, equal keys"
        );
        let other_profile = Profile::from_workload(&tpcds.catalog, &tpcds);
        let small = sim(&tpch, Hardware::small());
        for (what, changed) in [
            (
                "seed",
                FleetKey::for_session(&db, "sim", &profile, &opts(3, 8), ""),
            ),
            (
                "workload profile",
                FleetKey::for_session(&db, "sim", &other_profile, &opts(3, 7), ""),
            ),
            (
                "initial config",
                FleetKey::for_session(&db, "sim", &profile, &opts(3, 7), "SET work_mem = '64MB';"),
            ),
            (
                "options",
                FleetKey::for_session(&db, "sim", &profile, &opts(2, 7), ""),
            ),
            (
                "hardware",
                FleetKey::for_session(&small, "sim", &profile, &opts(3, 7), ""),
            ),
            (
                "backend",
                FleetKey::for_session(&db, "store", &profile, &opts(3, 7), ""),
            ),
        ] {
            assert_ne!(base, changed, "{what} must change the key");
        }
    }

    /// A key record without a backend, as older logs hold, does not
    /// decode, so WAL recovery skips it instead of serving it to either
    /// backend.
    #[test]
    fn a_key_without_a_backend_does_not_decode() {
        let mut doc = fleet_key_to_json(&key(1, 1));
        if let lt_common::json::Value::Object(fields) = &mut doc {
            fields.retain(|(name, _)| name != "backend");
        }
        assert!(fleet_key_from_json(&doc).is_none());
    }

    /// A replayed entry reproduces every field of the cold run it caches.
    #[test]
    fn exact_hit_replays_the_cold_run_byte_for_byte() {
        let w = Benchmark::TpchSf1.load();
        let mut db = sim(&w, Hardware::p3_2xlarge());
        let llm = LlmClient::new(SimulatedLlm::new());
        let cold = LambdaTune::new(opts(3, 7)).tune(&mut db, &w, &llm).unwrap();
        let cached = FleetEntry::from_result(&cold, Dbms::Postgres, &w.catalog, None);
        let hit = cached.to_result(&sim(&w, Hardware::p3_2xlarge()));

        let scripts = |r: &TuneResult| -> Vec<String> {
            r.configs
                .iter()
                .map(|c| c.to_script(Dbms::Postgres, &w.catalog))
                .collect()
        };
        assert_eq!(scripts(&cold), scripts(&hit));
        assert_eq!(cold.best_index, hit.best_index);
        assert_eq!(cold.best_time, hit.best_time);
        assert_eq!(cold.trajectory, hit.trajectory);
        assert_eq!(cold.llm_usage, hit.llm_usage);
        assert_eq!(cold.rounds, hit.rounds);
        assert_eq!(cold.tuning_time, hit.tuning_time);
        assert_eq!(cold.prompt, hit.prompt);
        assert_eq!(cold.workload_tokens, hit.workload_tokens);
        assert_eq!(
            cold.best_config
                .as_ref()
                .map(|c| c.to_script(Dbms::Postgres, &w.catalog)),
            hit.best_config
                .as_ref()
                .map(|c| c.to_script(Dbms::Postgres, &w.catalog)),
        );
    }

    #[test]
    fn lookup_hits_only_exact_keys() {
        let cache = FleetCache::new(8);
        cache.insert(key(10, 1), entry());
        assert!(cache.lookup(&key(10, 1)).is_some());
        assert!(cache.lookup(&key(10, 2)).is_none(), "seed differs");
        assert!(cache.lookup(&key(11, 1)).is_none(), "profile differs");
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = FleetCache::new(8);
        cache.set_enabled(false);
        cache.insert(key(10, 1), entry());
        assert!(cache.is_empty());
        assert!(cache.lookup(&key(10, 1)).is_none());
        cache.set_enabled(true);
        cache.insert(key(10, 1), entry());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn key_and_entry_round_trip_through_json() {
        let k = key(0xdead_beef_dead_beef, 42);
        assert_eq!(fleet_key_from_json(&fleet_key_to_json(&k)), Some(k));

        let mut e = entry();
        e.trajectory = vec![TrajectoryPoint {
            opt_time: lt_common::secs(1.5),
            best_workload_time: lt_common::secs(0.1 + 0.2), // non-representable sum
        }];
        e.best_time = lt_common::secs(123.456789);
        e.default_time = Some(lt_common::secs(9.75));
        e.llm_usage = LlmUsage {
            calls: 3,
            prompt_tokens: 1000,
            completion_tokens: 200,
        };
        let back = fleet_entry_from_json(&fleet_entry_to_json(&e)).expect("round trip");
        assert_eq!(back.config_scripts, e.config_scripts);
        assert_eq!(back.best_index, e.best_index);
        assert_eq!(
            back.best_time.as_f64().to_bits(),
            e.best_time.as_f64().to_bits()
        );
        assert_eq!(back.trajectory, e.trajectory);
        assert_eq!(back.llm_usage, e.llm_usage);
        assert_eq!(back.prompt, e.prompt);
        // Survives an actual serialize-to-text cycle too (the WAL path).
        let text = fleet_entry_to_json(&e).to_string_pretty();
        let reparsed = lt_common::json::parse(&text).unwrap();
        assert_eq!(
            fleet_entry_from_json(&reparsed)
                .unwrap()
                .best_time
                .as_f64()
                .to_bits(),
            e.best_time.as_f64().to_bits()
        );
    }

    #[test]
    fn lru_bound_evicts_cold_sessions() {
        let cache = FleetCache::new(2);
        cache.insert(key(1, 1), entry());
        cache.insert(key(2, 1), entry());
        cache.lookup(&key(1, 1)); // refresh
        cache.insert(key(3, 1), entry());
        assert!(cache.lookup(&key(2, 1)).is_none(), "coldest evicted");
        assert!(cache.lookup(&key(1, 1)).is_some());
        assert_eq!(cache.len(), 2);
    }
}
