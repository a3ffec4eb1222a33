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

/// Digest of every [`LambdaTuneOptions`] field. With `include_seed` the
/// digest addresses one exact sampling run; without it, it identifies the
/// *option group* — sessions differing only by seed share it, which is what
/// both the warm-transfer neighbour filter and the serving layer's batch
/// coalescing key on.
pub fn options_digest(opts: &LambdaTuneOptions, include_seed: bool) -> u64 {
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
    if include_seed {
        h.write_u64(opts.seed);
    }
    h.finish()
}

/// Cache key: a fingerprint of every input the tuning pipeline's output
/// depends on. Two sessions with equal keys produce byte-identical
/// [`TuneResult`]s, so the cached entry can stand in for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FleetKey {
    /// `Catalog::fingerprint()` — schema and statistics.
    pub catalog: Fingerprint,
    /// Target system flavour.
    pub dbms: Dbms,
    /// Hardware main memory in bytes.
    pub memory_bytes: u64,
    /// Hardware core count.
    pub cores: u32,
    /// `Profile::digest()` of the workload (its shape, not its SQL text).
    pub profile: u64,
    /// [`options_digest`] *with* the seed — the exact sampling run.
    pub options: u64,
    /// [`options_digest`] *without* the seed — the option group shared by
    /// sibling tenants; keys near-miss transfer and batch coalescing.
    pub group: u64,
    /// Hash of the initial configuration script applied before tuning
    /// (`hash_one("")` when none).
    pub initial_config: u64,
}

impl FleetKey {
    /// Key for tuning `profile`'s workload on `db` under `options`, with
    /// `initial_config` being the pre-applied configuration script (empty
    /// string for none).
    pub fn for_session<D: TuningTarget + ?Sized>(
        db: &D,
        profile: &Profile,
        options: &LambdaTuneOptions,
        initial_config: &str,
    ) -> FleetKey {
        let hw = db.hardware();
        FleetKey {
            catalog: db.catalog_fingerprint(),
            dbms: db.dbms(),
            memory_bytes: hw.memory_bytes,
            cores: hw.cores,
            profile: profile.digest(),
            options: options_digest(options, true),
            group: options_digest(options, false),
            initial_config: hash_one(initial_config),
        }
    }

    /// True when `other` differs from `self` at most in the workload
    /// profile and sampling seed — the eligibility filter for warm-start
    /// transfer (the neighbour's prompt and winner only make sense on the
    /// same catalog, hardware, system, option group, and starting config).
    pub fn transferable_from(&self, other: &FleetKey) -> bool {
        self.catalog == other.catalog
            && self.dbms == other.dbms
            && self.memory_bytes == other.memory_bytes
            && self.cores == other.cores
            && self.group == other.group
            && self.initial_config == other.initial_config
    }
}

/// Cached outcome of one cold tuning run: the full [`TuneResult`] in
/// catalog-independent script form, plus the material transfer needs.
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
    /// The exact prompt — reused verbatim by warm-start transfer.
    pub prompt: String,
    /// Workload time under the *default* configuration, when the caller
    /// measured one (the serving layer does); a hit skips that measurement
    /// too.
    pub default_time: Option<Secs>,
    /// The workload profile this entry was tuned for; nearest-neighbour
    /// transfer measures Jensen–Shannon distance against it.
    pub profile: Profile,
}

impl FleetEntry {
    /// Captures a finished cold run. `default_time` is the caller's
    /// default-configuration measurement, if it made one.
    pub fn from_result(
        result: &TuneResult,
        dbms: Dbms,
        catalog: &Catalog,
        profile: Profile,
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
            profile,
        }
    }

    /// The winning configuration script, if the cold run had a winner.
    pub fn best_script(&self) -> Option<&str> {
        self.best_index.map(|i| self.config_scripts[i].as_str())
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
        "dbms": match key.dbms {
            Dbms::Postgres => "postgres",
            Dbms::Mysql => "mysql",
        },
        "memory_bytes": format!("{:016x}", key.memory_bytes),
        "cores": key.cores as i64,
        "profile": format!("{:016x}", key.profile),
        "options": format!("{:016x}", key.options),
        "group": format!("{:016x}", key.group),
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
        dbms: match doc.get("dbms")?.as_str()? {
            "postgres" => Dbms::Postgres,
            "mysql" => Dbms::Mysql,
            _ => return None,
        },
        memory_bytes: hex_u64(doc, "memory_bytes")?,
        cores: u32::try_from(doc.get("cores")?.as_i64()?).ok()?,
        profile: hex_u64(doc, "profile")?,
        options: hex_u64(doc, "options")?,
        group: hex_u64(doc, "group")?,
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
        "profile": entry.profile.to_json(),
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
        profile: Profile::from_json(doc.get("profile")?)?,
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

    /// True when `key` is cached — without counting hit/miss or touching
    /// recency. The serving layer's prefetch planner peeks this way to
    /// decide which coalesced sessions still need samples.
    pub fn contains(&self, key: &FleetKey) -> bool {
        self.is_enabled() && self.entries.contains(key)
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

    /// Nearest cached neighbour of `profile` among entries that are
    /// [`FleetKey::transferable_from`] `key`, within `max_distance` of
    /// Jensen–Shannon divergence. Exact-profile entries are excluded (those
    /// are `lookup`'s business — and under a different seed an equal
    /// profile would shortcut sampling the session was asked to do).
    /// Deterministic under hash-map iteration order: ties break on the
    /// (profile digest, options digest) of the candidate key.
    pub fn nearest(
        &self,
        key: &FleetKey,
        profile: &Profile,
        max_distance: f64,
    ) -> Option<(f64, Arc<FleetEntry>)> {
        if !self.is_enabled() {
            return None;
        }
        let mut best: Option<(f64, (u64, u64), Arc<FleetEntry>)> = None;
        for (k, entry) in self.entries.entries() {
            if !key.transferable_from(&k) || k.profile == key.profile {
                continue;
            }
            let d = profile.jensen_shannon(&entry.profile);
            if d > max_distance {
                continue;
            }
            let order = (k.profile, k.options);
            let closer = match &best {
                None => true,
                Some((bd, border, _)) => d < *bd || (d == *bd && order < *border),
            };
            if closer {
                best = Some((d, order, entry));
            }
        }
        best.map(|(d, _, e)| (d, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_tune::LambdaTuneOptions;

    fn key(profile: u64, seed: u64) -> FleetKey {
        let opts = LambdaTuneOptions {
            seed,
            ..Default::default()
        };
        FleetKey {
            catalog: Fingerprint(7),
            dbms: Dbms::Postgres,
            memory_bytes: 1 << 30,
            cores: 8,
            profile,
            options: options_digest(&opts, true),
            group: options_digest(&opts, false),
            initial_config: hash_one(""),
        }
    }

    fn entry(profile: Profile) -> FleetEntry {
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
            profile,
        }
    }

    fn profile_of(features: &[u64]) -> Profile {
        let mut p = Profile::new();
        p.add(features);
        p
    }

    #[test]
    fn options_digest_separates_seed_from_group() {
        let a = LambdaTuneOptions {
            seed: 1,
            ..Default::default()
        };
        let b = LambdaTuneOptions {
            seed: 2,
            ..Default::default()
        };
        assert_ne!(options_digest(&a, true), options_digest(&b, true));
        assert_eq!(options_digest(&a, false), options_digest(&b, false));
        let c = LambdaTuneOptions {
            num_configs: 3,
            seed: 1,
            ..Default::default()
        };
        assert_ne!(options_digest(&a, false), options_digest(&c, false));
    }

    #[test]
    fn lookup_hits_only_exact_keys() {
        let cache = FleetCache::new(8);
        cache.insert(key(10, 1), entry(profile_of(&[1])));
        assert!(cache.lookup(&key(10, 1)).is_some());
        assert!(cache.lookup(&key(10, 2)).is_none(), "seed differs");
        assert!(cache.lookup(&key(11, 1)).is_none(), "profile differs");
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = FleetCache::new(8);
        cache.set_enabled(false);
        cache.insert(key(10, 1), entry(profile_of(&[1])));
        assert!(cache.is_empty());
        assert!(cache.lookup(&key(10, 1)).is_none());
        cache.set_enabled(true);
        cache.insert(key(10, 1), entry(profile_of(&[1])));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn nearest_picks_closest_transferable_profile() {
        let cache = FleetCache::new(8);
        // Target profile: {1, 2, 3}. Neighbour A shares 2 of 3 features;
        // neighbour B is disjoint.
        cache.insert(key(100, 1), entry(profile_of(&[1, 2, 9])));
        cache.insert(key(200, 1), entry(profile_of(&[7, 8, 9])));
        let target = profile_of(&[1, 2, 3]);
        let probe = key(target.digest(), 5);
        let (d, hit) = cache.nearest(&probe, &target, 1.0).expect("a neighbour");
        assert!(d < target.jensen_shannon(&profile_of(&[7, 8, 9])));
        assert_eq!(hit.profile, profile_of(&[1, 2, 9]));
        // A tight threshold excludes everything.
        assert!(cache.nearest(&probe, &target, 1e-6).is_none());
    }

    #[test]
    fn nearest_skips_exact_profiles_and_foreign_groups() {
        let cache = FleetCache::new(8);
        let target = profile_of(&[1, 2, 3]);
        // Same profile digest (different seed): excluded.
        cache.insert(key(target.digest(), 1), entry(target.clone()));
        // Different option group: excluded.
        let foreign_opts = LambdaTuneOptions {
            num_configs: 2,
            ..Default::default()
        };
        let mut foreign = key(50, 1);
        foreign.group = options_digest(&foreign_opts, false);
        cache.insert(foreign, entry(profile_of(&[1, 2])));
        let probe = key(target.digest(), 5);
        assert!(cache.nearest(&probe, &target, 1.0).is_none());
    }

    #[test]
    fn key_and_entry_round_trip_through_json() {
        let k = key(0xdead_beef_dead_beef, 42);
        assert_eq!(fleet_key_from_json(&fleet_key_to_json(&k)), Some(k));

        let mut e = entry(profile_of(&[1, u64::MAX, 7]));
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
        assert_eq!(back.profile, e.profile);
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
        cache.insert(key(1, 1), entry(profile_of(&[1])));
        cache.insert(key(2, 1), entry(profile_of(&[2])));
        cache.lookup(&key(1, 1)); // refresh
        cache.insert(key(3, 1), entry(profile_of(&[3])));
        assert!(cache.lookup(&key(2, 1)).is_none(), "coldest evicted");
        assert!(cache.lookup(&key(1, 1)).is_some());
        assert_eq!(cache.len(), 2);
    }
}
