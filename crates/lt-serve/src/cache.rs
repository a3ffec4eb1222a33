//! The cross-session tuning cache.
//!
//! Many tuning sessions repeat an earlier one exactly: the same catalog,
//! workload profile, hardware, backend, options (sampling seed included)
//! and initial configuration. [`FleetCache`] holds the [`Outcome`] of each
//! finished cold tune, keyed by a [`FleetKey`] that fingerprints all of
//! those inputs. An exact hit serves the cached result, which is
//! byte-identical to a cold run *by construction*: the pipeline is a pure
//! function of exactly those inputs.
//!
//! The cache is not logged on its own: write-ahead-log recovery refills it
//! from each session's first `done` record ([`crate::wal::restore`]).
//!
//! The process-wide cache has a fixed capacity and no environment knobs
//! ([`FleetCache::set_enabled`] switches it at run time). Hits, misses,
//! inserts and evictions are counted under `fleet.tune_*`.

use crate::session::TuneRequest;
use crate::wal::Outcome;
use lambda_tune::LambdaTuneOptions;
use lt_common::lru::{Counters, Memo};
use lt_common::{hash_one, obs, Fingerprint, FxHasher};
use lt_dbms::Dbms;
use lt_drift::Profile;
use lt_workloads::Workload;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Bound on the process-wide cache's tuning sessions.
const GLOBAL_CAP: usize = 1024;

/// Digest of every [`LambdaTuneOptions`] field, the sampling seed included:
/// it addresses one exact sampling run.
pub(crate) fn options_digest(opts: &LambdaTuneOptions) -> u64 {
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
/// results, so the cached outcome can stand in for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct FleetKey {
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
    /// Key for tuning `workload` (the request's benchmark, loaded) as
    /// `request` asks. Everything comes from the request: the catalog
    /// fingerprint covers schema and statistics, which neither the seed
    /// nor the indexes of an initial configuration change.
    pub(crate) fn for_request(request: &TuneRequest, workload: &Workload) -> FleetKey {
        FleetKey {
            catalog: workload.catalog.fingerprint(),
            backend: hash_one(request.backend.name()),
            dbms: request.dbms,
            memory_bytes: request.hardware.memory_bytes,
            cores: request.hardware.cores,
            profile: Profile::from_workload(&workload.catalog, workload).digest(),
            options: options_digest(&request.options),
            initial_config: hash_one(request.initial_config.as_deref().unwrap_or("")),
        }
    }
}

/// The cross-session tuning cache (bounded LRU; see the module docs).
#[derive(Debug)]
pub struct FleetCache {
    entries: Memo<FleetKey, Arc<Outcome>>,
    enabled: AtomicBool,
}

impl FleetCache {
    /// Cache bounded to `cap` sessions, enabled.
    pub(crate) fn new(cap: usize) -> FleetCache {
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
    pub(crate) fn lookup(&self, key: &FleetKey) -> Option<Arc<Outcome>> {
        if !self.is_enabled() {
            return None;
        }
        self.entries.get(key)
    }

    /// Publishes a finished cold tune. Counts `fleet.tune_insert`, and
    /// `fleet.tune_evict` when it displaced the coldest entry.
    pub(crate) fn insert(&self, key: FleetKey, outcome: Outcome) {
        if self.is_enabled() && self.entries.insert(key, Arc::new(outcome)) {
            obs::counter("fleet.tune_insert", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_common::json::parse;

    fn request(body: &str) -> TuneRequest {
        TuneRequest::from_json(&parse(body).unwrap()).unwrap()
    }

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

    fn outcome() -> Outcome {
        Outcome {
            best_script: Some("SET work_mem = '64MB';".into()),
            prompt: "p".into(),
            ..Outcome::default()
        }
    }

    fn opts(num_configs: usize, seed: u64) -> LambdaTuneOptions {
        LambdaTuneOptions {
            num_configs,
            seed,
            ..Default::default()
        }
    }

    /// Pinned: a digest that moved would change every fleet key, so no
    /// request would hit the entries a running daemon already holds.
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

    /// Whole keys, pinned at the values the worker computed when it read
    /// the catalog fingerprint, hardware and flavour from an opened
    /// database with the initial configuration applied.
    #[test]
    fn request_keys_are_pinned() {
        for (body, digest) in [
            ("{}", 0x19d2_576c_4ac9_92dd),
            (
                r#"{"benchmark": "tpch", "seed": 7, "num_configs": 3, "backend": "store",
                    "hardware": "small", "dbms": "mysql",
                    "initial_config": "CREATE INDEX ON lineitem (l_orderkey);"}"#,
                0x9abc_4864_e74e_e48d,
            ),
            (
                r#"{"benchmark": "job", "seed": 9100, "num_configs": 2,
                    "initial_config": "SET work_mem = '64MB'; CREATE INDEX ON title (kind_id);"}"#,
                0xfe5b_4a06_54a4_878a,
            ),
        ] {
            let req = request(body);
            let key = FleetKey::for_request(&req, &req.benchmark.load());
            assert_eq!(hash_one(&key), digest, "{body}: {key:?}");
        }
    }

    #[test]
    fn for_request_key_changes_with_each_input() {
        let key_of = |body: &str| {
            let req = request(body);
            FleetKey::for_request(&req, &req.benchmark.load())
        };
        let base = key_of(r#"{"seed": 7, "num_configs": 3}"#);
        assert_eq!(
            base,
            key_of(r#"{"seed": 7, "num_configs": 3}"#),
            "equal inputs, equal keys"
        );
        for (what, body) in [
            ("seed", r#"{"seed": 8, "num_configs": 3}"#),
            (
                "workload",
                r#"{"benchmark": "tpcds", "seed": 7, "num_configs": 3}"#,
            ),
            (
                "initial config",
                r#"{"seed": 7, "num_configs": 3, "initial_config": "SET work_mem = '64MB';"}"#,
            ),
            ("options", r#"{"seed": 7, "num_configs": 2}"#),
            (
                "hardware",
                r#"{"seed": 7, "num_configs": 3, "hardware": "small"}"#,
            ),
            (
                "backend",
                r#"{"seed": 7, "num_configs": 3, "backend": "store"}"#,
            ),
            ("dbms", r#"{"seed": 7, "num_configs": 3, "dbms": "mysql"}"#),
        ] {
            assert_ne!(base, key_of(body), "{what} must change the key");
        }
    }

    #[test]
    fn lookup_hits_only_exact_keys() {
        let cache = FleetCache::new(8);
        cache.insert(key(10, 1), outcome());
        assert_eq!(cache.lookup(&key(10, 1)).as_deref(), Some(&outcome()));
        assert!(cache.lookup(&key(10, 2)).is_none(), "seed differs");
        assert!(cache.lookup(&key(11, 1)).is_none(), "profile differs");
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = FleetCache::new(8);
        cache.set_enabled(false);
        cache.insert(key(10, 1), outcome());
        assert!(cache.is_empty());
        assert!(cache.lookup(&key(10, 1)).is_none());
        cache.set_enabled(true);
        cache.insert(key(10, 1), outcome());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_bound_evicts_cold_sessions() {
        let cache = FleetCache::new(2);
        cache.insert(key(1, 1), outcome());
        cache.insert(key(2, 1), outcome());
        cache.lookup(&key(1, 1)); // refresh
        cache.insert(key(3, 1), outcome());
        assert!(cache.lookup(&key(2, 1)).is_none(), "coldest evicted");
        assert!(cache.lookup(&key(1, 1)).is_some());
        assert_eq!(cache.len(), 2);
    }
}
