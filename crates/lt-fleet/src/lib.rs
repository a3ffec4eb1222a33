//! The cross-session tuning cache behind lt-serve.
//!
//! Many tuning sessions repeat an earlier one exactly: the same catalog,
//! workload profile, hardware, backend, options (sampling seed included)
//! and initial configuration. [`FleetCache`] is a content-addressed cache
//! of finished runs, keyed by a [`FleetKey`] that fingerprints all of those
//! inputs. An exact hit replays the cached run, which is byte-identical to
//! a cold run *by construction*: the pipeline is a pure function of exactly
//! those inputs.
//!
//! The process-wide cache has a fixed capacity and no environment knobs
//! ([`FleetCache::set_enabled`] switches it at run time). Hits, misses,
//! inserts and evictions are counted under `fleet.tune_*`.

pub mod cache;

pub use cache::{
    fleet_entry_from_json, fleet_entry_to_json, fleet_key_from_json, fleet_key_to_json,
    options_digest, FleetCache, FleetEntry, FleetKey,
};
