//! Fleet-scale amortization for λ-Tune (ROADMAP "Fleet-scale
//! amortization").
//!
//! At fleet scale most tuning sessions are redundant: millions of tenants
//! present near-identical (schema, workload profile, hardware, budget)
//! tuples, yet a naive service pays the full prompt-build → LLM-sample →
//! compress → evaluate pipeline for each. This crate amortizes that cost
//! across sessions:
//!
//! * [`FleetCache`] — a content-addressed **tuning cache**. The key
//!   ([`FleetKey`]) fingerprints everything the pipeline's output depends
//!   on: catalog, workload [`Profile`] digest, hardware, DBMS flavour, the
//!   complete option set (including the sampling seed) and the initial
//!   configuration. An exact hit replays the cached winner — byte-identical
//!   to a cold run *by construction*, because the pipeline itself is a pure
//!   function of exactly those inputs.
//! * **Warm-start transfer** — on a near miss (same everything except the
//!   workload profile), the nearest cached neighbour under
//!   [`Profile::jensen_shannon`] distance seeds the new session through the
//!   existing [`WarmStart`](lambda_tune::WarmStart) path: the neighbour's
//!   prompt is reused verbatim and its winner competes as candidate 0 at a
//!   fraction of the sampling budget. Transfer results are *never* inserted
//!   back into the exact cache (they are schedule-dependent bargains, not
//!   canonical cold-run results).
//!
//! Transfer is opt-in per call ([`fleet_tune`]'s `transfer` argument); the
//! serving layer only replays exact hits. The process-wide cache has a
//! fixed capacity and no environment knobs ([`FleetCache::set_enabled`]
//! switches it at run time). Everything is observable through `fleet.*`
//! counters.

pub mod cache;
pub mod tune;

pub use cache::{
    fleet_entry_from_json, fleet_entry_to_json, fleet_key_from_json, fleet_key_to_json,
    options_digest, FleetCache, FleetEntry, FleetKey,
};
pub use tune::{fleet_tune, FleetResult, Served, TransferOptions};
