//! The cache-aware tuning entry point; see the crate docs.

use crate::cache::{FleetCache, FleetEntry, FleetKey};
use lambda_tune::{LambdaTune, TuneResult, WarmStart};
use lt_common::{obs, Result};
use lt_dbms::TuningTarget;
use lt_drift::{warm_options, Profile};
use lt_llm::{LanguageModel, LlmClient};
use lt_workloads::Workload;

/// Warm-start transfer parameters.
#[derive(Debug, Clone, Copy)]
pub struct TransferOptions {
    /// Maximum Jensen–Shannon distance to a cached neighbour. Profiles
    /// farther apart than this tune cold: transferring across a genuinely
    /// different workload risks anchoring on a stale winner.
    pub max_distance: f64,
    /// Fraction of the sampling/token budget kept for the transferred
    /// session (`lt-drift`'s re-tune convention: half).
    pub budget_fraction: f64,
}

/// Default transfer distance threshold — between the intra-benchmark drift
/// distances lt-drift reacts to and the ≈1.0 of cross-benchmark pairs.
const JSD_THRESHOLD: f64 = 0.35;

impl Default for TransferOptions {
    fn default() -> Self {
        TransferOptions {
            max_distance: JSD_THRESHOLD,
            budget_fraction: 0.5,
        }
    }
}

/// How a [`fleet_tune`] call was served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Served {
    /// Exact cache hit: the cached cold-run result replayed, no LLM or
    /// evaluation work at all.
    Exact,
    /// Near miss: tuned at reduced budget, warm-started from the cached
    /// neighbour at this Jensen–Shannon distance.
    Transfer(f64),
    /// Full cold run (inserted into the cache on success).
    Cold,
}

/// A [`TuneResult`] plus its provenance.
#[derive(Debug)]
pub struct FleetResult {
    /// The tuning outcome.
    pub result: TuneResult,
    /// How it was produced.
    pub served: Served,
}

/// Tunes through the fleet cache: exact hit → replay; near miss (when
/// `transfer` is given) → warm-started reduced-budget run; otherwise a cold
/// run whose result is published for the next session with this key.
///
/// Exact hits are deterministic regardless of scheduling: the entry was
/// produced by a run with the identical key, so hit and cold run return the
/// same bytes. Transfer results depend on what the cache happens to hold,
/// so they are opt-in and never published.
pub fn fleet_tune<D: TuningTarget + ?Sized, M: LanguageModel>(
    cache: &FleetCache,
    db: &mut D,
    workload: &Workload,
    llm: &LlmClient<M>,
    tuner: LambdaTune,
    initial_config: &str,
    transfer: Option<TransferOptions>,
) -> Result<FleetResult> {
    let profile = Profile::from_workload(db.catalog(), workload);
    let key = FleetKey::for_session(db, &profile, &tuner.options, initial_config);

    if let Some(entry) = cache.lookup(&key) {
        return Ok(FleetResult {
            result: entry.to_result(db),
            served: Served::Exact,
        });
    }

    if let Some(t) = transfer {
        if let Some((distance, neighbour)) = cache.nearest(&key, &profile, t.max_distance) {
            obs::counter("fleet.transfer", 1);
            let options = warm_options(&tuner.options, t.budget_fraction, None);
            let warm = WarmStart {
                prompt: Some(neighbour.prompt.clone()),
                seed_scripts: neighbour
                    .best_script()
                    .map(str::to_string)
                    .into_iter()
                    .collect(),
            };
            let warm_tuner = LambdaTune {
                options,
                warm_start: Some(warm),
                ..tuner
            };
            let result = warm_tuner.tune(db, workload, llm)?;
            return Ok(FleetResult {
                result,
                served: Served::Transfer(distance),
            });
        }
    }

    let dbms = db.dbms();
    let result = tuner.tune(db, workload, llm)?;
    if !result.cancelled {
        cache.insert(
            key,
            FleetEntry::from_result(&result, dbms, db.catalog(), profile, None),
        );
    }
    Ok(FleetResult {
        result,
        served: Served::Cold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_tune::LambdaTuneOptions;
    use lt_dbms::{Dbms, Hardware, SimDb};
    use lt_llm::SimulatedLlm;
    use lt_workloads::Benchmark;

    fn session(seed: u64) -> (SimDb, Workload, LlmClient<SimulatedLlm>) {
        let w = Benchmark::TpchSf1.load();
        let db = SimDb::new(
            Dbms::Postgres,
            w.catalog.clone(),
            Hardware::p3_2xlarge(),
            seed,
        );
        (db, w, LlmClient::new(SimulatedLlm::new()))
    }

    fn opts(seed: u64) -> LambdaTuneOptions {
        LambdaTuneOptions {
            num_configs: 3,
            seed,
            ..Default::default()
        }
    }

    fn scripts(r: &TuneResult, w: &Workload) -> Vec<String> {
        r.configs
            .iter()
            .map(|c| c.to_script(Dbms::Postgres, &w.catalog))
            .collect()
    }

    /// Property (a): the cache-hit result is byte-identical to the cold-run
    /// result for the same key.
    #[test]
    fn exact_hit_replays_the_cold_run_byte_for_byte() {
        let cache = FleetCache::new(16);
        let (mut db, w, llm) = session(7);
        let cold = fleet_tune(
            &cache,
            &mut db,
            &w,
            &llm,
            LambdaTune::new(opts(7)),
            "",
            None,
        )
        .unwrap();
        assert_eq!(cold.served, Served::Cold);
        assert_eq!(cache.len(), 1);

        let (mut db2, _, llm2) = session(7);
        let hit = fleet_tune(
            &cache,
            &mut db2,
            &w,
            &llm2,
            LambdaTune::new(opts(7)),
            "",
            None,
        )
        .unwrap();
        assert_eq!(hit.served, Served::Exact);
        // The replayed result reports the cold run's usage (that is what a
        // cold run would have returned); the *actual* spend on a hit is
        // zero — the session's client was never called.
        assert_eq!(hit.result.llm_usage, cold.result.llm_usage);
        assert_eq!(llm2.usage().calls, 0, "no sampling on a hit");

        assert_eq!(scripts(&cold.result, &w), scripts(&hit.result, &w));
        assert_eq!(cold.result.best_index, hit.result.best_index);
        assert_eq!(cold.result.best_time, hit.result.best_time);
        assert_eq!(cold.result.trajectory, hit.result.trajectory);
        assert_eq!(cold.result.rounds, hit.result.rounds);
        assert_eq!(cold.result.tuning_time, hit.result.tuning_time);
        assert_eq!(cold.result.prompt, hit.result.prompt);
        assert_eq!(cold.result.workload_tokens, hit.result.workload_tokens);
        assert_eq!(
            cold.result
                .best_config
                .as_ref()
                .map(|c| c.to_script(Dbms::Postgres, &w.catalog)),
            hit.result
                .best_config
                .as_ref()
                .map(|c| c.to_script(Dbms::Postgres, &w.catalog)),
        );
    }

    #[test]
    fn different_seed_or_workload_misses() {
        let cache = FleetCache::new(16);
        let (mut db, w, llm) = session(7);
        fleet_tune(
            &cache,
            &mut db,
            &w,
            &llm,
            LambdaTune::new(opts(7)),
            "",
            None,
        )
        .unwrap();

        let (mut db2, _, llm2) = session(8);
        let other_seed = fleet_tune(
            &cache,
            &mut db2,
            &w,
            &llm2,
            LambdaTune::new(opts(8)),
            "",
            None,
        )
        .unwrap();
        assert_eq!(other_seed.served, Served::Cold);

        let w2 = Benchmark::TpcdsSf1.load();
        let mut db3 = SimDb::new(
            Dbms::Postgres,
            w2.catalog.clone(),
            Hardware::p3_2xlarge(),
            7,
        );
        let llm3 = LlmClient::new(SimulatedLlm::new());
        let other_workload = fleet_tune(
            &cache,
            &mut db3,
            &w2,
            &llm3,
            LambdaTune::new(opts(7)),
            "",
            None,
        )
        .unwrap();
        assert_eq!(other_workload.served, Served::Cold);
        assert_eq!(cache.len(), 3);
    }

    /// Property (c): warm-start transfer stays within the ≤1.05 cold-run
    /// quality bound (the PR 5 warm-retune contract), while spending at
    /// most half the tokens.
    #[test]
    fn transfer_meets_quality_bound_at_reduced_cost() {
        let cache = FleetCache::new(16);
        let base = Benchmark::TpchSf1.load();
        let (mut db, _, llm) = session(7);
        let seeded = fleet_tune(
            &cache,
            &mut db,
            &base,
            &llm,
            LambdaTune::new(LambdaTuneOptions {
                seed: 7,
                ..Default::default()
            }),
            "",
            None,
        )
        .unwrap();
        assert_eq!(seeded.served, Served::Cold);

        // A drifted workload on the same catalog: near-miss territory.
        let drifted = lt_drift::drifted_workload().unwrap();
        let run_opts = LambdaTuneOptions {
            seed: 11,
            ..Default::default()
        };

        let (mut db_cold, _, llm_cold) = session(11);
        let cold = LambdaTune::new(run_opts)
            .tune(&mut db_cold, &drifted, &llm_cold)
            .unwrap();

        let (mut db_warm, _, llm_warm) = session(11);
        let warm = fleet_tune(
            &cache,
            &mut db_warm,
            &drifted,
            &llm_warm,
            LambdaTune::new(run_opts),
            "",
            Some(TransferOptions {
                max_distance: 1.0,
                budget_fraction: 0.5,
            }),
        )
        .unwrap();
        let Served::Transfer(d) = warm.served else {
            panic!("expected a transfer, got {:?}", warm.served);
        };
        assert!(d > 0.0 && d <= 1.0);

        let ratio = warm.result.best_time.as_f64() / cold.best_time.as_f64();
        assert!(
            ratio <= 1.05,
            "transfer quality ratio {ratio} exceeds the 1.05 bound"
        );
        assert!(
            warm.result.llm_usage.prompt_tokens <= cold.llm_usage.prompt_tokens / 2,
            "transfer must spend at most half the prompt tokens ({} vs {})",
            warm.result.llm_usage.prompt_tokens,
            cold.llm_usage.prompt_tokens
        );
        // Transfer results are never published as canonical entries.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn transfer_is_skipped_beyond_the_distance_threshold() {
        let cache = FleetCache::new(16);
        let (mut db, w, llm) = session(7);
        fleet_tune(&cache, &mut db, &w, &llm, LambdaTune::default(), "", None).unwrap();

        let drifted = lt_drift::drifted_workload().unwrap();
        let (mut db2, _, llm2) = session(11);
        let tuner = LambdaTune::new(LambdaTuneOptions {
            seed: 11,
            ..Default::default()
        });
        let out = fleet_tune(
            &cache,
            &mut db2,
            &drifted,
            &llm2,
            tuner,
            "",
            Some(TransferOptions {
                max_distance: 1e-9,
                budget_fraction: 0.5,
            }),
        )
        .unwrap();
        assert_eq!(out.served, Served::Cold, "distance gate must hold");
    }
}
