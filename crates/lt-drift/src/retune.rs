//! Warm-start incremental re-tuning.
//!
//! After a drift alarm, the session does not start tuning from scratch:
//! the previous run left behind its exact prompt and its winning
//! configuration script ([`TuneMemory`]). Re-tuning re-enters the
//! `lambda-tune` pipeline with that script injected as candidate 0 and
//! the prompt reused verbatim (or a delta prompt, [`RetuneOptions::delta`]),
//! under half the candidate and token budget ([`warm_options`]). The
//! previous winner therefore competes in the selector against the fresh
//! samples:
//! if the old configuration still wins on the drifted workload, the
//! re-tune converges immediately; if not, the cheaper sample budget is
//! usually enough because the prompt already encodes the schema and
//! hardware context.

use lambda_tune::{LambdaTune, LambdaTuneOptions, TuneObserver, TuneResult, WarmStart};
use lt_common::{obs, Result};
use lt_dbms::TuningTarget;
use lt_llm::{LanguageModel, LlmClient};
use lt_workloads::Workload;
use std::sync::Arc;

/// What a finished tuning run leaves behind for its successor.
#[derive(Debug, Clone)]
pub struct TuneMemory {
    /// The exact prompt of the previous run ([`TuneResult::prompt`]).
    pub prompt: String,
    /// The previous winner, rendered back to a script.
    pub best_script: String,
    /// The options the previous run tuned under.
    pub options: LambdaTuneOptions,
}

/// Share of the previous candidate and token budget a re-tune spends.
const BUDGET_FRACTION: f64 = 0.5;

/// Re-tune policy knobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetuneOptions {
    /// Seed override for the re-tune run; `None` keeps the previous seed
    /// (which would resample the previous run's candidates).
    pub seed: Option<u64>,
    /// Drift-aware delta prompt ([`crate::delta::delta_prompt`]). When
    /// set, it replaces the reused memory prompt — the sampling stays
    /// warm-started on the old winner, but the LLM is told what changed
    /// instead of being shown the stale reference prompt.
    pub delta: Option<String>,
}

/// Scales the previous run's options down to the warm-start budget: the
/// candidate count (which is what the token and evaluation budgets scale
/// with) is halved, floored, and kept at ≥ 1 so the seeded candidate
/// always has at least one fresh challenger — except when the previous
/// run itself had only one candidate.
pub fn warm_options(prev: &LambdaTuneOptions, seed: Option<u64>) -> LambdaTuneOptions {
    let mut opts = *prev;
    opts.num_configs = ((prev.num_configs as f64 * BUDGET_FRACTION).floor() as usize)
        .clamp(1, prev.num_configs.max(1));
    if let Some(budget) = prev.token_budget {
        opts.token_budget = Some(((budget as f64 * BUDGET_FRACTION).floor() as usize).max(1));
    }
    if let Some(seed) = seed {
        opts.seed = seed;
    }
    opts
}

/// Runs one warm-start re-tune of `workload` on `db`. The caller applies
/// the resulting best configuration; the pipeline itself only evaluates.
pub fn retune<D: TuningTarget + ?Sized, M: LanguageModel>(
    db: &mut D,
    workload: &Workload,
    llm: &LlmClient<M>,
    memory: &TuneMemory,
    opts: &RetuneOptions,
    observer: Option<Arc<dyn TuneObserver>>,
) -> Result<TuneResult> {
    let options = warm_options(&memory.options, opts.seed);
    let warm = WarmStart {
        prompt: Some(opts.delta.clone().unwrap_or_else(|| memory.prompt.clone())),
        seed_scripts: vec![memory.best_script.clone()],
    };
    let mut tuner = LambdaTune::new(options).with_warm_start(warm);
    if let Some(observer) = observer {
        tuner = tuner.with_observer(observer);
    }
    let mut span = obs::span_vt("drift.retune", db.now());
    obs::counter("drift.retunes", 1);
    let result = tuner.tune(db, workload, llm);
    span.vt_end(db.now());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_dbms::{Dbms, Hardware, SimDb};
    use lt_llm::SimulatedLlm;
    use lt_workloads::Benchmark;

    #[test]
    fn warm_options_halve_the_budgets() {
        let prev = LambdaTuneOptions {
            num_configs: 5,
            token_budget: Some(1000),
            seed: 7,
            ..Default::default()
        };
        let opts = warm_options(&prev, Some(99));
        assert_eq!(opts.num_configs, 2);
        assert_eq!(opts.token_budget, Some(500));
        assert_eq!(opts.seed, 99);
        assert_eq!(warm_options(&prev, None).seed, 7);
        // A one-candidate run keeps its one candidate.
        let single = LambdaTuneOptions {
            num_configs: 1,
            ..prev
        };
        assert_eq!(warm_options(&single, None).num_configs, 1);
    }

    #[test]
    fn retune_spends_at_most_half_the_llm_budget() {
        let w = Benchmark::TpchSf1.load();
        let mut db = SimDb::new(Dbms::Postgres, w.catalog.clone(), Hardware::p3_2xlarge(), 7);
        let llm = LlmClient::new(SimulatedLlm::new());
        let first = LambdaTune::default().tune(&mut db, &w, &llm).unwrap();
        let memory = TuneMemory {
            prompt: first.prompt.clone(),
            best_script: first
                .best_config
                .as_ref()
                .unwrap()
                .to_script(Dbms::Postgres, &w.catalog),
            options: LambdaTuneOptions::default(),
        };

        let mut db2 = SimDb::new(Dbms::Postgres, w.catalog.clone(), Hardware::p3_2xlarge(), 8);
        let llm2 = LlmClient::new(SimulatedLlm::new());
        let second = retune(
            &mut db2,
            &w,
            &llm2,
            &memory,
            &RetuneOptions {
                seed: Some(1234),
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert!(second.best_index.is_some());
        // 5 candidates → 2, one of them seeded: a single LLM call.
        assert_eq!(second.configs.len(), 2);
        assert_eq!(second.llm_usage.calls, 1);
        assert!(second.llm_usage.prompt_tokens <= first.llm_usage.prompt_tokens / 2);
        assert_eq!(second.prompt, first.prompt);
    }
}
