//! The end-to-end λ-Tune pipeline (paper Algorithm 1).

use crate::compressor::Compressor;
use crate::evaluator::Evaluator;
use crate::progress::{ProgressEvent, TuneObserver};
use crate::prompt::PromptBuilder;
use crate::selector::{ConfigSelector, SelectorOptions, TrajectoryPoint};
use crate::snippets::extract_snippets;
use lt_common::{derive_seed, obs, secs, LtError, Result, Secs};
use lt_dbms::{ConfigCommand, Configuration, TuningTarget};
use lt_llm::{LanguageModel, LlmClient, LlmUsage};
use lt_workloads::{Obfuscator, Workload};
use std::sync::Arc;

/// λ-Tune options. The defaults match the paper's experimental setup
/// (§6.1): 5 LLM samples, 10 s initial timeout, α = 10.
#[derive(Debug, Clone, Copy)]
pub struct LambdaTuneOptions {
    /// Number of configurations sampled from the LLM (k).
    pub num_configs: usize,
    /// LLM sampling temperature.
    pub temperature: f64,
    /// Token budget for the workload description; `None` fits as much as
    /// possible within the model's context window.
    pub token_budget: Option<usize>,
    /// Restrict tuning to system parameters (Scenario 1: no index DDL).
    pub params_only: bool,
    /// Keep only index recommendations, dropping knob changes (the
    /// index-recommendation comparison of Figure 8).
    pub indexes_only: bool,
    /// Use the ILP workload compressor; `false` sends full SQL queries
    /// (the §6.4.4 ablation).
    pub use_compressor: bool,
    /// Obfuscate table/column names in the snippets (§6.4.3 ablation).
    pub obfuscate: bool,
    /// Use the DP query scheduler (§6.4.2 ablation toggles this off).
    pub use_scheduler: bool,
    /// Selector parameters (timeouts; §6.4.1 ablation lives here).
    pub selector: SelectorOptions,
    /// Simulated per-call LLM latency charged to the tuning clock.
    pub llm_latency: Secs,
    /// Base seed for LLM sampling and scheduling.
    pub seed: u64,
}

impl LambdaTuneOptions {
    /// Rejects option combinations that cannot produce a meaningful tuning
    /// run. [`LambdaTune::tune`] calls this first, so a malformed request
    /// reaching a long-lived server (zero samples, zero token budget, NaN
    /// temperature) fails its own run with an [`LtError`] instead of
    /// panicking somewhere inside the pipeline.
    pub fn validate(&self) -> Result<()> {
        let reject = |what: &str| Err(LtError::Tuning(format!("invalid options: {what}")));
        if self.num_configs == 0 {
            return reject("num_configs must be at least 1");
        }
        if self.token_budget == Some(0) {
            return reject("token_budget must be positive (omit it for the default)");
        }
        if !self.temperature.is_finite() || self.temperature < 0.0 {
            return reject("temperature must be finite and non-negative");
        }
        if !self.llm_latency.as_f64().is_finite() || self.llm_latency < Secs::ZERO {
            return reject("llm_latency must be finite and non-negative");
        }
        if self.params_only && self.indexes_only {
            return reject("params_only and indexes_only are mutually exclusive");
        }
        if !(self.selector.initial_timeout > Secs::ZERO
            && self.selector.initial_timeout.is_finite())
        {
            return reject("selector.initial_timeout must be positive and finite");
        }
        if !self.selector.alpha.is_finite() || self.selector.alpha <= 1.0 {
            return reject("selector.alpha must be finite and greater than 1");
        }
        if self.selector.max_rounds == 0 {
            return reject("selector.max_rounds must be at least 1");
        }
        Ok(())
    }
}

impl Default for LambdaTuneOptions {
    fn default() -> Self {
        LambdaTuneOptions {
            num_configs: 5,
            temperature: 0.7,
            token_budget: None,
            params_only: false,
            indexes_only: false,
            use_compressor: true,
            obfuscate: false,
            use_scheduler: true,
            selector: SelectorOptions::default(),
            llm_latency: secs(5.0),
            seed: 0,
        }
    }
}

/// Warm-start material carried over from a previous tuning run of the same
/// session (the drift/re-tuning loop). Reusing the previous prompt skips
/// snippet extraction and compression; seed scripts are parsed
/// into candidate configurations *before* any LLM sampling, so the previous
/// winner competes as candidate 0 under the selector's timeouts.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Prompt to reuse verbatim instead of rebuilding one. `None` rebuilds
    /// the prompt from the (possibly changed) workload as usual.
    pub prompt: Option<String>,
    /// Configuration scripts injected as the first candidates. Counted
    /// against [`LambdaTuneOptions::num_configs`]: only the remainder is
    /// sampled from the LLM.
    pub seed_scripts: Vec<String>,
}

/// Outcome of one tuning run.
#[derive(Debug)]
pub struct TuneResult {
    /// The winning configuration, if any candidate completed the workload.
    pub best_config: Option<Configuration>,
    /// Index of the winner among [`TuneResult::configs`].
    pub best_index: Option<usize>,
    /// Workload execution time under the winner.
    pub best_time: Secs,
    /// All candidate configurations parsed from LLM samples.
    pub configs: Vec<Configuration>,
    /// Improvement events over optimization time (Figures 3/4/6).
    pub trajectory: Vec<TrajectoryPoint>,
    /// LLM token usage (monetary-fee accounting).
    pub llm_usage: LlmUsage,
    /// Tokens spent on the workload description inside the prompt.
    pub workload_tokens: usize,
    /// Selector rounds executed.
    pub rounds: usize,
    /// Total virtual tuning time.
    pub tuning_time: Secs,
    /// The exact prompt sent to the LLM — re-tuning feeds it back through
    /// [`WarmStart::prompt`] to skip prompt construction entirely.
    pub prompt: String,
    /// True when an observer cancelled the run; the result then reflects
    /// the best configuration found before the cancellation point.
    pub cancelled: bool,
}

/// The λ-Tune tuner.
#[derive(Clone, Default)]
pub struct LambdaTune {
    /// Options.
    pub options: LambdaTuneOptions,
    /// Optional progress/cancellation hook (the serving layer's per-session
    /// sink); see [`crate::progress`].
    pub observer: Option<Arc<dyn TuneObserver>>,
    /// Optional warm-start material from a previous run; see [`WarmStart`].
    pub warm_start: Option<WarmStart>,
    /// LLM sampling batch size: seeds are fetched in chunks of this size
    /// through [`LlmClient::complete_batch`], which charges the prompt once
    /// per chunk instead of once per sample. `0`/`1` (the default) keeps
    /// the historical one-call-per-sample behaviour. Any value yields
    /// byte-identical configurations — only token accounting changes.
    pub sample_batch: usize,
}

impl std::fmt::Debug for LambdaTune {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LambdaTune")
            .field("options", &self.options)
            .field(
                "observer",
                &self.observer.as_ref().map(|_| "<dyn TuneObserver>"),
            )
            .field("warm_start", &self.warm_start)
            .field("sample_batch", &self.sample_batch)
            .finish()
    }
}

impl LambdaTune {
    /// Tuner with the given options.
    pub fn new(options: LambdaTuneOptions) -> Self {
        LambdaTune {
            options,
            ..Self::default()
        }
    }

    /// Attaches a progress/cancellation observer: it receives a
    /// [`ProgressEvent`] per pipeline milestone and is polled for
    /// cancellation between units of work.
    pub fn with_observer(mut self, observer: Arc<dyn TuneObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Seeds this run with material from a previous one; see [`WarmStart`].
    pub fn with_warm_start(mut self, warm: WarmStart) -> Self {
        self.warm_start = Some(warm);
        self
    }

    /// Sets the LLM sampling batch size (see the field docs).
    pub fn with_sample_batch(mut self, batch: usize) -> Self {
        self.sample_batch = batch;
        self
    }

    /// Builds the exact prompt [`tune`](Self::tune) sends for this session,
    /// plus the workload-token count it reports. Pure in (db state,
    /// workload, options, warm start) and makes no LLM calls.
    pub fn build_prompt<D: TuningTarget + ?Sized, M: LanguageModel>(
        &self,
        db: &D,
        workload: &Workload,
        llm: &LlmClient<M>,
    ) -> Result<(String, usize)> {
        let opts = &self.options;
        let builder = PromptBuilder::new(db.dbms(), db.hardware()).params_only(opts.params_only);
        let obfuscator = opts.obfuscate.then(|| Obfuscator::new(db.catalog()));
        let reused_prompt = self.warm_start.as_ref().and_then(|w| w.prompt.clone());
        Ok(if let Some(prompt) = reused_prompt {
            // Warm start: the previous run's prompt verbatim — no snippet
            // extraction or compression is repeated.
            let tokens = lt_llm::count_tokens(&prompt);
            (prompt, tokens)
        } else if opts.use_compressor {
            let snippets = extract_snippets(db, workload);
            let budget = opts
                .token_budget
                .unwrap_or_else(|| llm.model().context_window() / 16);
            let compressor = match &obfuscator {
                Some(ob) => Compressor::obfuscated(db.catalog(), ob),
                None => Compressor::new(db.catalog()),
            };
            let compressed = compressor.compress(&snippets, budget)?;
            let tokens = compressed.tokens;
            (builder.build(&compressed), tokens)
        } else {
            let budget = opts
                .token_budget
                .unwrap_or_else(|| llm.model().context_window() / 16);
            let (prompt, _included) = builder.build_with_full_sql(workload, budget);
            let tokens = lt_llm::count_tokens(&prompt);
            (prompt, tokens)
        })
    }

    /// Runs the full pipeline: prompt generation → k LLM samples →
    /// configuration selection. Returns the best configuration found.
    pub fn tune<D: TuningTarget + ?Sized, M: LanguageModel>(
        &self,
        db: &mut D,
        workload: &Workload,
        llm: &LlmClient<M>,
    ) -> Result<TuneResult> {
        let start = db.now();
        let opts = &self.options;
        opts.validate()?;
        let observer = self.observer.as_deref();
        let cancelled = || observer.is_some_and(|o| o.cancelled());
        let mut tune_span = obs::span_vt("tune", start);

        // ---- prompt generation (§3) ----
        let mut prompt_span = obs::span_vt("tune.prompt_build", db.now());
        let obfuscator = opts.obfuscate.then(|| Obfuscator::new(db.catalog()));
        let (prompt, workload_tokens) = self.build_prompt(db, workload, llm)?;
        prompt_span.vt_end(db.now());
        drop(prompt_span);
        if let Some(o) = observer {
            o.on_event(ProgressEvent::PromptBuilt {
                tokens: workload_tokens,
            });
        }
        // ---- warm-start seed candidates + k LLM samples ----
        // Seed scripts occupy the leading candidate slots and cost no LLM
        // calls; the remaining slots are sampled as usual. The sample seeds
        // stay indexed by candidate position, so a run without warm start
        // is bit-identical to the pre-warm-start pipeline.
        let restrict_scope = |config: &mut Configuration| {
            if opts.params_only {
                config
                    .commands
                    .retain(|c| !matches!(c, ConfigCommand::CreateIndex(_)));
            }
            if opts.indexes_only {
                config
                    .commands
                    .retain(|c| matches!(c, ConfigCommand::CreateIndex(_)));
            }
        };
        let mut sampling_cancelled = false;
        let mut configs = Vec::with_capacity(opts.num_configs);
        if let Some(warm) = &self.warm_start {
            for script in warm.seed_scripts.iter().take(opts.num_configs) {
                let mut config = Configuration::parse(script, db.dbms(), db.catalog());
                restrict_scope(&mut config);
                configs.push(config);
                if let Some(o) = observer {
                    o.on_event(ProgressEvent::ConfigSampled {
                        index: configs.len() - 1,
                        total: opts.num_configs,
                    });
                }
            }
        }
        // Sampling is pure in (prompt, temperature, per-candidate seed), so
        // the batch size cannot change which configurations come back — and
        // the clock is charged `llm_latency` per candidate however the
        // sample was fetched, so the selector's virtual timeline (and with
        // it every trajectory point) is byte-identical across batch sizes.
        let batch = self.sample_batch.max(1);
        let mut prefetched: std::collections::HashMap<u64, String> =
            std::collections::HashMap::new();
        for i in configs.len()..opts.num_configs {
            if cancelled() {
                sampling_cancelled = true;
                break;
            }
            let seed = derive_seed(opts.seed, i as u64);
            // At batch sizes > 1 the chunk covering this candidate is
            // fetched up front with one metered call (prompt charged once).
            if batch > 1 && !prefetched.contains_key(&seed) {
                let chunk: Vec<u64> = (i..(i + batch).min(opts.num_configs))
                    .map(|j| derive_seed(opts.seed, j as u64))
                    .collect();
                let fresh = llm.complete_batch(&prompt, opts.temperature, &chunk)?;
                prefetched.extend(chunk.into_iter().zip(fresh));
            }
            let mut sample_span = obs::span_vt("tune.llm_sample", db.now());
            let response = match prefetched.remove(&seed) {
                Some(response) => response,
                None => llm.complete(&prompt, opts.temperature, seed)?,
            };
            db.clock_advance(opts.llm_latency);
            sample_span.vt_end(db.now());
            drop(sample_span);
            let script = match &obfuscator {
                Some(ob) => deobfuscate_script(&response, ob),
                None => response,
            };
            let mut config = Configuration::parse(&script, db.dbms(), db.catalog());
            restrict_scope(&mut config);
            configs.push(config);
            if let Some(o) = observer {
                o.on_event(ProgressEvent::ConfigSampled {
                    index: i,
                    total: opts.num_configs,
                });
            }
        }

        // ---- configuration selection (§4) ----
        let mut select_span = obs::span_vt("tune.select", db.now());
        let evaluator = Evaluator {
            use_scheduler: opts.use_scheduler,
            seed: opts.seed,
        };
        let selector = ConfigSelector::new(opts.selector, evaluator);
        let selection = selector.select_observed(db, workload, &configs, observer);
        select_span.vt_end(db.now());
        drop(select_span);
        tune_span.vt_end(db.now());

        Ok(TuneResult {
            best_config: selection.best.map(|i| configs[i].clone()),
            best_index: selection.best,
            best_time: selection.best_time,
            configs,
            trajectory: selection.trajectory,
            llm_usage: llm.usage(),
            workload_tokens,
            rounds: selection.rounds,
            tuning_time: db.now() - start,
            prompt,
            cancelled: sampling_cancelled || selection.cancelled,
        })
    }
}

/// Replaces obfuscated identifiers (`T<i>`, `C<j>`) in an LLM response with
/// their real names so the configuration can be applied to the database.
pub fn deobfuscate_script(script: &str, obfuscator: &Obfuscator) -> String {
    let mut out = String::with_capacity(script.len());
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        if word.is_empty() {
            return;
        }
        if let Some(real) = obfuscator.deobfuscate_table(word) {
            out.push_str(real);
        } else if let Some((_, column)) = obfuscator.deobfuscate_column(word) {
            out.push_str(column);
        } else {
            out.push_str(word);
        }
        word.clear();
    };
    for ch in script.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            word.push(ch);
        } else {
            flush(&mut word, &mut out);
            out.push(ch);
        }
    }
    flush(&mut word, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_dbms::{Dbms, Hardware, SimDb};
    use lt_llm::SimulatedLlm;
    use lt_workloads::Benchmark;

    fn setup() -> (SimDb, Workload, LlmClient<SimulatedLlm>) {
        let w = Benchmark::TpchSf1.load();
        let db = SimDb::new(Dbms::Postgres, w.catalog.clone(), Hardware::p3_2xlarge(), 7);
        (db, w, LlmClient::new(SimulatedLlm::new()))
    }

    #[test]
    fn end_to_end_tpch_beats_defaults() {
        let (mut db, w, llm) = setup();
        let result = LambdaTune::default().tune(&mut db, &w, &llm).unwrap();
        let best = result.best_config.expect("a configuration must win");
        assert!(result.best_time.is_finite());
        assert_eq!(result.configs.len(), 5);
        assert_eq!(result.llm_usage.calls, 5);

        // Compare the winner against the default configuration by running
        // the workload under both.
        let mut fresh = SimDb::new(Dbms::Postgres, w.catalog.clone(), Hardware::p3_2xlarge(), 7);
        let mut default_time = Secs::ZERO;
        for q in &w.queries {
            default_time += fresh.execute(&q.parsed, Secs::INFINITY).time;
        }
        assert!(
            result.best_time < default_time,
            "λ-Tune {} should beat default {default_time}",
            result.best_time
        );
        assert!(!best.is_empty());
    }

    #[test]
    fn params_only_configs_have_no_indexes() {
        let (mut db, w, llm) = setup();
        let options = LambdaTuneOptions {
            params_only: true,
            ..Default::default()
        };
        let result = LambdaTune::new(options).tune(&mut db, &w, &llm).unwrap();
        for config in &result.configs {
            assert!(config.index_specs().is_empty());
        }
        assert!(result.best_index.is_some());
    }

    #[test]
    fn obfuscated_run_still_produces_valid_configs() {
        let (mut db, w, llm) = setup();
        let options = LambdaTuneOptions {
            obfuscate: true,
            ..Default::default()
        };
        let result = LambdaTune::new(options).tune(&mut db, &w, &llm).unwrap();
        assert!(result.best_index.is_some());
        // Index specs must reference real catalog objects (deobfuscation
        // succeeded): parse guarantees that, so any index command present
        // proves the round trip.
        let any_indexes = result.configs.iter().any(|c| !c.index_specs().is_empty());
        assert!(
            any_indexes,
            "obfuscated pipeline should still recommend indexes"
        );
    }

    #[test]
    fn tiny_token_budget_degrades_coverage_not_correctness() {
        let (mut db, w, llm) = setup();
        let options = LambdaTuneOptions {
            token_budget: Some(40),
            ..Default::default()
        };
        let result = LambdaTune::new(options).tune(&mut db, &w, &llm).unwrap();
        assert!(result.workload_tokens <= 40);
        assert!(result.best_index.is_some());
    }

    #[test]
    fn full_sql_mode_works() {
        let (mut db, w, llm) = setup();
        let options = LambdaTuneOptions {
            use_compressor: false,
            token_budget: Some(4000),
            ..Default::default()
        };
        let result = LambdaTune::new(options).tune(&mut db, &w, &llm).unwrap();
        assert!(result.best_index.is_some());
    }

    #[test]
    fn deobfuscate_script_roundtrip() {
        let w = Benchmark::TpchSf1.load();
        let ob = Obfuscator::new(&w.catalog);
        let t = ob.table("lineitem");
        let c = ob.column("lineitem", "l_orderkey");
        let script = format!("CREATE INDEX ON {t} ({c});");
        let real = deobfuscate_script(&script, &ob);
        assert_eq!(real, "CREATE INDEX ON lineitem (l_orderkey);");
        // Unknown identifiers pass through.
        assert_eq!(
            deobfuscate_script("SET work_mem = '1GB';", &ob),
            "SET work_mem = '1GB';"
        );
    }

    #[test]
    fn zero_num_configs_is_rejected_not_panicking() {
        let (mut db, w, llm) = setup();
        let options = LambdaTuneOptions {
            num_configs: 0,
            ..Default::default()
        };
        let err = LambdaTune::new(options)
            .tune(&mut db, &w, &llm)
            .unwrap_err();
        assert_eq!(err.category(), "tuning");
        assert!(err.message().contains("num_configs"), "{err}");
    }

    #[test]
    fn zero_token_budget_is_rejected_not_panicking() {
        let (mut db, w, llm) = setup();
        let options = LambdaTuneOptions {
            token_budget: Some(0),
            ..Default::default()
        };
        let err = LambdaTune::new(options)
            .tune(&mut db, &w, &llm)
            .unwrap_err();
        assert_eq!(err.category(), "tuning");
        assert!(err.message().contains("token_budget"), "{err}");
    }

    #[test]
    fn malformed_numeric_options_are_rejected() {
        for options in [
            LambdaTuneOptions {
                temperature: f64::NAN,
                ..Default::default()
            },
            LambdaTuneOptions {
                llm_latency: Secs::INFINITY,
                ..Default::default()
            },
            LambdaTuneOptions {
                params_only: true,
                indexes_only: true,
                ..Default::default()
            },
            LambdaTuneOptions {
                selector: crate::SelectorOptions {
                    alpha: 1.0,
                    ..Default::default()
                },
                ..Default::default()
            },
            LambdaTuneOptions {
                selector: crate::SelectorOptions {
                    initial_timeout: Secs::ZERO,
                    ..Default::default()
                },
                ..Default::default()
            },
        ] {
            let err = options.validate().unwrap_err();
            assert_eq!(err.category(), "tuning", "{options:?}");
        }
        assert!(LambdaTuneOptions::default().validate().is_ok());
    }

    #[test]
    fn pre_cancelled_run_returns_without_llm_calls() {
        let (mut db, w, llm) = setup();
        let token = crate::CancelToken::new();
        token.cancel();
        let result = LambdaTune::default()
            .with_observer(std::sync::Arc::new(token))
            .tune(&mut db, &w, &llm)
            .unwrap();
        assert!(result.cancelled);
        assert!(result.best_config.is_none());
        assert_eq!(result.llm_usage.calls, 0);
    }

    #[test]
    fn cancellation_mid_run_keeps_best_so_far() {
        use crate::progress::{ProgressEvent, TuneObserver};
        use std::sync::atomic::{AtomicBool, Ordering};

        /// Cancels as soon as the first improvement is reported.
        #[derive(Default)]
        struct StopAtFirstWin {
            hit: AtomicBool,
            events: std::sync::Mutex<Vec<ProgressEvent>>,
        }
        impl TuneObserver for StopAtFirstWin {
            fn on_event(&self, event: ProgressEvent) {
                if matches!(event, ProgressEvent::Improvement { .. }) {
                    self.hit.store(true, Ordering::Relaxed);
                }
                self.events.lock().unwrap().push(event);
            }
            fn cancelled(&self) -> bool {
                self.hit.load(Ordering::Relaxed)
            }
        }

        let (mut db, w, llm) = setup();
        let observer = std::sync::Arc::new(StopAtFirstWin::default());
        let result = LambdaTune::default()
            .with_observer(observer.clone())
            .tune(&mut db, &w, &llm)
            .unwrap();
        assert!(result.cancelled);
        assert!(result.best_config.is_some(), "incumbent survives cancel");
        let events = observer.events.lock().unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, ProgressEvent::PromptBuilt { .. })));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ProgressEvent::ConfigSampled { .. }))
                .count(),
            5
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, ProgressEvent::RoundStarted { .. })));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ProgressEvent::Improvement { .. }))
                .count(),
            1,
            "run must stop after the first improvement"
        );
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        // A pure observer (no cancellation) must not perturb the result:
        // the serving layer relies on this for its determinism contract.
        struct Null;
        impl crate::progress::TuneObserver for Null {}
        let (mut db1, w, llm1) = setup();
        let plain = LambdaTune::default().tune(&mut db1, &w, &llm1).unwrap();
        let (mut db2, _, llm2) = setup();
        let observed = LambdaTune::default()
            .with_observer(std::sync::Arc::new(Null))
            .tune(&mut db2, &w, &llm2)
            .unwrap();
        assert_eq!(plain.best_index, observed.best_index);
        assert_eq!(plain.best_time, observed.best_time);
        assert_eq!(plain.rounds, observed.rounds);
        assert!(!observed.cancelled);
        assert_eq!(plain.trajectory, observed.trajectory);
    }

    #[test]
    fn warm_start_seeds_candidate_zero_and_saves_llm_calls() {
        let (mut db, w, llm) = setup();
        let first = LambdaTune::default().tune(&mut db, &w, &llm).unwrap();
        let best_script = first
            .best_config
            .as_ref()
            .unwrap()
            .to_script(Dbms::Postgres, &w.catalog);

        let (mut db2, _, llm2) = setup();
        let options = LambdaTuneOptions {
            num_configs: 3,
            ..Default::default()
        };
        let warm = WarmStart {
            prompt: Some(first.prompt.clone()),
            seed_scripts: vec![best_script.clone()],
        };
        let second = LambdaTune::new(options)
            .with_warm_start(warm)
            .tune(&mut db2, &w, &llm2)
            .unwrap();
        // One slot seeded, two sampled; the reused prompt is verbatim.
        assert_eq!(second.configs.len(), 3);
        assert_eq!(second.llm_usage.calls, 2);
        assert_eq!(second.prompt, first.prompt);
        assert_eq!(
            second.configs[0].to_script(Dbms::Postgres, &w.catalog),
            best_script
        );
        assert!(second.best_index.is_some());
    }

    #[test]
    fn absent_warm_start_changes_nothing() {
        let (mut db1, w, llm1) = setup();
        let plain = LambdaTune::default().tune(&mut db1, &w, &llm1).unwrap();
        let (mut db2, _, llm2) = setup();
        let warm = LambdaTune::default()
            .with_warm_start(WarmStart::default())
            .tune(&mut db2, &w, &llm2)
            .unwrap();
        assert_eq!(plain.best_index, warm.best_index);
        assert_eq!(plain.best_time, warm.best_time);
        assert_eq!(plain.trajectory, warm.trajectory);
        assert_eq!(plain.llm_usage.calls, warm.llm_usage.calls);
    }

    #[test]
    fn warm_start_seed_scripts_respect_scope_filters() {
        let (mut db, w, llm) = setup();
        let options = LambdaTuneOptions {
            params_only: true,
            num_configs: 1,
            ..Default::default()
        };
        let warm = WarmStart {
            prompt: None,
            seed_scripts: vec![
                "SET work_mem = '64MB';\nCREATE INDEX ON lineitem (l_orderkey);".into(),
            ],
        };
        let result = LambdaTune::new(options)
            .with_warm_start(warm)
            .tune(&mut db, &w, &llm)
            .unwrap();
        assert_eq!(result.llm_usage.calls, 0, "fully seeded: no sampling");
        assert!(result.configs[0].index_specs().is_empty());
        assert!(result.configs[0].knob_changes().next().is_some());
    }

    #[test]
    fn batched_sampling_matches_unbatched_at_every_batch_size() {
        let (mut db, w, llm) = setup();
        let plain = LambdaTune::default().tune(&mut db, &w, &llm).unwrap();
        for batch in [2, 3, 5, 8] {
            let (mut db2, _, llm2) = setup();
            let batched = LambdaTune::default()
                .with_sample_batch(batch)
                .tune(&mut db2, &w, &llm2)
                .unwrap();
            let scripts = |r: &TuneResult| -> Vec<String> {
                r.configs
                    .iter()
                    .map(|c| c.to_script(Dbms::Postgres, &w.catalog))
                    .collect()
            };
            assert_eq!(scripts(&plain), scripts(&batched), "batch {batch}");
            assert_eq!(plain.best_index, batched.best_index, "batch {batch}");
            assert_eq!(plain.best_time, batched.best_time, "batch {batch}");
            assert_eq!(plain.trajectory, batched.trajectory, "batch {batch}");
            // The saving: one metered call (and one prompt charge) per
            // chunk instead of per sample.
            let chunks = 5usize.div_ceil(batch) as u64;
            assert_eq!(batched.llm_usage.calls, chunks, "batch {batch}");
            assert!(batched.llm_usage.prompt_tokens < plain.llm_usage.prompt_tokens);
            assert_eq!(
                batched.llm_usage.completion_tokens,
                plain.llm_usage.completion_tokens
            );
        }
    }

    #[test]
    fn trajectory_and_timing_are_recorded() {
        let (mut db, w, llm) = setup();
        let result = LambdaTune::default().tune(&mut db, &w, &llm).unwrap();
        assert!(!result.trajectory.is_empty());
        assert!(result.tuning_time > Secs::ZERO);
        assert!(result.workload_tokens > 0);
        assert!(result.llm_usage.cost_usd() > 0.0);
    }
}
