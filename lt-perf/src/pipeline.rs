//! In-process λ-Tune sessions: the plain `LambdaTune::tune` call a user
//! makes, and the same pipeline as separate public calls, each timed from
//! the benchmark side, for the traced run.

use lambda_tune::{
    extract_snippets, Compressor, ConfigSelector, Evaluator, LambdaTune, LambdaTuneOptions,
    PromptBuilder,
};
use lt_common::{derive_seed, obs, Fingerprint, IndexId, Secs};
use lt_dbms::plan::Plan;
use lt_dbms::stats::QueryPredicates;
use lt_dbms::{
    CacheStats, Catalog, Configuration, Dbms, Hardware, IndexCatalog, IndexSpec, KnobSet,
    QueryOutcome, SimDb, TuningTarget,
};
use lt_llm::{LlmClient, SimulatedLlm};
use lt_sql::ast::Query;
use lt_store::StoreDb;
use lt_workloads::Workload;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Which engine a session tunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The virtual-time simulator (`SimDb`).
    Sim,
    /// The lt-store engine (`StoreDb`).
    Store,
}

/// The session options a client gets by sending only a seed: the CLI's
/// and the server's defaults (Postgres, k = 5).
pub fn options(seed: u64) -> LambdaTuneOptions {
    LambdaTuneOptions {
        seed,
        ..LambdaTuneOptions::default()
    }
}

/// What a session produced. Every field is a pure function of the
/// session's inputs, so these values make up the deterministic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The winning configuration script.
    pub script: String,
    /// Workload time under the winner, virtual seconds.
    pub best_time: f64,
    /// Total virtual tuning time.
    pub tuning_vt: f64,
    /// Prompt plus completion tokens billed.
    pub tokens: u64,
}

fn open(backend: Backend, workload: &Workload, seed: u64) -> Box<dyn TuningTarget> {
    let (dbms, catalog, hw) = (
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
    );
    match backend {
        Backend::Sim => Box::new(SimDb::new(dbms, catalog, hw, seed)),
        Backend::Store => Box::new(StoreDb::new(dbms, catalog, hw, seed)),
    }
}

/// One session exactly as a user runs it: open the database, then
/// `LambdaTune::tune` at the defaults.
pub fn tune(workload: &Workload, backend: Backend, seed: u64) -> Result<Outcome, String> {
    let mut db = open(backend, workload, seed);
    let llm = LlmClient::new(SimulatedLlm::new());
    let result = LambdaTune::new(options(seed))
        .tune(db.as_mut(), workload, &llm)
        .map_err(|e| format!("tune failed for seed {seed}: {e}"))?;
    let best = result
        .best_config
        .ok_or_else(|| format!("no configuration won for seed {seed}"))?;
    let usage = result.llm_usage;
    Ok(Outcome {
        script: best.to_script(db.dbms(), db.catalog()),
        best_time: result.best_time.as_f64(),
        tuning_vt: result.tuning_time.as_f64(),
        tokens: usage.prompt_tokens + usage.completion_tokens,
    })
}

/// The prompt `LambdaTune::build_prompt` produces for this session.
pub fn reference_prompt(
    workload: &Workload,
    backend: Backend,
    seed: u64,
) -> Result<String, String> {
    let db = open(backend, workload, seed);
    let llm = LlmClient::new(SimulatedLlm::new());
    LambdaTune::new(options(seed))
        .build_prompt(db.as_ref(), workload, &llm)
        .map(|(prompt, _)| prompt)
        .map_err(|e| e.to_string())
}

/// Workload time under the default configuration on a fresh database of
/// the session's seed: the denominator of the scaled cost.
pub fn default_time(workload: &Workload, backend: Backend, seed: u64) -> f64 {
    let mut db = open(backend, workload, seed);
    lt_baselines::common::measure_workload(db.as_mut(), workload, Secs::INFINITY)
        .0
        .as_f64()
}

/// Wall-clock spans of one session, in the order they ran.
#[derive(Debug, Default, Clone)]
pub struct Spans(pub Vec<(&'static str, f64)>);

impl Spans {
    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0.push((name, start.elapsed().as_secs_f64()));
        out
    }

    /// Total seconds recorded under `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }

    /// Total seconds over all spans.
    pub fn total(&self) -> f64 {
        self.0.iter().map(|(_, s)| s).sum()
    }
}

/// Per-layer values of one traced session, by metric name.
pub type Layers = BTreeMap<String, f64>;

/// The traced session: the pipeline of `LambdaTune::tune` as separate
/// public calls, each in a benchmark-side span, with the database behind a
/// timing wrapper and the program's `obs` counters switched on. Returns
/// the outcome, the prompt sent, and the per-layer values. The caller
/// times `Benchmark::load` itself, since whether loading belongs to the
/// session differs by workload.
pub fn tune_traced(
    workload: &Workload,
    backend: Backend,
    seed: u64,
    spans: &mut Spans,
) -> Result<(Outcome, String, Layers), String> {
    obs::reset();
    obs::set_enabled(true);
    let (dbms, catalog, hw) = (
        Dbms::Postgres,
        workload.catalog.clone(),
        Hardware::p3_2xlarge(),
    );
    let result = match backend {
        Backend::Sim => {
            let db = spans.time("dbms.open", || SimDb::new(dbms, catalog, hw, seed));
            let mut db = Timed::new(db);
            separate_calls(&mut db, workload, seed, spans).map(|r| (r, db.layers(), None))
        }
        Backend::Store => {
            let db = spans.time("dbms.open", || StoreDb::new(dbms, catalog, hw, seed));
            let (pool0, totals0) = (db.pool_stats(), db.exec_totals());
            let mut db = Timed::new(db);
            separate_calls(&mut db, workload, seed, spans).map(|r| {
                let (pool, totals) = (db.inner.pool_stats(), db.inner.exec_totals());
                let (hits, misses) = (pool.hits - pool0.hits, pool.misses - pool0.misses);
                let store = [
                    ("store.bp_hit_ratio", ratio(hits, hits + misses)),
                    (
                        "store.bp_evictions",
                        (pool.evictions - pool0.evictions) as f64,
                    ),
                    ("store.spills", (totals.spills - totals0.spills) as f64),
                ];
                (r, db.layers(), Some(store))
            })
        }
    };
    obs::set_enabled(false);
    let ((outcome, prompt), mut layers, store) = result?;
    let snap = obs::snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    let hit_ratio = |hit: &str, miss: &str| ratio(counter(hit), counter(hit) + counter(miss));
    for (name, value) in [
        ("ilp.nodes", counter("ilp.nodes") as f64),
        ("ilp.bound_prunes", counter("ilp.bound_prunes") as f64),
        (
            "compress.memo_hit_ratio",
            hit_ratio("compress.memo_hit", "compress.memo_miss"),
        ),
        ("llm.prompt_tokens", counter("llm.prompt_tokens") as f64),
        (
            "llm.completion_tokens",
            counter("llm.completion_tokens") as f64,
        ),
        ("tune.select_rounds", counter("selector.rounds") as f64),
        ("tune.queries_executed", counter("dbms.query_exec") as f64),
        (
            "dbms.plan_cache_hit_ratio",
            hit_ratio("dbms.plan_cache.hit", "dbms.plan_cache.miss"),
        ),
        (
            "dbms.global_plan_hit_ratio",
            hit_ratio("fleet.plan_shared_hit", "fleet.plan_shared_miss"),
        ),
        ("dbms.index_builds", counter("dbms.index_builds") as f64),
        ("store.wal_appends", counter("store.wal_appends") as f64),
    ] {
        layers.insert(name.to_string(), value);
    }
    for (name, value) in store.into_iter().flatten() {
        layers.insert(name.to_string(), value);
    }
    for name in ["store.bp_hit_ratio", "store.bp_evictions", "store.spills"] {
        layers.entry(name.to_string()).or_insert(0.0);
    }
    for (span, metric) in [
        ("dbms.open", "dbms.open_ms"),
        ("tune.snippets", "tune.snippets_ms"),
        ("tune.compress", "tune.compress_ms"),
        ("tune.prompt", "tune.prompt_ms"),
        ("tune.sample", "tune.sample_ms"),
        ("tune.select", "tune.select_ms"),
    ] {
        layers.insert(metric.to_string(), spans.get(span) * 1e3);
    }
    obs::reset();
    Ok((outcome, prompt, layers))
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `LambdaTune::tune` at the default options, one public call per stage:
/// `extract_snippets`, `Compressor::compress`, `PromptBuilder::build`,
/// k × `LlmClient::complete` + `Configuration::parse` with the clock
/// advanced as `tune` advances it, then `ConfigSelector::select`.
fn separate_calls<D: TuningTarget>(
    db: &mut D,
    workload: &Workload,
    seed: u64,
    spans: &mut Spans,
) -> Result<(Outcome, String), String> {
    let opts = options(seed);
    let llm = LlmClient::new(SimulatedLlm::new());
    let start = db.now();
    let snippets = spans.time("tune.snippets", || extract_snippets(&*db, workload));
    let budget = lt_llm::LanguageModel::context_window(llm.model()) / 16;
    let compressed = spans
        .time("tune.compress", || {
            Compressor::new(db.catalog()).compress(&snippets, budget)
        })
        .map_err(|e| format!("compress failed for seed {seed}: {e}"))?;
    let prompt = spans.time("tune.prompt", || {
        PromptBuilder::new(db.dbms(), db.hardware()).build(&compressed)
    });
    let configs = spans.time("tune.sample", || {
        (0..opts.num_configs)
            .map(|i| {
                let response =
                    llm.complete(&prompt, opts.temperature, derive_seed(opts.seed, i as u64))?;
                db.clock_advance(opts.llm_latency);
                Ok(Configuration::parse(&response, db.dbms(), db.catalog()))
            })
            .collect::<lt_common::Result<Vec<_>>>()
    });
    let configs = configs.map_err(|e| format!("sampling failed for seed {seed}: {e}"))?;
    let selection = spans.time("tune.select", || {
        let evaluator = Evaluator {
            use_scheduler: opts.use_scheduler,
            seed: opts.seed,
        };
        ConfigSelector::new(opts.selector, evaluator).select(db, workload, &configs)
    });
    let best = selection
        .best
        .ok_or_else(|| format!("no configuration won for seed {seed}"))?;
    let usage = llm.usage();
    let outcome = Outcome {
        script: configs[best].to_script(db.dbms(), db.catalog()),
        best_time: selection.best_time.as_f64(),
        tuning_vt: (db.now() - start).as_f64(),
        tokens: usage.prompt_tokens + usage.completion_tokens,
    };
    Ok((outcome, prompt))
}

/// Mean of every per-layer value over a set of traced sessions.
pub fn mean_layers(all: &[Layers]) -> Layers {
    let mut sums: Layers = BTreeMap::new();
    for layers in all {
        for (name, value) in layers {
            *sums.entry(name.clone()).or_insert(0.0) += value;
        }
    }
    let n = all.len().max(1) as f64;
    sums.into_iter().map(|(k, v)| (k, v / n)).collect()
}

/// A database behind a benchmark-side timer: `execute` and the planning
/// calls are timed from outside; every other call passes straight through.
struct Timed<D> {
    inner: D,
    exec: (u64, f64),
    plan: Cell<(u64, f64)>,
}

impl<D: TuningTarget> Timed<D> {
    fn new(inner: D) -> Self {
        Timed {
            inner,
            exec: (0, 0.0),
            plan: Cell::new((0, 0.0)),
        }
    }

    fn plan_timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let (n, s) = self.plan.get();
        self.plan.set((n + 1, s + start.elapsed().as_secs_f64()));
        out
    }

    /// Mean microseconds per `execute` and per planning call.
    fn layers(&self) -> Layers {
        let per_call_us = |(n, s): (u64, f64)| if n == 0 { 0.0 } else { s / n as f64 * 1e6 };
        Layers::from([
            ("dbms.execute_us".to_string(), per_call_us(self.exec)),
            ("dbms.plan_us".to_string(), per_call_us(self.plan.get())),
        ])
    }
}

impl<D: TuningTarget> TuningTarget for Timed<D> {
    fn dbms(&self) -> Dbms {
        self.inner.dbms()
    }
    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }
    fn hardware(&self) -> Hardware {
        self.inner.hardware()
    }
    fn knobs(&self) -> &KnobSet {
        self.inner.knobs()
    }
    fn indexes(&self) -> &IndexCatalog {
        self.inner.indexes()
    }
    fn catalog_fingerprint(&self) -> Fingerprint {
        self.inner.catalog_fingerprint()
    }
    fn now(&self) -> Secs {
        self.inner.now()
    }
    fn clock_advance(&self, d: Secs) {
        self.inner.clock_advance(d)
    }
    fn queries_executed(&self) -> u64 {
        self.inner.queries_executed()
    }
    fn queries_completed(&self) -> u64 {
        self.inner.queries_completed()
    }
    fn apply_knobs(&mut self, config: &Configuration) {
        self.inner.apply_knobs(config)
    }
    fn reset_knobs(&mut self) {
        self.inner.reset_knobs()
    }
    fn create_index(&mut self, spec: &IndexSpec) -> (IndexId, Secs) {
        self.inner.create_index(spec)
    }
    fn estimate_index_build(&self, spec: &IndexSpec) -> Secs {
        self.inner.estimate_index_build(spec)
    }
    fn drop_index(&mut self, id: IndexId) -> bool {
        self.inner.drop_index(id)
    }
    fn drop_all_indexes(&mut self) {
        self.inner.drop_all_indexes()
    }
    fn execute(&mut self, query: &Query, timeout: Secs) -> QueryOutcome {
        let start = Instant::now();
        let out = self.inner.execute(query, timeout);
        self.exec = (self.exec.0 + 1, self.exec.1 + start.elapsed().as_secs_f64());
        out
    }
    fn explain(&self, query: &Query) -> Plan {
        self.plan_timed(|| self.inner.explain(query))
    }
    fn explain_with_indexes(&self, query: &Query, hypothetical: &IndexCatalog) -> Plan {
        self.plan_timed(|| self.inner.explain_with_indexes(query, hypothetical))
    }
    fn explain_with_knobs(&self, query: &Query, knobs: &KnobSet) -> Plan {
        self.plan_timed(|| self.inner.explain_with_knobs(query, knobs))
    }
    fn explain_analyze(&mut self, query: &Query) -> (String, QueryOutcome) {
        self.inner.explain_analyze(query)
    }
    fn predicates(&self, query: &Query) -> Arc<QueryPredicates> {
        self.inner.predicates(query)
    }
    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }
    fn cache_window_stats(&self) -> CacheStats {
        self.inner.cache_window_stats()
    }
    fn take_cache_window(&self) -> CacheStats {
        self.inner.take_cache_window()
    }
}
