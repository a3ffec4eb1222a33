//! The synthesis engine: compiles a [`WorkloadSpec`] into a
//! catalog-valid [`Workload`] by prompting a workload-synthesis LLM.
//!
//! The split of responsibilities mirrors how a production system would
//! drive a real model:
//!
//! 1. **Planning** (deterministic, engine-side). The engine apportions
//!    the spec's join-shape mix and Zipf anchor distribution over the
//!    requested query count with largest-remainder rounding, so the
//!    *assigned* counts deviate from the spec's targets by less than one
//!    query per class. It then walks the benchmark's mined join graph to
//!    assign each query a concrete structure: tables, join edges, an
//!    aggregate, and optionally a filter predicate drawn from a
//!    per-table selectivity **menu** (each menu entry's log₂ bucket is
//!    computed from catalog statistics with the same estimator the drift
//!    profiles use).
//! 2. **Writing** (the LLM). The structure is serialized into a prompt
//!    (`task:` line plus the filter menu) and the model writes the SQL.
//!    The model is prompt-blind and imperfect — see
//!    [`lt_llm::SynthesisLlm`].
//! 3. **Validation** (engine-side, catalog-backed). Every response is
//!    parsed, its tables resolved against the catalog, and its extracted
//!    join edges and filter terms compared to the assignment. A mismatch
//!    is fed back verbatim as an `invalid:` prompt line and the query is
//!    retried, up to [`crate::spec::RETRY_MAX`] attempts; every reject is
//!    counted. Because validation demands the *exact* assigned structure,
//!    a workload that comes back is 100% catalog-valid and conforms to
//!    the spec query-by-query — the [`SynthReport`] measures the residual
//!    (apportionment rounding, graph truncation) against the spec's
//!    declared tolerance.

use crate::spec::{WorkloadSpec, RETRY_MAX};
use lt_common::json::Value;
use lt_common::{derive_seed, json, obs, seeded_rng, LtError, Result, Rng};
use lt_common::{ColumnId, TableId};
use lt_dbms::stats::{extract, Estimator, FilterKind, FilterTerm, JoinEdge};
use lt_dbms::Catalog;
use lt_llm::{LanguageModel, LlmClient, SynthesisLlm};
use lt_workloads::{Benchmark, Workload};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Sampling temperature of synthesis calls (below 0.7 the simulated
/// model's imperfection shrinks; above, it grows — 0.7 is the realistic
/// operating point the hallucination rate is calibrated for).
const SYNTH_TEMPERATURE: f64 = 0.7;

/// The join shapes a spec can mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Path: each table joins the previous one.
    Chain,
    /// One anchor joined to independent satellites.
    Star,
    /// Anchor + satellites with every available edge among them.
    Clique,
}

impl Shape {
    /// Stable lower-case name (prompt `shape=` token, JSON).
    pub fn name(self) -> &'static str {
        match self {
            Shape::Chain => "chain",
            Shape::Star => "star",
            Shape::Clique => "clique",
        }
    }
}

/// One achievable filter predicate of a table's selectivity menu.
#[derive(Debug, Clone)]
struct MenuEntry {
    column: ColumnId,
    kind: FilterKind,
    /// Rendered predicate, e.g. `lineitem.l_quantity in (1, 2, 3)`.
    sql: String,
}

/// The structure the engine assigns to one query before prompting.
#[derive(Debug, Clone)]
struct Assignment {
    anchor: TableId,
    /// Shape actually realized on the join graph (a clique request can
    /// degrade to a star when no triangle exists at the anchor).
    shape: Shape,
    tables: Vec<TableId>,
    /// Normalized, deduplicated, sorted — the validation ground truth.
    joins: Vec<JoinEdge>,
    /// `None` = `count(*)`; `Some(col)` = `min(col)`.
    agg: Option<ColumnId>,
    /// Assigned filter as `(table, bucket)` into the menu.
    filter: Option<(TableId, i64)>,
}

/// Spec-conformance of a finished synthesis, measured over the
/// assignments the validation loop proved the SQL reproduces.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Conformance {
    /// Max deviation of any shape's achieved frequency from its target.
    pub mix_error: f64,
    /// Max deviation of any anchor table's achieved frequency from its
    /// Zipf target.
    pub skew_error: f64,
    /// Mean tables per query.
    pub mean_depth: f64,
    /// Queries carrying a filter predicate.
    pub filtered: usize,
    /// Filters whose selectivity bucket landed outside the spec's band
    /// (0 by construction; measured anyway).
    pub bucket_violations: usize,
}

/// What a synthesis run did; returned alongside the workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthReport {
    /// Queries generated (= spec.queries on success).
    pub queries: usize,
    /// LLM completion calls made (≥ queries; retries add calls).
    pub llm_calls: u64,
    /// Prompt tokens billed for this synthesis.
    pub prompt_tokens: u64,
    /// Completion tokens billed.
    pub completion_tokens: u64,
    /// Responses rejected by catalog validation (each also fed back).
    pub rejects: usize,
    /// Clique requests degraded to stars (no triangle at the anchor).
    pub shape_fallbacks: usize,
    /// Assigned filters dropped because no menu bucket fell in the
    /// spec's band for any table of the query.
    pub filters_dropped: usize,
    /// Conformance measurements; see [`Conformance`].
    pub conformance: Conformance,
}

impl SynthReport {
    /// JSON form for benchmark result files.
    pub fn to_json(&self) -> Value {
        json!({
            "queries": self.queries as i64,
            "llm_calls": self.llm_calls as i64,
            "prompt_tokens": self.prompt_tokens as i64,
            "completion_tokens": self.completion_tokens as i64,
            "rejects": self.rejects as i64,
            "shape_fallbacks": self.shape_fallbacks as i64,
            "filters_dropped": self.filters_dropped as i64,
            "mix_error": self.conformance.mix_error,
            "skew_error": self.conformance.skew_error,
            "mean_depth": self.conformance.mean_depth,
            "filtered": self.conformance.filtered as i64,
            "bucket_violations": self.conformance.bucket_violations as i64,
        })
    }
}

/// A compiled synthesis: the workload plus the run's report.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The generated, catalog-valid workload.
    pub workload: Workload,
    /// Generation statistics and conformance measurements.
    pub report: SynthReport,
}

/// Workload-synthesis engine for one benchmark schema; see module docs.
///
/// Construction mines the benchmark's join graph and builds the filter
/// menu, which costs a workload load — share one engine per benchmark
/// via [`Synthesizer::shared`] on hot paths.
#[derive(Debug)]
pub struct Synthesizer {
    benchmark: Benchmark,
    catalog: Catalog,
    /// Join-graph tables, heaviest (most rows) first — the Zipf universe.
    universe: Vec<TableId>,
    /// Normalized, deduplicated join edges mined from the benchmark.
    edges: Vec<JoinEdge>,
    /// Table → indices into `edges` incident to it.
    adjacency: BTreeMap<TableId, Vec<usize>>,
    /// Table → bucket → first achievable predicate of that bucket.
    menu: BTreeMap<TableId, BTreeMap<i64, MenuEntry>>,
}

impl Synthesizer {
    /// Builds an engine for `benchmark`, mining its join graph from the
    /// benchmark's own queries and computing the selectivity menu from
    /// catalog statistics.
    pub fn new(benchmark: Benchmark) -> Synthesizer {
        let workload = benchmark.load();
        let catalog = workload.catalog.clone();

        let mut edges: Vec<JoinEdge> = workload
            .queries
            .iter()
            .flat_map(|q| extract(&q.parsed, &catalog).joins)
            .map(JoinEdge::normalized)
            .collect();
        edges.sort_by_key(|j| (j.left, j.right));
        edges.dedup();

        let mut adjacency: BTreeMap<TableId, Vec<usize>> = BTreeMap::new();
        for (i, e) in edges.iter().enumerate() {
            let lt = catalog.column(e.left).table;
            let rt = catalog.column(e.right).table;
            adjacency.entry(lt).or_default().push(i);
            if rt != lt {
                adjacency.entry(rt).or_default().push(i);
            }
        }

        let mut universe: Vec<TableId> = adjacency.keys().copied().collect();
        universe.sort_by(|a, b| {
            let (ta, tb) = (catalog.table(*a), catalog.table(*b));
            tb.rows.cmp(&ta.rows).then(ta.name.cmp(&tb.name))
        });

        let menu = build_menu(&catalog);

        Synthesizer {
            benchmark,
            catalog,
            universe,
            edges,
            adjacency,
            menu,
        }
    }

    /// Process-wide shared engine per benchmark (construction mines the
    /// join graph, so hot paths — serve feeds, streams — reuse one).
    pub fn shared(benchmark: Benchmark) -> Arc<Synthesizer> {
        type Shared = Vec<(Benchmark, Arc<Synthesizer>)>;
        static CACHE: OnceLock<Mutex<Shared>> = OnceLock::new();
        // A build that panicked leaves the list as it was, so a poisoned
        // lock is safe to take: one failed build must not fail every feed.
        let mut held = lt_common::lock(CACHE.get_or_init(|| Mutex::new(Vec::new())));
        if let Some((_, s)) = held.iter().find(|(b, _)| *b == benchmark) {
            return Arc::clone(s);
        }
        let built = Arc::new(Synthesizer::new(benchmark));
        held.push((benchmark, Arc::clone(&built)));
        built
    }

    /// The benchmark this engine targets.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The engine's catalog (the benchmark's schema + statistics).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Synthesizes with the default simulated synthesis model.
    pub fn synthesize(&self, spec: &WorkloadSpec) -> Result<Synthesis> {
        self.synthesize_with(spec, &LlmClient::new(SynthesisLlm::new()))
    }

    /// Synthesizes `spec` through an explicit model (tests inject models
    /// with forced hallucination rates to exercise the retry loop).
    pub fn synthesize_with<M: LanguageModel>(
        &self,
        spec: &WorkloadSpec,
        llm: &LlmClient<M>,
    ) -> Result<Synthesis> {
        let _span = obs::span("synth.generate");
        spec.validate()?;
        if spec.benchmark != self.benchmark {
            return Err(LtError::Config(format!(
                "spec targets {} but engine was built for {}",
                spec.benchmark.name(),
                self.benchmark.name()
            )));
        }
        if self.universe.is_empty() {
            return Err(LtError::Config(format!(
                "benchmark {} has no join graph to synthesize from",
                self.benchmark.name()
            )));
        }
        let usage_before = llm.usage();

        let mut report = SynthReport::default();
        let assignments = self.plan(spec, &mut report);

        let mut pairs: Vec<(String, String)> = Vec::with_capacity(assignments.len());
        for (i, asg) in assignments.iter().enumerate() {
            let sql = self.generate_one(spec, i, asg, llm, &mut report)?;
            pairs.push((format!("g{i}"), sql));
        }

        report.queries = pairs.len();
        report.conformance = self.measure(spec, &assignments);
        let usage = llm.usage();
        report.llm_calls = usage.calls - usage_before.calls;
        report.prompt_tokens = usage.prompt_tokens - usage_before.prompt_tokens;
        report.completion_tokens = usage.completion_tokens - usage_before.completion_tokens;
        obs::counter("synth.queries", report.queries as u64);

        let refs: Vec<(&str, String)> =
            pairs.iter().map(|(l, s)| (l.as_str(), s.clone())).collect();
        let workload = Workload::from_sql(spec.name.clone(), self.catalog.clone(), &refs)?;
        Ok(Synthesis { workload, report })
    }

    /// Deterministic planning pass: apportion shapes, anchors and filter
    /// slots, then walk the join graph to a concrete structure per query.
    fn plan(&self, spec: &WorkloadSpec, report: &mut SynthReport) -> Vec<Assignment> {
        let n = spec.queries;
        let mut arng = seeded_rng(derive_seed(spec.seed, 1));

        // Zipf over the universe, heaviest tables first.
        let zipf = zipf_weights(self.universe.len(), spec.skew);
        let mut anchors: Vec<TableId> = Vec::with_capacity(n);
        for (t, count) in self.universe.iter().zip(apportion(n, &zipf)) {
            anchors.extend(std::iter::repeat_n(*t, count));
        }
        arng.shuffle(&mut anchors);

        let mix = spec.join_mix.normalized();
        let mut shapes: Vec<Shape> = Vec::with_capacity(n);
        for (shape, count) in [Shape::Chain, Shape::Star, Shape::Clique]
            .iter()
            .zip(apportion(n, &mix))
        {
            shapes.extend(std::iter::repeat_n(*shape, count));
        }
        arng.shuffle(&mut shapes);

        let filtered = ((spec.filter_rate * n as f64).round() as usize).min(n);
        let mut filters: Vec<bool> = (0..n).map(|i| i < filtered).collect();
        arng.shuffle(&mut filters);

        (0..n)
            .map(|i| {
                let mut qrng = seeded_rng(derive_seed(derive_seed(spec.seed, 3), i as u64));
                let depth = qrng.gen_range(spec.depth_min..=spec.depth_max);
                let (tables, joins, shape) =
                    self.build_structure(&mut qrng, anchors[i], shapes[i], depth);
                if shape != shapes[i] {
                    report.shape_fallbacks += 1;
                }
                let agg = if qrng.gen_bool(0.3) {
                    let cols = &self.catalog.table(anchors[i]).columns;
                    qrng.choose(cols).copied()
                } else {
                    None
                };
                let filter = if filters[i] {
                    let picked = self.pick_filter(&mut qrng, spec, &tables);
                    if picked.is_none() {
                        report.filters_dropped += 1;
                    }
                    picked
                } else {
                    None
                };
                Assignment {
                    anchor: anchors[i],
                    shape,
                    tables,
                    joins,
                    agg,
                    filter,
                }
            })
            .collect()
    }

    /// Walks the join graph from `anchor` into the requested shape,
    /// truncating when the graph runs out of fresh neighbors. Returns the
    /// realized `(tables, joins, effective shape)`.
    fn build_structure(
        &self,
        rng: &mut Rng,
        anchor: TableId,
        shape: Shape,
        depth: usize,
    ) -> (Vec<TableId>, Vec<JoinEdge>, Shape) {
        let mut tables = vec![anchor];
        let mut joins: Vec<JoinEdge> = Vec::new();
        let other = |e: &JoinEdge, at: TableId| -> TableId {
            let lt = self.catalog.column(e.left).table;
            if lt == at {
                self.catalog.column(e.right).table
            } else {
                lt
            }
        };

        match shape {
            Shape::Chain => {
                let mut current = anchor;
                while tables.len() < depth {
                    let candidates: Vec<usize> = self
                        .adjacency
                        .get(&current)
                        .map(|v| {
                            v.iter()
                                .copied()
                                .filter(|&ei| !tables.contains(&other(&self.edges[ei], current)))
                                .collect()
                        })
                        .unwrap_or_default();
                    let Some(&ei) = rng.choose(&candidates) else {
                        break;
                    };
                    let next = other(&self.edges[ei], current);
                    tables.push(next);
                    joins.push(self.edges[ei]);
                    current = next;
                }
                (tables, normalize_joins(joins), Shape::Chain)
            }
            Shape::Star | Shape::Clique => {
                // Pick depth−1 satellites around the anchor. For cliques,
                // prefer satellites connected to ones already chosen so a
                // triangle is found whenever the graph has one here.
                while tables.len() < depth {
                    let candidates: Vec<usize> = self
                        .adjacency
                        .get(&anchor)
                        .map(|v| {
                            v.iter()
                                .copied()
                                .filter(|&ei| !tables.contains(&other(&self.edges[ei], anchor)))
                                .collect()
                        })
                        .unwrap_or_default();
                    if candidates.is_empty() {
                        break;
                    }
                    let pick = if shape == Shape::Clique {
                        let score = |&ei: &usize| -> usize {
                            let t = other(&self.edges[ei], anchor);
                            self.adjacency
                                .get(&t)
                                .map(|v| {
                                    v.iter()
                                        .filter(|&&oi| {
                                            let e = &self.edges[oi];
                                            let a = self.catalog.column(e.left).table;
                                            let b = self.catalog.column(e.right).table;
                                            a != anchor
                                                && b != anchor
                                                && (tables.contains(&a) || tables.contains(&b))
                                        })
                                        .count()
                                })
                                .unwrap_or(0)
                        };
                        let best = candidates.iter().map(score).max().unwrap_or(0);
                        let top: Vec<usize> = candidates
                            .iter()
                            .copied()
                            .filter(|ei| score(ei) == best)
                            .collect();
                        *rng.choose(&top).expect("non-empty")
                    } else {
                        *rng.choose(&candidates).expect("non-empty")
                    };
                    let sat = other(&self.edges[pick], anchor);
                    tables.push(sat);
                    joins.push(self.edges[pick]);
                }
                let mut effective = Shape::Star;
                if shape == Shape::Clique {
                    // Add every edge among the chosen set; extra edges
                    // beyond the star skeleton make it a clique.
                    let skeleton = joins.len();
                    for e in &self.edges {
                        let a = self.catalog.column(e.left).table;
                        let b = self.catalog.column(e.right).table;
                        if a != b
                            && tables.contains(&a)
                            && tables.contains(&b)
                            && !joins.contains(e)
                        {
                            joins.push(*e);
                        }
                    }
                    if joins.len() > skeleton {
                        effective = Shape::Clique;
                    }
                }
                (tables, normalize_joins(joins), effective)
            }
        }
    }

    /// Picks `(table, bucket)` for a filter: the anchor first, then the
    /// query's other tables, constrained to the spec's bucket band.
    fn pick_filter(
        &self,
        rng: &mut Rng,
        spec: &WorkloadSpec,
        tables: &[TableId],
    ) -> Option<(TableId, i64)> {
        for t in tables {
            let Some(buckets) = self.menu.get(t) else {
                continue;
            };
            let in_band: Vec<i64> = buckets
                .keys()
                .copied()
                .filter(|b| (spec.bucket_min..=spec.bucket_max).contains(b))
                .collect();
            if let Some(&bucket) = rng.choose(&in_band) {
                return Some((*t, bucket));
            }
        }
        None
    }

    /// One query through the prompt → validate → feedback loop.
    fn generate_one<M: LanguageModel>(
        &self,
        spec: &WorkloadSpec,
        index: usize,
        asg: &Assignment,
        llm: &LlmClient<M>,
        report: &mut SynthReport,
    ) -> Result<String> {
        let mut prompt = self.prompt_for(spec, asg);
        let qseed = derive_seed(derive_seed(spec.seed, 2), index as u64);
        for attempt in 0..RETRY_MAX {
            let response = llm.complete(
                &prompt,
                SYNTH_TEMPERATURE,
                derive_seed(qseed, attempt as u64),
            )?;
            match self.validate(&response, asg) {
                Ok(()) => return Ok(response),
                Err(reason) => {
                    report.rejects += 1;
                    obs::counter("synth.rejects", 1);
                    prompt.push_str(&format!("invalid: {reason}\n"));
                }
            }
        }
        Err(LtError::Config(format!(
            "synthesis of {}[g{index}] exhausted {RETRY_MAX} attempts",
            spec.name
        )))
    }

    /// Serializes an assignment into the synthesis-model prompt contract
    /// (see [`lt_llm::SynthesisLlm`]'s module docs).
    fn prompt_for(&self, spec: &WorkloadSpec, asg: &Assignment) -> String {
        let mut prompt = format!(
            "Write exactly one SQL query for the {} schema satisfying the task line.\n",
            spec.benchmark.name()
        );
        if let Some((table, _)) = asg.filter {
            if let Some(buckets) = self.menu.get(&table) {
                let tname = &self.catalog.table(table).name;
                for (bucket, entry) in buckets {
                    prompt.push_str(&format!("filter {tname} bucket={bucket}: {}\n", entry.sql));
                }
            }
        }
        let tables: Vec<&str> = asg
            .tables
            .iter()
            .map(|t| self.catalog.table(*t).name.as_str())
            .collect();
        let joins: Vec<String> = asg
            .joins
            .iter()
            .map(|e| format!("{}={}", self.qualified(e.left), self.qualified(e.right)))
            .collect();
        let agg = match asg.agg {
            Some(col) => format!("min:{}", self.qualified(col)),
            None => "count".to_string(),
        };
        prompt.push_str(&format!(
            "task: shape={} agg={agg} tables={}",
            asg.shape.name(),
            tables.join(",")
        ));
        if !joins.is_empty() {
            prompt.push_str(&format!(" joins={}", joins.join(";")));
        }
        if let Some((table, bucket)) = asg.filter {
            prompt.push_str(&format!(
                " filter_table={} filter_bucket={bucket}",
                self.catalog.table(table).name
            ));
        }
        prompt.push('\n');
        prompt
    }

    /// `table.column` for prompts and feedback lines.
    fn qualified(&self, col: ColumnId) -> String {
        let meta = self.catalog.column(col);
        format!("{}.{}", self.catalog.table(meta.table).name, meta.name)
    }

    /// Catalog-backed validation: the response must parse, resolve every
    /// table, and reproduce the assigned structure *exactly*. The error
    /// string becomes the `invalid:` feedback line.
    fn validate(&self, sql: &str, asg: &Assignment) -> std::result::Result<(), String> {
        let parsed = lt_sql::parse_query(sql).map_err(|e| format!("parse error: {e}"))?;
        let analysis = lt_sql::analysis::analyze(&parsed);
        for t in &analysis.tables {
            if self.catalog.table_by_name(t).is_none() {
                return Err(format!("unknown table {t}"));
            }
        }
        let mut expected_tables: Vec<String> = asg
            .tables
            .iter()
            .map(|t| self.catalog.table(*t).name.clone())
            .collect();
        expected_tables.sort();
        if analysis.tables != expected_tables {
            return Err(format!(
                "wrong tables, expected {}",
                expected_tables.join(",")
            ));
        }
        let preds = extract(&parsed, &self.catalog);
        let mut expected_joins: Vec<JoinEdge> = asg.joins.iter().map(|e| e.normalized()).collect();
        expected_joins.sort_by_key(|j| (j.left, j.right));
        expected_joins.dedup();
        if preds.joins != expected_joins {
            let want: Vec<String> = expected_joins
                .iter()
                .map(|e| format!("{}={}", self.qualified(e.left), self.qualified(e.right)))
                .collect();
            return Err(format!("wrong joins, expected {}", want.join(";")));
        }
        match asg.filter {
            Some((table, bucket)) => {
                let entry = &self.menu[&table][&bucket];
                let expected = vec![FilterTerm {
                    column: entry.column,
                    kind: entry.kind,
                }];
                let ok = preds.filters.len() == 1
                    && preds
                        .filters
                        .get(&table)
                        .is_some_and(|terms| *terms == expected);
                if !ok {
                    return Err(format!(
                        "wrong filter, expected bucket {bucket} on {}",
                        self.catalog.table(table).name
                    ));
                }
            }
            None => {
                if !preds.filters.is_empty() {
                    return Err("unexpected filter predicate".to_string());
                }
            }
        }
        if !preds.has_aggregates {
            return Err("missing aggregate in select list".to_string());
        }
        Ok(())
    }

    /// Conformance of the realized assignments against the spec. The
    /// validation loop proves the SQL reproduces each assignment exactly,
    /// so measuring the assignments *is* measuring the parsed workload.
    fn measure(&self, spec: &WorkloadSpec, assignments: &[Assignment]) -> Conformance {
        let n = assignments.len().max(1) as f64;
        let mix = spec.join_mix.normalized();
        let mut shape_counts = [0usize; 3];
        let mut anchor_counts: BTreeMap<TableId, usize> = BTreeMap::new();
        let mut depth_sum = 0usize;
        let mut filtered = 0usize;
        let mut bucket_violations = 0usize;
        for asg in assignments {
            let si = match asg.shape {
                Shape::Chain => 0,
                Shape::Star => 1,
                Shape::Clique => 2,
            };
            shape_counts[si] += 1;
            *anchor_counts.entry(asg.anchor).or_default() += 1;
            depth_sum += asg.tables.len();
            if let Some((_, bucket)) = asg.filter {
                filtered += 1;
                if !(spec.bucket_min..=spec.bucket_max).contains(&bucket) {
                    bucket_violations += 1;
                }
            }
        }
        let mix_error = (0..3)
            .map(|i| (shape_counts[i] as f64 / n - mix[i]).abs())
            .fold(0.0f64, f64::max);
        let zipf = zipf_weights(self.universe.len(), spec.skew);
        let zsum: f64 = zipf.iter().sum();
        let skew_error = self
            .universe
            .iter()
            .zip(&zipf)
            .map(|(t, w)| {
                let achieved = anchor_counts.get(t).copied().unwrap_or(0) as f64 / n;
                (achieved - w / zsum).abs()
            })
            .fold(0.0f64, f64::max);
        Conformance {
            mix_error,
            skew_error,
            mean_depth: depth_sum as f64 / n,
            filtered,
            bucket_violations,
        }
    }
}

/// Normalizes, sorts and deduplicates a realized join-edge list — the
/// same canonical form `extract` produces, so validation compares sets.
fn normalize_joins(joins: Vec<JoinEdge>) -> Vec<JoinEdge> {
    let mut out: Vec<JoinEdge> = joins.into_iter().map(JoinEdge::normalized).collect();
    out.sort_by_key(|j| (j.left, j.right));
    out.dedup();
    out
}

/// Largest-remainder apportionment of `n` slots over `weights`: assigned
/// counts deviate from exact quotas by strictly less than 1.
fn apportion(n: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum::<f64>().max(1e-12);
    let quotas: Vec<f64> = weights.iter().map(|w| n as f64 * w / sum).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (quotas[a] - quotas[a].floor(), quotas[b] - quotas[b].floor());
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    for &i in order.iter().take(n.saturating_sub(assigned)) {
        counts[i] += 1;
    }
    counts
}

/// Zipf weights `1/(rank+1)^skew` over `len` ranks (unnormalized).
fn zipf_weights(len: usize, skew: f64) -> Vec<f64> {
    (0..len).map(|i| ((i + 1) as f64).powf(-skew)).collect()
}

/// Builds the per-table selectivity menu: for each table, the first
/// achievable predicate per log₂ bucket, iterating columns in
/// declaration order and filter kinds from coarse to fine so the choice
/// is deterministic.
fn build_menu(catalog: &Catalog) -> BTreeMap<TableId, BTreeMap<i64, MenuEntry>> {
    let est = Estimator::new(catalog, 0);
    let kinds = [
        FilterKind::IsNotNull,
        FilterKind::Range,
        FilterKind::Between,
        FilterKind::InList(3),
        FilterKind::Equality,
    ];
    let mut menu: BTreeMap<TableId, BTreeMap<i64, MenuEntry>> = BTreeMap::new();
    for table in catalog.tables() {
        let entries = menu.entry(table.id).or_default();
        for &col in &table.columns {
            for kind in kinds {
                let term = FilterTerm { column: col, kind };
                let sel = est.estimated_table_selectivity(&[term]);
                if sel <= 0.0 {
                    continue;
                }
                let bucket = (-sel.log2()).floor().clamp(0.0, 40.0) as i64;
                entries.entry(bucket).or_insert_with(|| MenuEntry {
                    column: col,
                    kind,
                    sql: render_predicate(catalog, col, kind),
                });
            }
        }
    }
    menu
}

/// Renders a filter predicate whose extracted [`FilterKind`] matches the
/// menu entry (literal values are irrelevant: the estimator is
/// statistics-driven and never reads them).
fn render_predicate(catalog: &Catalog, col: ColumnId, kind: FilterKind) -> String {
    let q = {
        let meta = catalog.column(col);
        format!("{}.{}", catalog.table(meta.table).name, meta.name)
    };
    match kind {
        FilterKind::IsNotNull => format!("{q} is not null"),
        FilterKind::Range => format!("{q} < 100"),
        FilterKind::Between => format!("{q} between 10 and 20"),
        FilterKind::InList(_) => format!("{q} in (1, 2, 3)"),
        _ => format!("{q} = 1"),
    }
}
