//! Workload compression via integer linear programming (paper §3.2–3.3).
//!
//! Given the valued join snippets, the compressor chooses which to convey
//! to the LLM under a token budget. Lines have the form
//! `A: B, C, D` (column `A` joins with each of `B`, `C`, `D`), so sharing a
//! left-hand side amortizes its token cost. Selection is the paper's ILP:
//!
//! * binary `R⟨c1,c2⟩` — `c2` appears on `c1`'s right-hand side,
//! * binary `L_c` — `c` owns a line,
//! * `R⟨c1,c2⟩ ≤ L_c1`, `L_c1 ≤ Σ R⟨c1,·⟩`, `R⟨a,b⟩ + R⟨b,a⟩ ≤ 1`,
//! * token budget `Σ H_c2·R + Σ H_c·L ≤ B`,
//! * maximize `Σ V(p)·R_p`.

use crate::snippets::Snippet;
use lt_common::lru::{Counters, Memo};
use lt_common::{obs, ColumnId, FxHasher, Result};
use lt_dbms::Catalog;
use lt_ilp::{solve, Ilp, SolveOptions};
use lt_llm::count_tokens;
use lt_workloads::Obfuscator;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;
use std::sync::OnceLock;

/// Bound on the ILP memo.
const MEMO_CAP: usize = 256;

/// Process-wide memo for ILP compression results. The solve is the most
/// expensive step of a cold tuning session (on a 2-core box ~0.1 ms on
/// TPC-H, ~0.13 s on JOB at 8000 tokens and ~0.4 s on JOB at 196, vs
/// microseconds for planning), and the benchmark matrix re-runs it with
/// identical inputs: trials of the same scenario share snippets
/// (estimated costs are seed-independent under default statistics), as do
/// ablation variants that only change selector behaviour. Keyed by a
/// fingerprint of everything `compress` reads — budget, snippet ids and
/// values, and the rendered column names. Bounded LRU (evictions counted as
/// `compress.memo_evict`) so fleet-scale runs cannot grow it without limit.
fn compression_memo() -> &'static Memo<u64, CompressedWorkload> {
    static MEMO: OnceLock<Memo<u64, CompressedWorkload>> = OnceLock::new();
    MEMO.get_or_init(|| {
        Memo::new(
            MEMO_CAP,
            Counters {
                hit: "compress.memo_hit",
                miss: "compress.memo_miss",
                evict: "compress.memo_evict",
            },
        )
    })
}

/// The compressed workload description destined for the prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedWorkload {
    /// One line per left-hand-side column: `table.col: table.col, …`,
    /// ordered by total conveyed value (most valuable first).
    pub lines: Vec<String>,
    /// Approximate token count of [`CompressedWorkload::text`].
    pub tokens: usize,
    /// Total value of the selected snippets.
    pub selected_value: f64,
    /// Total value of all snippets (selected + dropped).
    pub total_value: f64,
    /// True when the ILP solver proved the selection optimal.
    pub optimal: bool,
}

impl CompressedWorkload {
    /// The newline-joined description.
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }

    /// Fraction of total snippet value conveyed to the LLM.
    pub fn coverage(&self) -> f64 {
        if self.total_value <= 0.0 {
            1.0
        } else {
            self.selected_value / self.total_value
        }
    }
}

/// The workload compressor.
pub struct Compressor<'a> {
    catalog: &'a Catalog,
    obfuscator: Option<&'a Obfuscator>,
}

impl<'a> Compressor<'a> {
    /// Compressor rendering real catalog names.
    pub fn new(catalog: &'a Catalog) -> Self {
        Compressor {
            catalog,
            obfuscator: None,
        }
    }

    /// Compressor rendering obfuscated names (paper §6.4.3).
    pub fn obfuscated(catalog: &'a Catalog, obfuscator: &'a Obfuscator) -> Self {
        Compressor {
            catalog,
            obfuscator: Some(obfuscator),
        }
    }

    /// Renders a column as it will appear in the prompt.
    pub fn render_column(&self, col: ColumnId) -> String {
        let meta = self.catalog.column(col);
        let table = &self.catalog.table(meta.table).name;
        match self.obfuscator {
            Some(ob) => format!("{}.{}", ob.table(table), ob.column(table, &meta.name)),
            None => format!("{table}.{}", meta.name),
        }
    }

    /// Fingerprint of every input `compress` depends on: the budget, the
    /// snippets (ids and value bits) and the rendered column names (which
    /// fold in catalog naming and obfuscation).
    fn compress_key(&self, snippets: &[Snippet], budget: usize) -> u64 {
        let mut h = FxHasher::new();
        h.write_u64(budget as u64);
        h.write_u64(snippets.len() as u64);
        for s in snippets {
            h.write_u32(s.left.0);
            h.write_u32(s.right.0);
            h.write_u64(s.value.to_bits());
            h.write(self.render_column(s.left).as_bytes());
            h.write(self.render_column(s.right).as_bytes());
        }
        h.finish()
    }

    /// Selects and renders the most valuable snippets within `budget`
    /// tokens by solving the paper's ILP. Results are memoized process-wide
    /// (see [`compression_memo`]); `compress` is a pure function of its
    /// inputs, so the memo is invisible except for speed.
    pub fn compress(&self, snippets: &[Snippet], budget: usize) -> Result<CompressedWorkload> {
        let total_value: f64 = snippets.iter().map(|s| s.value).sum();
        if snippets.is_empty() || budget == 0 {
            return Ok(CompressedWorkload {
                lines: Vec::new(),
                tokens: 0,
                selected_value: 0.0,
                total_value,
                optimal: true,
            });
        }
        let key = self.compress_key(snippets, budget);
        compression_memo().try_get_or_insert_with(key, || {
            let _span = obs::span("tune.compress");
            self.compress_uncached(snippets, budget, total_value)
        })
    }

    /// The paper's ILP over `snippets` under `budget` tokens: variable
    /// [`r_var`]`(i, d)` selects snippet `i` in direction `d`, and one line
    /// variable per distinct column follows.
    fn model(&self, snippets: &[Snippet], budget: usize) -> Result<Ilp> {
        // Collect distinct columns and their token costs. Every rendered
        // element also costs separator punctuation (`:` or `,` plus
        // spacing), folded into H.
        let mut columns: Vec<ColumnId> = snippets.iter().flat_map(|s| [s.left, s.right]).collect();
        columns.sort_unstable();
        columns.dedup();
        let col_index: HashMap<ColumnId, usize> =
            columns.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        let token_cost: Vec<f64> = columns
            .iter()
            .map(|c| (count_tokens(&self.render_column(*c)) + 1) as f64)
            .collect();

        // Variable layout: R variables for both directions of each
        // snippet, then L variables per column.
        let n_r = snippets.len() * 2;
        let n_l = columns.len();
        let mut ilp = Ilp::new(n_r + n_l);
        let l_var = |ci: usize| n_r + ci;

        let mut budget_terms: Vec<(usize, f64)> = Vec::new();
        for (si, s) in snippets.iter().enumerate() {
            for d in 0..2 {
                let (lhs, rhs) = if d == 0 {
                    (s.left, s.right)
                } else {
                    (s.right, s.left)
                };
                let (lhs_i, rhs_i) = (col_index[&lhs], col_index[&rhs]);
                let rv = r_var(si, d);
                // An epsilon preference for the normalized direction. The
                // solver is exact only to its 1e-9 prune tolerance, so the
                // bonus decides between equally good directions only when
                // it exceeds that (|value| above ~1); then renaming columns
                // cannot flip the line. A smaller bonus can lose to the
                // branching order, which follows token costs and so names:
                // JOB renders `movie_link.link_type_id: link_type.id`
                // (value 0.11, bonus 1.1e-10). See DESIGN.md, "Known
                // deviations".
                let bonus = if d == 0 {
                    s.value.abs() * 1e-9 + 1e-12
                } else {
                    0.0
                };
                ilp.set_objective(rv, s.value.max(0.0) + bonus)?;
                // R ≤ L(lhs)
                ilp.add_implication(rv, l_var(lhs_i))?;
                budget_terms.push((rv, token_cost[rhs_i]));
            }
            // Symmetric directions conflict.
            ilp.add_conflict(r_var(si, 0), r_var(si, 1))?;
        }
        // L ≤ Σ R over this lhs (prune lines without members).
        let mut per_lhs: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
        for (si, s) in snippets.iter().enumerate() {
            per_lhs
                .entry(col_index[&s.left])
                .or_default()
                .push((r_var(si, 0), -1.0));
            per_lhs
                .entry(col_index[&s.right])
                .or_default()
                .push((r_var(si, 1), -1.0));
        }
        for (lhs_i, mut terms) in per_lhs {
            terms.push((l_var(lhs_i), 1.0));
            ilp.add_le(&terms, 0.0)?;
        }
        for (ci, cost) in token_cost.iter().enumerate() {
            budget_terms.push((l_var(ci), *cost));
        }
        ilp.add_le(&budget_terms, budget as f64)?;
        Ok(ilp)
    }

    fn compress_uncached(
        &self,
        snippets: &[Snippet],
        budget: usize,
        total_value: f64,
    ) -> Result<CompressedWorkload> {
        let solution = solve(&self.model(snippets, budget)?, SolveOptions::default())?;

        // Render: group selected R variables by left-hand side. Recompute
        // the selected value from raw snippet values (the solver objective
        // additionally carries the canonical-direction epsilons).
        let mut groups: BTreeMap<ColumnId, Vec<(ColumnId, f64)>> = BTreeMap::new();
        let mut selected_value = 0.0;
        for (si, s) in snippets.iter().enumerate() {
            if solution.values[r_var(si, 0)] {
                groups.entry(s.left).or_default().push((s.right, s.value));
                selected_value += s.value;
            }
            if solution.values[r_var(si, 1)] {
                groups.entry(s.right).or_default().push((s.left, s.value));
                selected_value += s.value;
            }
        }
        let mut rendered: Vec<(f64, String)> = groups
            .into_iter()
            .map(|(lhs, mut members)| {
                members.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                let value: f64 = members.iter().map(|m| m.1).sum();
                let rhs: Vec<String> = members
                    .iter()
                    .map(|(c, _)| self.render_column(*c))
                    .collect();
                (
                    value,
                    format!("{}: {}", self.render_column(lhs), rhs.join(", ")),
                )
            })
            .collect();
        rendered.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let lines: Vec<String> = rendered.into_iter().map(|(_, l)| l).collect();
        let tokens = count_tokens(&lines.join("\n"));
        Ok(CompressedWorkload {
            lines,
            tokens,
            selected_value,
            total_value,
            optimal: solution.optimal,
        })
    }
}

/// R variable of snippet `si` in direction `d` (0: left→right, 1: reverse).
fn r_var(si: usize, d: usize) -> usize {
    si * 2 + d
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_dbms::{Dbms, Hardware, SimDb};
    use lt_workloads::Benchmark;
    use std::collections::HashSet;

    fn snippets_of(benchmark: Benchmark) -> (lt_workloads::Workload, Vec<Snippet>) {
        let w = benchmark.load();
        let db = SimDb::new(Dbms::Postgres, w.catalog.clone(), Hardware::p3_2xlarge(), 1);
        let s = crate::snippets::extract_snippets(&db, &w);
        (w, s)
    }

    fn tpch_snippets() -> (lt_workloads::Workload, Vec<Snippet>) {
        snippets_of(Benchmark::TpchSf1)
    }

    #[test]
    fn compression_respects_budget() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        for budget in [50, 150, 400] {
            let out = c.compress(&snippets, budget).unwrap();
            assert!(
                out.tokens <= budget,
                "budget {budget} exceeded: {} tokens",
                out.tokens
            );
            assert!(out.optimal);
        }
    }

    #[test]
    fn bigger_budget_never_reduces_value() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        let small = c.compress(&snippets, 80).unwrap();
        let big = c.compress(&snippets, 400).unwrap();
        assert!(big.selected_value >= small.selected_value);
        assert!(big.coverage() <= 1.0 + 1e-9);
    }

    #[test]
    fn generous_budget_covers_everything() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        let out = c.compress(&snippets, 100_000).unwrap();
        assert!(
            (out.coverage() - 1.0).abs() < 1e-9,
            "coverage {}",
            out.coverage()
        );
    }

    /// Greedy selection in value order, the oracle the ILP must match or
    /// beat: the value it selects within `budget` tokens.
    fn greedy_value(c: &Compressor, snippets: &[Snippet], budget: usize) -> f64 {
        let mut by_value: Vec<&Snippet> = snippets.iter().collect();
        by_value.sort_by(|a, b| {
            b.value
                .partial_cmp(&a.value)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut opened: HashSet<ColumnId> = HashSet::new();
        let mut used = 0usize;
        let mut selected_value = 0.0;
        for s in by_value {
            let rhs_cost = count_tokens(&c.render_column(s.right)) + 1;
            let lhs_cost = if opened.contains(&s.left) {
                0
            } else {
                count_tokens(&c.render_column(s.left)) + 1
            };
            if used + rhs_cost + lhs_cost > budget {
                continue;
            }
            used += rhs_cost + lhs_cost;
            selected_value += s.value;
            opened.insert(s.left);
        }
        selected_value
    }

    #[test]
    fn ilp_beats_or_matches_greedy() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        for budget in [60, 120, 250] {
            let ilp = c.compress(&snippets, budget).unwrap();
            let greedy = greedy_value(&c, &snippets, budget);
            assert!(
                ilp.selected_value >= greedy - 1e-9,
                "budget {budget}: ilp {} < greedy {greedy}",
                ilp.selected_value,
            );
        }
    }

    #[test]
    fn lines_have_the_paper_format() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        let out = c.compress(&snippets, 300).unwrap();
        assert!(!out.lines.is_empty());
        for line in &out.lines {
            let (lhs, rhs) = line.split_once(':').expect("A: B, C format");
            assert!(lhs.contains('.'), "qualified name: {lhs}");
            assert!(!rhs.trim().is_empty());
        }
    }

    #[test]
    fn zero_budget_yields_empty_description() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        let out = c.compress(&snippets, 0).unwrap();
        assert!(out.lines.is_empty());
        assert_eq!(out.tokens, 0);
    }

    #[test]
    fn obfuscated_rendering_hides_names() {
        let (w, snippets) = tpch_snippets();
        let ob = Obfuscator::new(&w.catalog);
        let c = Compressor::obfuscated(&w.catalog, &ob);
        let out = c.compress(&snippets, 300).unwrap();
        let text = out.text();
        assert!(!text.contains("lineitem"), "{text}");
        assert!(!text.contains("orderkey"), "{text}");
        assert!(text.contains('T') && text.contains('C'), "{text}");
    }

    #[test]
    fn symmetric_directions_are_never_both_selected() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        let out = c.compress(&snippets, 400).unwrap();
        // If A: …B… exists, no line may contain B: …A…
        for (i, line) in out.lines.iter().enumerate() {
            let (lhs, rhs) = line.split_once(':').unwrap();
            for member in rhs.split(',') {
                let member = member.trim();
                for (j, other) in out.lines.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let (olhs, orhs) = other.split_once(':').unwrap();
                    if olhs.trim() == member {
                        assert!(
                            !orhs.split(',').any(|m| m.trim() == lhs.trim()),
                            "symmetric pair rendered twice: {line} / {other}"
                        );
                    }
                }
            }
        }
    }

    /// 64-bit FNV-1a of a compressed text.
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    const GOLDEN_BUDGETS: [usize; 10] = [40, 100, 196, 300, 400, 800, 1000, 1600, 3200, 8000];

    /// Pins the text at every budget in [`GOLDEN_BUDGETS`] to its recorded
    /// digest: `first` for the leading budgets, `rest` for the others, and
    /// asserts every solve is optimal. Near-ties within the solver's 1e-9
    /// tolerance are decided by its search order, so a change to the search
    /// must keep the assignment, not just the objective.
    fn assert_golden(benchmark: Benchmark, first: &[u64], rest: u64) {
        let (w, snippets) = snippets_of(benchmark);
        let c = Compressor::new(&w.catalog);
        for (i, budget) in GOLDEN_BUDGETS.into_iter().enumerate() {
            let out = c.compress(&snippets, budget).unwrap();
            assert!(out.optimal, "{} at {budget} tokens", benchmark.name());
            assert_eq!(
                fnv1a(&out.text()),
                first.get(i).copied().unwrap_or(rest),
                "{} at {budget} tokens:\n{}",
                benchmark.name(),
                out.text()
            );
        }
    }

    #[test]
    fn tpch_texts_are_pinned() {
        let first = [0xd234_a28a_de99_6af1, 0x07b3_5dc3_b9ee_381b];
        assert_golden(Benchmark::TpchSf1, &first, 0x9f2c_99e5_df9e_c937);
    }

    #[test]
    fn tpcds_texts_are_pinned() {
        let first = [
            0xf32a_dcca_c5a0_84f0,
            0x39fc_e9ad_04fc_a8c3,
            0xc44d_85ac_9fed_2d9a,
        ];
        assert_golden(Benchmark::TpcdsSf1, &first, 0xb4a3_33cc_c32e_2a56);
    }

    #[test]
    fn job_texts_are_pinned() {
        let first = [
            0xc515_870c_040a_ccde,
            0x1a79_f0e3_087a_3bb5,
            0xd929_1cc7_9513_9ff4,
        ];
        // From 300 tokens up, with `movie_link.link_type_id: link_type.id`.
        assert_golden(Benchmark::Job, &first, 0x2220_a47f_ded3_8542);
    }

    /// Node ceilings at the default budget (context window / 16), so a
    /// search slowdown fails CI without a wall clock.
    #[test]
    fn default_budget_solves_stay_under_node_ceilings() {
        for (benchmark, ceiling) in [(Benchmark::Job, 100_000), (Benchmark::TpcdsSf1, 20_000)] {
            let (w, snippets) = snippets_of(benchmark);
            let model = Compressor::new(&w.catalog).model(&snippets, 8000).unwrap();
            let solution = solve(&model, SolveOptions::default()).unwrap();
            assert!(solution.optimal, "{}", benchmark.name());
            assert!(
                solution.nodes <= ceiling,
                "{}: {} nodes > {ceiling}",
                benchmark.name(),
                solution.nodes
            );
        }
    }
}
