//! Cost-based query optimizer.
//!
//! A Selinger-style planner: per-table access-path selection (sequential
//! scan vs B-tree index scan) followed by dynamic-programming join ordering
//! over left-deep trees, with hash, merge and index-nested-loop join
//! methods. All cost formulas use the knobs' planner constants
//! (`seq_page_cost`, `random_page_cost`, `cpu_*_cost`, `effective_cache_size`,
//! `work_mem`), so configuration changes move plan choices exactly the way
//! they do in PostgreSQL — the behaviour λ-Tune's generated configurations
//! exploit (paper §6.3: lowering `random_page_cost` and raising
//! `effective_cache_size` "motivate the query optimizer to use indexes more
//! often").
//!
//! # Join enumeration
//!
//! Production planning ([`Optimizer::plan_extracted`]) uses a DPccp-style
//! dynamic program ([`Optimizer::dpccp_join`]): instead of enumerating all
//! `2^n` subsets into a `HashMap` of cloned plan trees, it walks only the
//! *connected* subsets of the join graph (disconnected subsets can never
//! appear in an edge-linked plan), keeps a dense `Vec`-indexed memo of
//! `(cost, rows, width, best_split)` cells over bitmasks, prunes subsets
//! that already cost more than a greedy pilot plan for their component
//! (admissible: the optimum is never pruned), and reconstructs the single
//! winning `PlanNode` tree once at the end. That makes full DP affordable
//! for every Join Order Benchmark query (the original JOB joins up to 17
//! relations); beyond [`DP_RELATION_LIMIT`] a greedy heuristic
//! (PostgreSQL's GEQO analogue) takes over. Two reference planners,
//! [`Optimizer::plan_naive_dp`] and [`Optimizer::plan_greedy`], exist so
//! tests can check DPccp against naive all-subsets DP and against greedy.

use crate::catalog::{Catalog, PAGE_SIZE};
use crate::knobs::KnobSet;
use crate::physical::IndexCatalog;
use crate::plan::{Plan, PlanNode, PlanOp};
use crate::stats::{extract, Estimator, FilterKind, QueryPredicates};
use lt_common::{obs, ColumnId, IndexId, TableId};
use lt_sql::ast::Query;
use std::collections::HashMap;

/// Maximum number of relations planned with exact DP. The original Join
/// Order Benchmark's widest queries join 17 relations (our single-alias
/// repro caps at 12), so every JOB query gets a full DP plan with headroom.
/// Beyond the limit the planner falls back to the greedy heuristic.
pub const DP_RELATION_LIMIT: usize = 17;

/// Widest join [`Optimizer::plan_extracted`] plans with DP alone. Above it
/// (up to [`DP_RELATION_LIMIT`]) it also builds the greedy plan and keeps
/// the cheaper one, because greedy can build bushy trees the left-deep DP
/// space does not contain. 13 is where exact DP stopped before DPccp, so
/// no join planned greedily then costs more than greedy's plan now.
pub const DP_ONLY_RELATION_LIMIT: usize = 13;

/// Planner cost constants resolved once per planner instance (knob lookups
/// are string-keyed; the DP inner loop must not pay for them per candidate).
/// Every value is computed with exactly the expression the cost formulas
/// used inline, so plans are bit-identical to per-call lookup.
#[derive(Debug, Clone, Copy)]
struct PlannerCosts {
    seq_page: f64,
    cpu_tuple: f64,
    cpu_index_tuple: f64,
    /// `cpu_tuple * 0.25`, the per-comparison operator cost.
    cpu_op: f64,
    eff_random_page: f64,
    work_mem_bytes: f64,
}

/// The query planner.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    knobs: &'a KnobSet,
    indexes: &'a IndexCatalog,
    est: Estimator<'a>,
    costs: PlannerCosts,
}

/// One candidate access path / partial join result during planning.
#[derive(Debug, Clone)]
struct Candidate {
    node: PlanNode,
    /// Tables covered by this candidate.
    tables: u64,
}

/// Scalar view of one join input: everything the cost formulas need,
/// without materializing a plan tree.
#[derive(Debug, Clone, Copy)]
struct JoinSide {
    rows: f64,
    cost: f64,
    width: f64,
}

impl JoinSide {
    fn of(node: &PlanNode) -> JoinSide {
        JoinSide {
            rows: node.est_rows,
            cost: node.est_cost,
            width: node.width,
        }
    }
}

/// Join method picked by [`Optimizer::choose_join`], with enough detail to
/// rebuild the corresponding `PlanNode` exactly.
#[derive(Debug, Clone, Copy)]
enum JoinMethod {
    Cross,
    Hash {
        /// True when the inner input is the probe side (build on outer).
        swapped: bool,
        spills: bool,
    },
    Merge,
    IndexNl {
        index: IndexId,
        per_probe: f64,
        matches_per_probe: f64,
        lookup_sel: f64,
    },
}

/// Outcome of scalar join costing.
#[derive(Debug, Clone, Copy)]
struct JoinChoice {
    method: JoinMethod,
    rows: f64,
    cost: f64,
}

/// Dense DP memo cell: the best left-deep plan for one table subset, as
/// scalars plus the last-joined table for reconstruction. Empty cells carry
/// an infinite cost.
#[derive(Debug, Clone, Copy)]
struct DpCell {
    cost: f64,
    rows: f64,
    width: f64,
    split: u8,
}

impl DpCell {
    const EMPTY: DpCell = DpCell {
        cost: f64::INFINITY,
        rows: 0.0,
        width: 0.0,
        split: u8::MAX,
    };

    fn is_empty(&self) -> bool {
        self.cost.is_infinite()
    }
}

/// One join-graph edge with both endpoints resolved to `preds.tables`
/// indexes and its estimated selectivity computed once.
#[derive(Debug, Clone, Copy)]
struct GraphEdge {
    li: usize,
    ri: usize,
    left: ColumnId,
    right: ColumnId,
    sel: f64,
}

/// The query's join graph, preprocessed for O(degree) connection tests: the
/// naive enumerator re-resolved every edge's tables and re-estimated its
/// selectivity on every `connection()` call.
struct JoinGraph {
    n: usize,
    edges: Vec<GraphEdge>,
    /// Edge indexes incident to each table, ascending — i.e. in global
    /// `preds.joins` order, which fixes key order and selectivity
    /// multiplication order exactly as the naive enumerator had them.
    edges_at: Vec<Vec<usize>>,
    /// Adjacency bitmasks.
    adj: Vec<u64>,
}

impl JoinGraph {
    fn build(catalog: &Catalog, est: &Estimator<'_>, preds: &QueryPredicates) -> JoinGraph {
        let n = preds.tables.len();
        let mut edges = Vec::with_capacity(preds.joins.len());
        let mut edges_at = vec![Vec::new(); n];
        let mut adj = vec![0u64; n];
        for edge in &preds.joins {
            let lt = catalog.column(edge.left).table;
            let rt = catalog.column(edge.right).table;
            let li = preds.tables.iter().position(|t| *t == lt);
            let ri = preds.tables.iter().position(|t| *t == rt);
            let (Some(li), Some(ri)) = (li, ri) else {
                continue;
            };
            if li == ri {
                continue;
            }
            let e = edges.len();
            edges.push(GraphEdge {
                li,
                ri,
                left: edge.left,
                right: edge.right,
                sel: est.estimated_join_selectivity(*edge),
            });
            edges_at[li].push(e);
            edges_at[ri].push(e);
            adj[li] |= 1 << ri;
            adj[ri] |= 1 << li;
        }
        JoinGraph {
            n,
            edges,
            edges_at,
            adj,
        }
    }

    /// First (outer key, inner key) pair and combined selectivity of the
    /// edges linking `covered` to table `t` — the scalars join costing
    /// needs, without allocating the full key vector.
    fn connection_first(&self, covered: u64, t: usize) -> Option<(ColumnId, ColumnId, f64)> {
        let mut sel = 1.0;
        let mut first: Option<(ColumnId, ColumnId)> = None;
        for &e in &self.edges_at[t] {
            let ed = &self.edges[e];
            let (ok, ik) = if ed.ri == t && covered & (1 << ed.li) != 0 {
                (ed.left, ed.right)
            } else if ed.li == t && covered & (1 << ed.ri) != 0 {
                (ed.right, ed.left)
            } else {
                continue;
            };
            sel *= ed.sel;
            if first.is_none() {
                first = Some((ok, ik));
            }
        }
        first.map(|(ok, ik)| (ok, ik, sel))
    }

    /// All connecting key pairs plus combined selectivity (reconstruction
    /// needs the full vector for the join operator).
    fn connection_keys(&self, covered: u64, t: usize) -> Option<(Vec<(ColumnId, ColumnId)>, f64)> {
        let mut keys: Vec<(ColumnId, ColumnId)> = Vec::new();
        let mut sel = 1.0;
        for &e in &self.edges_at[t] {
            let ed = &self.edges[e];
            let pair = if ed.ri == t && covered & (1 << ed.li) != 0 {
                (ed.left, ed.right)
            } else if ed.li == t && covered & (1 << ed.ri) != 0 {
                (ed.right, ed.left)
            } else {
                continue;
            };
            keys.push(pair);
            sel *= ed.sel;
        }
        if keys.is_empty() {
            None
        } else {
            Some((keys, sel))
        }
    }

    /// Connected components as bitmasks, ordered by lowest table index.
    fn components(&self) -> Vec<u64> {
        let mut seen = 0u64;
        let mut comps = Vec::new();
        for start in 0..self.n {
            if seen & (1 << start) != 0 {
                continue;
            }
            let mut comp = 1u64 << start;
            loop {
                let mut grown = comp;
                for (i, a) in self.adj.iter().enumerate() {
                    if comp & (1 << i) != 0 {
                        grown |= a;
                    }
                }
                if grown == comp {
                    break;
                }
                comp = grown;
            }
            seen |= comp;
            comps.push(comp);
        }
        comps
    }
}

/// A join's inner side qualifies for index nested loop only when it is a
/// bare base-table scan.
fn nl_inner_table(node: &PlanNode) -> Option<TableId> {
    match node.op {
        PlanOp::SeqScan { table, .. } | PlanOp::IndexScan { table, .. } => Some(table),
        _ => None,
    }
}

impl<'a> Optimizer<'a> {
    /// Creates a planner over the given catalog, knobs and index set.
    /// `stats_seed` fixes the misestimation pattern of the underlying
    /// estimator (shared with the execution model for consistency).
    pub fn new(
        catalog: &'a Catalog,
        knobs: &'a KnobSet,
        indexes: &'a IndexCatalog,
        stats_seed: u64,
    ) -> Self {
        let quality = match knobs.dbms() {
            crate::knobs::Dbms::Postgres => {
                Estimator::quality_from_stats_target(knobs.get_f64("default_statistics_target"))
            }
            crate::knobs::Dbms::Mysql => 0.0,
        };
        let est = Estimator::new(catalog, stats_seed).with_stats_quality(quality);
        let cache = knobs.planner_cache_bytes() as f64;
        let data = catalog.total_bytes() as f64;
        let miss = (1.0 - cache / (cache + data)).clamp(0.05, 1.0);
        let spc = knobs.seq_page_cost();
        let rpc = knobs.random_page_cost();
        let ctc = knobs.cpu_tuple_cost();
        let costs = PlannerCosts {
            seq_page: spc,
            cpu_tuple: ctc,
            cpu_index_tuple: knobs.cpu_index_tuple_cost(),
            cpu_op: ctc * 0.25,
            eff_random_page: spc + (rpc - spc).max(0.0) * miss,
            work_mem_bytes: knobs.work_mem_bytes() as f64,
        };
        Optimizer {
            catalog,
            knobs,
            indexes,
            est,
            costs,
        }
    }

    /// Plans a query. Queries referencing no known table produce a trivial
    /// constant plan.
    pub fn plan(&self, query: &Query) -> Plan {
        let preds = extract(query, self.catalog);
        self.plan_extracted(&preds)
    }

    /// Plans from already-extracted predicates (used by the facade to avoid
    /// re-extraction): DPccp up to [`DP_RELATION_LIMIT`] relations, greedy
    /// beyond; above [`DP_ONLY_RELATION_LIMIT`] the cheaper of the two.
    pub fn plan_extracted(&self, preds: &QueryPredicates) -> Plan {
        self.plan_with(preds, |base| {
            let n = base.len();
            if n > DP_RELATION_LIMIT {
                obs::counter(obs::names::PLANNER_GREEDY_PLANS, 1);
                return self.greedy_join(base, preds);
            }
            let dp = self.dpccp_join(&base, preds);
            if n <= DP_ONLY_RELATION_LIMIT {
                return dp;
            }
            let greedy = self.greedy_join(base, preds);
            if greedy.node.est_cost < dp.node.est_cost {
                obs::counter(obs::names::PLANNER_GREEDY_PLANS, 1);
                greedy
            } else {
                dp
            }
        })
    }

    /// Reference planner: the naive all-subsets DP over left-deep trees,
    /// exponential in time and in cloned plan trees. DPccp must return
    /// exactly its plan; tests compare the two.
    pub fn plan_naive_dp(&self, preds: &QueryPredicates) -> Plan {
        self.plan_with(preds, |base| self.naive_dp_join(&base, preds))
    }

    /// Reference planner: the greedy heuristic alone, the plan
    /// [`Optimizer::plan_extracted`] returns beyond [`DP_RELATION_LIMIT`].
    pub fn plan_greedy(&self, preds: &QueryPredicates) -> Plan {
        self.plan_with(preds, |base| self.greedy_join(base, preds))
    }

    /// The steps every planner shares: best access path per table, `join`
    /// to order them, then Gather and the post-join operators.
    fn plan_with(
        &self,
        preds: &QueryPredicates,
        join: impl FnOnce(Vec<Candidate>) -> Candidate,
    ) -> Plan {
        if preds.tables.is_empty() {
            let root = PlanNode::leaf(PlanOp::Limit { rows: 1 }, 1.0, 0.01, 8.0);
            return Plan {
                root,
                join_costs: Vec::new(),
            };
        }
        let base: Vec<Candidate> = preds
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| Candidate {
                node: self.best_access_path(*t, preds),
                tables: 1 << i,
            })
            .collect();
        let joined = join(base);
        let mut join_costs = Vec::new();
        self.collect_join_costs(&joined.node, preds, &mut join_costs);
        let mut root = joined.node;
        root = self.maybe_gather(root);
        root = self.finalize(root, preds);
        Plan { root, join_costs }
    }

    // ---- access paths ----

    /// Effective per-page cost of a random fetch under the cache assumption
    /// (resolved once at planner construction; the miss fraction derives
    /// from `effective_cache_size` relative to the database size — a larger
    /// assumed cache makes index scans cheaper).
    fn effective_random_page_cost(&self) -> f64 {
        self.costs.eff_random_page
    }

    fn seq_scan_cost(&self, table: TableId) -> f64 {
        let t = self.catalog.table(table);
        let pages = t.pages(self.catalog) as f64;
        let rows = t.rows as f64;
        pages * self.knobs.seq_page_cost() + rows * self.knobs.cpu_tuple_cost()
    }

    fn index_scan_cost(&self, table: TableId, selectivity: f64) -> f64 {
        let t = self.catalog.table(table);
        let rows = t.rows as f64;
        let pages = t.pages(self.catalog) as f64;
        let fetched_rows = (selectivity * rows).max(1.0);
        // Heap pages touched: one random fetch per row, capped by the heap.
        let heap_pages = fetched_rows.min(pages);
        let descent = (rows.max(2.0)).log2() * self.knobs.cpu_index_tuple_cost() * 10.0;
        descent
            + fetched_rows * self.knobs.cpu_index_tuple_cost()
            + heap_pages * self.effective_random_page_cost()
            + fetched_rows * self.knobs.cpu_tuple_cost()
    }

    /// Chooses the cheapest access path for one base table given its filter
    /// terms and the available indexes.
    fn best_access_path(&self, table: TableId, preds: &QueryPredicates) -> PlanNode {
        let t = self.catalog.table(table);
        let rows = t.rows as f64;
        let width = t.row_width(self.catalog) as f64;
        let empty = Vec::new();
        let terms = preds.filters.get(&table).unwrap_or(&empty);
        let sel = self.est.estimated_table_selectivity(terms);
        let out_rows = (rows * sel).max(1.0);

        let seq = PlanNode::leaf(
            PlanOp::SeqScan {
                table,
                selectivity: sel,
            },
            out_rows,
            self.seq_scan_cost(table),
            width,
        );

        // An index is usable when its leading column carries a sargable
        // filter; the index lookup covers that term's selectivity and the
        // remaining terms filter residually.
        let mut best = seq;
        for term in terms {
            if !sargable(term.kind) {
                continue;
            }
            let Some(index) = self.indexes.with_leading_column(term.column) else {
                continue;
            };
            if index.table != table {
                continue;
            }
            let term_sel = self.est.estimated_table_selectivity(&[*term]);
            let cost = self.index_scan_cost(table, term_sel);
            if cost < best.est_cost {
                best = PlanNode::leaf(
                    PlanOp::IndexScan {
                        table,
                        index: index.id,
                        selectivity: sel,
                    },
                    out_rows,
                    cost,
                    width,
                );
            }
        }
        best
    }

    // ---- join costing (scalar core) ----

    /// Costs every join method for `outer ⋈ inner` and picks the cheapest,
    /// on scalars only. This is the single source of truth for join
    /// arithmetic: the DP memo, the greedy pilot and the final tree
    /// reconstruction all go through it, so memo costs and rebuilt
    /// `PlanNode`s agree bit-for-bit.
    ///
    /// `conn` is the first connecting key pair plus the combined selectivity
    /// of all connecting edges (`None` ⇒ Cartesian product). `nl_inner`
    /// names the inner side's base table when the inner is a bare scan —
    /// the only shape index nested loop applies to.
    fn choose_join(
        &self,
        outer: JoinSide,
        inner: JoinSide,
        conn: Option<(ColumnId, ColumnId, f64)>,
        nl_inner: Option<TableId>,
    ) -> JoinChoice {
        let Some((_okey, ikey, sel)) = conn else {
            // Cartesian product: rows multiply; heavily penalized.
            let rows = (outer.rows * inner.rows).max(1.0);
            let cost = outer.cost + inner.cost + rows * self.costs.cpu_tuple * 4.0;
            return JoinChoice {
                method: JoinMethod::Cross,
                rows,
                cost,
            };
        };
        let out_rows = (outer.rows * inner.rows * sel).max(1.0);
        let cpu_op = self.costs.cpu_op;

        // Hash join: build on the smaller input (we put the build side
        // second, matching PlanOp's convention).
        let (probe, build, swapped) = if outer.rows >= inner.rows {
            (outer, inner, false)
        } else {
            (inner, outer, true)
        };
        let build_bytes = build.rows * build.width;
        let spills = build_bytes > self.costs.work_mem_bytes;
        let mut hash_cost = probe.cost
            + build.cost
            + build.rows * cpu_op * 2.0
            + probe.rows * cpu_op
            + out_rows * self.costs.cpu_tuple * 0.5;
        if spills {
            let spill_pages = (build_bytes + probe.rows * probe.width) / PAGE_SIZE as f64;
            hash_cost += 2.0 * spill_pages * self.costs.seq_page;
        }

        // Merge join: sort both inputs (ignoring interesting orders).
        let sort_cost = |rows: f64| {
            let r = rows.max(2.0);
            r * r.log2() * cpu_op * 2.0
        };
        let merge_cost = outer.cost
            + inner.cost
            + sort_cost(outer.rows)
            + sort_cost(inner.rows)
            + (outer.rows + inner.rows) * cpu_op
            + out_rows * self.costs.cpu_tuple * 0.5;

        let (mut method, mut cost) = if hash_cost <= merge_cost {
            (JoinMethod::Hash { swapped, spills }, hash_cost)
        } else {
            (JoinMethod::Merge, merge_cost)
        };

        // Index nested loop: inner side must be a bare scan of a table with
        // an index on the inner join key.
        if let Some(inner_table) = nl_inner {
            if self.catalog.column(ikey).table == inner_table {
                if let Some(index) = self.indexes.with_leading_column(ikey) {
                    let t = self.catalog.table(inner_table);
                    let inner_rows = t.rows as f64;
                    let matches_per_probe =
                        (inner_rows / self.catalog.column(ikey).ndv.max(1.0)).max(1.0);
                    let descent = (inner_rows.max(2.0)).log2() * self.costs.cpu_index_tuple * 10.0;
                    let per_probe = descent
                        + matches_per_probe
                            * (self.costs.cpu_index_tuple
                                + self.costs.eff_random_page
                                + self.costs.cpu_tuple);
                    let nl_cost = outer.cost + outer.rows * per_probe;
                    if nl_cost < cost {
                        let lookup_sel = (matches_per_probe / inner_rows).clamp(1e-12, 1.0);
                        method = JoinMethod::IndexNl {
                            index: index.id,
                            per_probe,
                            matches_per_probe,
                            lookup_sel,
                        };
                        cost = nl_cost;
                    }
                }
            }
        }

        JoinChoice {
            method,
            rows: out_rows,
            cost,
        }
    }

    /// Builds the plan node for `outer ⋈ inner` with the cheapest method
    /// (the tree-shaped companion of [`Optimizer::choose_join`]).
    fn join_node(
        &self,
        outer: &PlanNode,
        inner: &PlanNode,
        keys: Option<(Vec<(ColumnId, ColumnId)>, f64)>,
    ) -> PlanNode {
        let out_width = outer.width + inner.width;
        let conn = keys.as_ref().map(|(k, sel)| (k[0].0, k[0].1, *sel));
        let choice = self.choose_join(
            JoinSide::of(outer),
            JoinSide::of(inner),
            conn,
            nl_inner_table(inner),
        );
        match choice.method {
            JoinMethod::Cross => PlanNode {
                op: PlanOp::CrossJoin,
                children: vec![outer.clone(), inner.clone()],
                est_rows: choice.rows,
                est_cost: choice.cost,
                width: out_width,
            },
            JoinMethod::Hash { swapped, spills } => {
                let (probe, build) = if swapped {
                    (inner, outer)
                } else {
                    (outer, inner)
                };
                PlanNode {
                    op: PlanOp::HashJoin {
                        keys: keys.expect("hash join requires keys").0,
                        spills,
                    },
                    children: vec![probe.clone(), build.clone()],
                    est_rows: choice.rows,
                    est_cost: choice.cost,
                    width: out_width,
                }
            }
            JoinMethod::Merge => PlanNode {
                op: PlanOp::MergeJoin {
                    keys: keys.expect("merge join requires keys").0,
                },
                children: vec![outer.clone(), inner.clone()],
                est_rows: choice.rows,
                est_cost: choice.cost,
                width: out_width,
            },
            JoinMethod::IndexNl {
                index,
                per_probe,
                matches_per_probe,
                lookup_sel,
            } => {
                let inner_table =
                    nl_inner_table(inner).expect("index NL requires a bare inner scan");
                let inner_leaf = PlanNode::leaf(
                    PlanOp::IndexScan {
                        table: inner_table,
                        index,
                        selectivity: lookup_sel,
                    },
                    matches_per_probe,
                    per_probe,
                    inner.width,
                );
                PlanNode {
                    op: PlanOp::NestLoopJoin {
                        keys: keys.expect("NL join requires keys").0,
                        inner_index: Some(index),
                    },
                    children: vec![outer.clone(), inner_leaf],
                    est_rows: choice.rows,
                    est_cost: choice.cost,
                    width: out_width,
                }
            }
        }
    }

    // ---- join enumeration: DPccp ----

    /// DPccp-style exact DP over connected subsets (left-deep trees).
    ///
    /// Memo layout: `memo[mask]` is the best `(cost, rows, width, split)`
    /// for the table subset `mask`; only connected subsets ever become
    /// non-empty, and the winning tree is reconstructed from `split` chains
    /// at the end — no plan trees are cloned during enumeration.
    ///
    /// Pruning: per connected component, a greedy left-deep pilot chain
    /// (built with the same scalar costing) gives an upper bound `U` on the
    /// component's optimal cost; any subset whose best cost exceeds `U` can
    /// never be a prefix of an optimal chain (costs only grow along a
    /// chain), so its cell stays empty. This is admissible — the plan it
    /// produces is identical to unpruned DP, including tie-breaks.
    fn dpccp_join(&self, base: &[Candidate], preds: &QueryPredicates) -> Candidate {
        let n = base.len();
        if n == 1 {
            return base[0].clone();
        }
        assert!(
            n <= DP_RELATION_LIMIT,
            "dense DP memo capped at {DP_RELATION_LIMIT}"
        );
        let graph = JoinGraph::build(self.catalog, &self.est, preds);
        let comps = graph.components();
        let mut memo = vec![DpCell::EMPTY; 1usize << n];
        for (i, c) in base.iter().enumerate() {
            memo[1usize << i] = DpCell {
                cost: c.node.est_cost,
                rows: c.node.est_rows,
                width: c.node.width,
                split: i as u8,
            };
        }
        let mut pairs: u64 = 0;
        let mut pruned: u64 = 0;
        for &comp in &comps {
            if comp.count_ones() < 2 {
                continue;
            }
            let bound = self.pilot_bound(&graph, base, comp);
            // Enumerate submasks of the component in ascending numeric
            // order (rest = sub minus one bit is always smaller, so cells
            // are final before use).
            let mut sub: u64 = 0;
            loop {
                sub = sub.wrapping_sub(comp) & comp;
                if sub == 0 {
                    break;
                }
                if sub.count_ones() < 2 {
                    continue;
                }
                let mut best: Option<(usize, JoinChoice)> = None;
                let mut bits = sub;
                while bits != 0 {
                    let t = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let rest = sub & !(1u64 << t);
                    let rest_cell = memo[rest as usize];
                    if rest_cell.is_empty() {
                        continue;
                    }
                    // Cross joins are never enumerated here: a subset with
                    // no connecting edge gets no cell, so a connected join
                    // graph only produces edge-linked plans. Disconnected
                    // graphs are handled below by cross-joining the
                    // per-component winners.
                    let Some((okey, ikey, sel)) = graph.connection_first(rest, t) else {
                        continue;
                    };
                    pairs += 1;
                    let choice = self.choose_join(
                        JoinSide {
                            rows: rest_cell.rows,
                            cost: rest_cell.cost,
                            width: rest_cell.width,
                        },
                        JoinSide::of(&base[t].node),
                        Some((okey, ikey, sel)),
                        nl_inner_table(&base[t].node),
                    );
                    if best
                        .as_ref()
                        .map(|(_, b)| choice.cost < b.cost)
                        .unwrap_or(true)
                    {
                        best = Some((t, choice));
                    }
                }
                if let Some((t, choice)) = best {
                    if choice.cost > bound {
                        pruned += 1;
                        continue;
                    }
                    let rest = sub & !(1u64 << (t as u32));
                    memo[sub as usize] = DpCell {
                        cost: choice.cost,
                        rows: choice.rows,
                        width: memo[rest as usize].width + base[t].node.width,
                        split: t as u8,
                    };
                }
            }
        }
        obs::counter(obs::names::PLANNER_DP_PLANS, 1);
        if pairs > 0 {
            obs::counter(obs::names::PLANNER_CCP_PAIRS, pairs);
            obs::counter(obs::names::PLANNER_CCP_PRUNED, pruned);
        }
        let full = (1u64 << n) - 1;
        let node = if comps.len() == 1 {
            self.rebuild(full, &memo, &graph, base)
        } else {
            // Disconnected join graph: the only way to combine components
            // is a Cartesian product, in component order.
            let mut it = comps.iter();
            let first = *it.next().expect("at least one component");
            let mut acc = self.rebuild(first, &memo, &graph, base);
            for &comp in it {
                let right = self.rebuild(comp, &memo, &graph, base);
                acc = self.join_node(&acc, &right, None);
            }
            acc
        };
        Candidate { node, tables: full }
    }

    /// Greedy left-deep pilot over one component: from every start table,
    /// repeatedly absorb the cheapest connected table; the best chain cost
    /// is an upper bound on the component's optimal left-deep cost.
    fn pilot_bound(&self, graph: &JoinGraph, base: &[Candidate], comp: u64) -> f64 {
        let mut best = f64::INFINITY;
        let mut starts = comp;
        while starts != 0 {
            let s = starts.trailing_zeros() as usize;
            starts &= starts - 1;
            let mut covered = 1u64 << s;
            let mut side = JoinSide::of(&base[s].node);
            let mut dead = false;
            while covered != comp {
                let mut pick: Option<(usize, JoinChoice)> = None;
                let mut rem = comp & !covered;
                while rem != 0 {
                    let t = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    let Some((okey, ikey, sel)) = graph.connection_first(covered, t) else {
                        continue;
                    };
                    let choice = self.choose_join(
                        side,
                        JoinSide::of(&base[t].node),
                        Some((okey, ikey, sel)),
                        nl_inner_table(&base[t].node),
                    );
                    if pick
                        .as_ref()
                        .map(|(_, p)| choice.cost < p.cost)
                        .unwrap_or(true)
                    {
                        pick = Some((t, choice));
                    }
                }
                let Some((t, choice)) = pick else {
                    dead = true;
                    break;
                };
                side = JoinSide {
                    rows: choice.rows,
                    cost: choice.cost,
                    width: side.width + base[t].node.width,
                };
                covered |= 1 << t;
            }
            if !dead && side.cost < best {
                best = side.cost;
            }
        }
        best
    }

    /// Reconstructs the winning plan tree for `mask` from the memo's split
    /// chain, re-deriving each join through [`Optimizer::join_node`] so the
    /// rebuilt nodes carry exactly the costs the DP computed.
    fn rebuild(
        &self,
        mask: u64,
        memo: &[DpCell],
        graph: &JoinGraph,
        base: &[Candidate],
    ) -> PlanNode {
        if mask.count_ones() == 1 {
            return base[mask.trailing_zeros() as usize].node.clone();
        }
        let cell = memo[mask as usize];
        debug_assert!(!cell.is_empty(), "rebuilding an empty DP cell");
        let t = cell.split as usize;
        let rest = mask & !(1u64 << t);
        let left = self.rebuild(rest, memo, graph, base);
        let keys = graph
            .connection_keys(rest, t)
            .expect("a DP cell implies a connection");
        let node = self.join_node(&left, &base[t].node, Some(keys));
        debug_assert_eq!(
            node.est_cost.to_bits(),
            cell.cost.to_bits(),
            "rebuilt node cost drifted from DP memo"
        );
        node
    }

    // ---- join enumeration: naive DP (reference) ----

    /// Join edges connecting a covered set to a new base table; returns
    /// every `(outer key, inner key)` pair plus the combined selectivity of
    /// all connecting edges. It resolves edges from `preds` on every call
    /// rather than through DPccp's [`JoinGraph`], so the reference planner
    /// shares no join-graph code with the planner it checks.
    fn connection(
        &self,
        covered: u64,
        next: usize,
        preds: &QueryPredicates,
    ) -> Option<(Vec<(ColumnId, ColumnId)>, f64)> {
        let next_table = preds.tables[next];
        let mut keys: Vec<(ColumnId, ColumnId)> = Vec::new();
        let mut sel = 1.0;
        for edge in &preds.joins {
            let lt = self.catalog.column(edge.left).table;
            let rt = self.catalog.column(edge.right).table;
            let l_idx = preds.tables.iter().position(|t| *t == lt);
            let r_idx = preds.tables.iter().position(|t| *t == rt);
            let (Some(li), Some(ri)) = (l_idx, r_idx) else {
                continue;
            };
            let l_in = covered & (1 << li) != 0;
            let r_in = covered & (1 << ri) != 0;
            if l_in && rt == next_table {
                keys.push((edge.left, edge.right));
                sel *= self.est.estimated_join_selectivity(*edge);
            } else if r_in && lt == next_table {
                keys.push((edge.right, edge.left));
                sel *= self.est.estimated_join_selectivity(*edge);
            }
        }
        if keys.is_empty() {
            None
        } else {
            Some((keys, sel))
        }
    }

    /// Naive exact DP: all-subsets enumeration with a `HashMap` of cloned
    /// plan trees (see [`Optimizer::plan_naive_dp`]).
    fn naive_dp_join(&self, base: &[Candidate], preds: &QueryPredicates) -> Candidate {
        let n = base.len();
        if n == 1 {
            return base[0].clone();
        }
        let mut best: HashMap<u64, Candidate> = HashMap::new();
        for c in base {
            best.insert(c.tables, c.clone());
        }
        for size in 2..=n {
            for mask in 1u64..(1 << n) {
                if mask.count_ones() as usize != size {
                    continue;
                }
                let mut best_for_mask: Option<Candidate> = None;
                for (next, base_entry) in base.iter().enumerate() {
                    if mask & (1 << next) == 0 {
                        continue;
                    }
                    let rest = mask & !(1 << next);
                    let Some(left) = best.get(&rest) else {
                        continue;
                    };
                    let Some(keys) = self.connection(rest, next, preds) else {
                        continue;
                    };
                    let node = self.join_node(&left.node, &base_entry.node, Some(keys));
                    if best_for_mask
                        .as_ref()
                        .map(|b| node.est_cost < b.node.est_cost)
                        .unwrap_or(true)
                    {
                        best_for_mask = Some(Candidate { node, tables: mask });
                    }
                }
                if let Some(b) = best_for_mask {
                    best.insert(mask, b);
                }
            }
        }
        let full = (1u64 << n) - 1;
        match best.remove(&full) {
            Some(w) => w,
            None => {
                // The join graph is disconnected: every connected component
                // has a DP winner (single tables are base entries), and the
                // only way to combine components is a Cartesian product.
                let mut comps = self.components(n, preds).into_iter();
                let first = comps.next().expect("at least one component");
                let mut acc = best.remove(&first).expect("component winner exists");
                for comp in comps {
                    let right = best.remove(&comp).expect("component winner exists");
                    let node = self.join_node(&acc.node, &right.node, None);
                    acc = Candidate {
                        node,
                        tables: acc.tables | comp,
                    };
                }
                acc
            }
        }
    }

    /// Connected components of the join graph, as bitmasks over
    /// `preds.tables` indices, ordered by their lowest table index.
    fn components(&self, n: usize, preds: &QueryPredicates) -> Vec<u64> {
        let mut adj = vec![0u64; n];
        for edge in &preds.joins {
            let lt = self.catalog.column(edge.left).table;
            let rt = self.catalog.column(edge.right).table;
            let li = preds.tables.iter().position(|t| *t == lt);
            let ri = preds.tables.iter().position(|t| *t == rt);
            let (Some(li), Some(ri)) = (li, ri) else {
                continue;
            };
            if li != ri {
                adj[li] |= 1 << ri;
                adj[ri] |= 1 << li;
            }
        }
        let mut seen = 0u64;
        let mut comps = Vec::new();
        for start in 0..n {
            if seen & (1 << start) != 0 {
                continue;
            }
            let mut comp = 1u64 << start;
            loop {
                let mut grown = comp;
                for (i, a) in adj.iter().enumerate() {
                    if comp & (1 << i) != 0 {
                        grown |= a;
                    }
                }
                if grown == comp {
                    break;
                }
                comp = grown;
            }
            seen |= comp;
            comps.push(comp);
        }
        comps
    }

    /// Greedy fallback for very wide joins: repeatedly merge the pair with
    /// the smallest result cost.
    fn greedy_join(&self, mut cands: Vec<Candidate>, preds: &QueryPredicates) -> Candidate {
        while cands.len() > 1 {
            // A connected pair always beats a cross join, whatever the
            // costs; cross joins only happen once the remaining candidates
            // are mutually disconnected (separate join-graph components).
            let mut best: Option<(usize, usize, PlanNode, bool)> = None;
            for i in 0..cands.len() {
                for j in 0..cands.len() {
                    if i == j {
                        continue;
                    }
                    let keys = self.connection_between(cands[i].tables, cands[j].tables, preds);
                    let connected = keys.is_some();
                    if !connected && best.as_ref().is_some_and(|(_, _, _, c)| *c) {
                        continue;
                    }
                    let node = self.join_node(&cands[i].node, &cands[j].node, keys);
                    let better = match &best {
                        None => true,
                        Some((_, _, b, best_conn)) => {
                            (connected && !best_conn)
                                || (connected == *best_conn && node.est_cost < b.est_cost)
                        }
                    };
                    if better {
                        best = Some((i, j, node, connected));
                    }
                }
            }
            let (i, j, node, _) = best.expect("at least one pair exists");
            let tables = cands[i].tables | cands[j].tables;
            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
            cands.swap_remove(hi);
            cands.swap_remove(lo);
            cands.push(Candidate { node, tables });
        }
        cands.pop().expect("one candidate remains")
    }

    fn connection_between(
        &self,
        left_set: u64,
        right_set: u64,
        preds: &QueryPredicates,
    ) -> Option<(Vec<(ColumnId, ColumnId)>, f64)> {
        let mut keys: Vec<(ColumnId, ColumnId)> = Vec::new();
        let mut sel = 1.0;
        for edge in &preds.joins {
            let lt = self.catalog.column(edge.left).table;
            let rt = self.catalog.column(edge.right).table;
            let li = preds.tables.iter().position(|t| *t == lt);
            let ri = preds.tables.iter().position(|t| *t == rt);
            let (Some(li), Some(ri)) = (li, ri) else {
                continue;
            };
            let l_left = left_set & (1 << li) != 0;
            let r_right = right_set & (1 << ri) != 0;
            let l_right = right_set & (1 << li) != 0;
            let r_left = left_set & (1 << ri) != 0;
            if l_left && r_right {
                keys.push((edge.left, edge.right));
                sel *= self.est.estimated_join_selectivity(*edge);
            } else if l_right && r_left {
                keys.push((edge.right, edge.left));
                sel *= self.est.estimated_join_selectivity(*edge);
            }
        }
        if keys.is_empty() {
            None
        } else {
            Some((keys, sel))
        }
    }

    /// Re-derives per-join-condition incremental costs from the final tree
    /// (the DP explores many candidates; only the winner's joins count).
    fn collect_join_costs(
        &self,
        node: &PlanNode,
        _preds: &QueryPredicates,
        out: &mut Vec<(ColumnId, ColumnId, f64)>,
    ) {
        node.visit(&mut |n| {
            let child_cost: f64 = n.children.iter().map(|c| c.est_cost).sum();
            match &n.op {
                PlanOp::HashJoin { keys, .. }
                | PlanOp::MergeJoin { keys }
                | PlanOp::NestLoopJoin { keys, .. } => {
                    let incremental = (n.est_cost - child_cost).max(0.0);
                    for (l, r) in keys {
                        out.push((*l, *r, incremental));
                    }
                }
                _ => {}
            }
        });
    }

    // ---- post-join operators ----

    /// Wraps the plan in a Gather when parallel workers are configured and
    /// the input is large enough to benefit (PostgreSQL's
    /// `min_parallel_table_scan_size` analogue).
    fn maybe_gather(&self, node: PlanNode) -> PlanNode {
        let workers = self.knobs.parallel_workers();
        if workers == 0 {
            return node;
        }
        let biggest_pages = node
            .scanned_tables()
            .iter()
            .map(|t| self.catalog.table(*t).pages(self.catalog))
            .max()
            .unwrap_or(0);
        if biggest_pages < 1024 {
            return node;
        }
        let speedup = 1.0 + 0.7 * workers as f64;
        let est_rows = node.est_rows;
        let width = node.width;
        let cost = node.est_cost / speedup + 100.0 * workers as f64 * self.knobs.cpu_tuple_cost();
        PlanNode {
            op: PlanOp::Gather { workers },
            children: vec![node],
            est_rows,
            est_cost: cost,
            width,
        }
    }

    fn finalize(&self, mut node: PlanNode, preds: &QueryPredicates) -> PlanNode {
        let cpu_op = self.knobs.cpu_tuple_cost() * 0.25;
        if preds.has_aggregates || preds.group_by_columns > 0 {
            let grouped = preds.group_by_columns > 0;
            let in_rows = node.est_rows;
            let out_rows = if grouped {
                (in_rows * 0.1).max(1.0)
            } else {
                1.0
            };
            let cost = node.est_cost + in_rows * cpu_op * 2.0;
            let width = node.width.min(64.0);
            node = PlanNode {
                op: PlanOp::Aggregate { grouped },
                children: vec![node],
                est_rows: out_rows,
                est_cost: cost,
                width,
            };
        }
        if preds.order_by_columns > 0 {
            let rows = node.est_rows.max(2.0);
            let bytes = rows * node.width;
            let spills = bytes > self.knobs.work_mem_bytes() as f64;
            let mut cost = node.est_cost + rows * rows.log2() * cpu_op;
            if spills {
                cost += 2.0 * (bytes / PAGE_SIZE as f64) * self.knobs.seq_page_cost();
            }
            let est_rows = node.est_rows;
            let width = node.width;
            node = PlanNode {
                op: PlanOp::Sort { spills },
                children: vec![node],
                est_rows,
                est_cost: cost,
                width,
            };
        }
        if let Some(limit) = preds.limit {
            let est_rows = node.est_rows.min(limit as f64);
            let cost = node.est_cost;
            let width = node.width;
            node = PlanNode {
                op: PlanOp::Limit { rows: limit },
                children: vec![node],
                est_rows,
                est_cost: cost,
                width,
            };
        }
        node
    }
}

/// Filter kinds an index lookup can serve.
fn sargable(kind: FilterKind) -> bool {
    matches!(
        kind,
        FilterKind::Equality
            | FilterKind::Range
            | FilterKind::Between
            | FilterKind::InList(_)
            | FilterKind::LikePrefix
            | FilterKind::SemiJoin
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{Dbms, KnobSet};
    use lt_sql::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table("lineitem", 6_000_000)
            .primary_key("l_orderkey", 8)
            .foreign_key("l_partkey", 8, 200_000.0)
            .column("l_shipdate", 4, 2_500.0)
            .column("l_extendedprice", 8, 900_000.0)
            .finish();
        c.add_table("orders", 1_500_000)
            .primary_key("o_orderkey", 8)
            .foreign_key("o_custkey", 8, 150_000.0)
            .column("o_orderdate", 4, 2_400.0)
            .finish();
        c.add_table("customer", 150_000)
            .primary_key("c_custkey", 8)
            .column("c_mktsegment", 10, 5.0)
            .finish();
        c
    }

    fn plan_sql(c: &Catalog, knobs: &KnobSet, idx: &IndexCatalog, sql: &str) -> Plan {
        let q = parse_query(sql).unwrap();
        Optimizer::new(c, knobs, idx, 42).plan(&q)
    }

    #[test]
    fn single_table_seq_scan_by_default() {
        let c = catalog();
        let knobs = KnobSet::defaults(Dbms::Postgres);
        let idx = IndexCatalog::new();
        let p = plan_sql(
            &c,
            &knobs,
            &idx,
            "select * from customer where c_mktsegment = 'A'",
        );
        assert!(
            matches!(p.root.op, PlanOp::SeqScan { .. }),
            "{}",
            p.explain()
        );
    }

    #[test]
    fn index_scan_when_selective_and_cheap_random_io() {
        let c = catalog();
        let mut knobs = KnobSet::defaults(Dbms::Postgres);
        knobs.set_text("random_page_cost", "1.1").unwrap();
        knobs.set_text("effective_cache_size", "45GB").unwrap();
        let mut idx = IndexCatalog::new();
        let col = c.resolve_column(None, "o_orderkey").unwrap();
        let t = c.table_by_name("orders").unwrap();
        idx.add(t, vec![col], None);
        let p = plan_sql(
            &c,
            &knobs,
            &idx,
            "select * from orders where o_orderkey = 42",
        );
        // Highly selective equality + index + cheap random IO ⇒ index scan.
        let has_index_scan = p.root.used_indexes().len() == 1;
        assert!(has_index_scan, "{}", p.explain());
    }

    #[test]
    fn high_random_page_cost_discourages_index() {
        let c = catalog();
        let mut knobs = KnobSet::defaults(Dbms::Postgres);
        knobs.set_text("random_page_cost", "1000").unwrap();
        knobs.set_text("effective_cache_size", "8kB").unwrap();
        let mut idx = IndexCatalog::new();
        let col = c.resolve_column(None, "l_shipdate").unwrap();
        let t = c.table_by_name("lineitem").unwrap();
        idx.add(t, vec![col], None);
        // A between filter touches ~12% of rows; with absurd random IO cost
        // the seq scan must win.
        let p = plan_sql(
            &c,
            &knobs,
            &idx,
            "select * from lineitem where l_shipdate between date '1994-01-01' and date '1994-03-01'",
        );
        assert!(p.root.used_indexes().is_empty(), "{}", p.explain());
    }

    #[test]
    fn join_plan_covers_all_tables() {
        let c = catalog();
        let knobs = KnobSet::defaults(Dbms::Postgres);
        let idx = IndexCatalog::new();
        let p = plan_sql(
            &c,
            &knobs,
            &idx,
            "select * from lineitem l, orders o, customer cu \
             where l.l_orderkey = o.o_orderkey and o.o_custkey = cu.c_custkey",
        );
        let tables = p.root.scanned_tables();
        assert_eq!(tables.len(), 3, "{}", p.explain());
        // Two join conditions → two join cost entries.
        assert_eq!(p.join_costs.len(), 2, "{:?}", p.join_costs);
    }

    #[test]
    fn work_mem_affects_spill_flag() {
        let c = catalog();
        let mut small = KnobSet::defaults(Dbms::Postgres);
        small.set_text("work_mem", "64kB").unwrap();
        let mut big = KnobSet::defaults(Dbms::Postgres);
        big.set_text("work_mem", "8GB").unwrap();
        let idx = IndexCatalog::new();
        let sql = "select * from lineitem, orders where l_orderkey = o_orderkey";
        let p_small = plan_sql(&c, &small, &idx, sql);
        let p_big = plan_sql(&c, &big, &idx, sql);
        let spill_of = |p: &Plan| {
            let mut spilled = false;
            p.root.visit(&mut |n| {
                if let PlanOp::HashJoin { spills, .. } = n.op {
                    spilled |= spills;
                }
            });
            spilled
        };
        // With 8GB of work memory nothing spills; the big plan must also be
        // cheaper.
        assert!(!spill_of(&p_big), "{}", p_big.explain());
        assert!(p_big.total_cost() <= p_small.total_cost());
    }

    #[test]
    fn aggregates_sort_and_limit_are_added() {
        let c = catalog();
        let knobs = KnobSet::defaults(Dbms::Postgres);
        let idx = IndexCatalog::new();
        let p = plan_sql(
            &c,
            &knobs,
            &idx,
            "select o_orderdate, count(*) from orders group by o_orderdate \
             order by o_orderdate limit 10",
        );
        let text = p.explain();
        assert!(text.contains("Limit"), "{text}");
        assert!(text.contains("Sort"), "{text}");
        assert!(text.contains("Aggregate"), "{text}");
    }

    #[test]
    fn parallel_workers_add_gather() {
        let c = catalog();
        let mut knobs = KnobSet::defaults(Dbms::Postgres);
        knobs
            .set_text("max_parallel_workers_per_gather", "4")
            .unwrap();
        let idx = IndexCatalog::new();
        let p = plan_sql(&c, &knobs, &idx, "select count(*) from lineitem");
        assert!(p.explain().contains("Gather"), "{}", p.explain());

        let mut no_par = KnobSet::defaults(Dbms::Postgres);
        no_par
            .set_text("max_parallel_workers_per_gather", "0")
            .unwrap();
        let p2 = plan_sql(&c, &no_par, &idx, "select count(*) from lineitem");
        assert!(!p2.explain().contains("Gather"), "{}", p2.explain());
    }

    #[test]
    fn nestloop_with_index_for_fk_join() {
        let c = catalog();
        let mut knobs = KnobSet::defaults(Dbms::Postgres);
        knobs.set_text("random_page_cost", "1.1").unwrap();
        knobs.set_text("effective_cache_size", "45GB").unwrap();
        let mut idx = IndexCatalog::new();
        let t = c.table_by_name("customer").unwrap();
        let col = c.resolve_column(None, "c_custkey").unwrap();
        idx.add(t, vec![col], None);
        // Small filtered orders side probing customer by PK: NL-index wins.
        let p = plan_sql(
            &c,
            &knobs,
            &idx,
            "select * from orders, customer where o_custkey = c_custkey \
             and o_orderdate = date '1995-01-01'",
        );
        let mut has_nl = false;
        p.root.visit(&mut |n| {
            if matches!(
                n.op,
                PlanOp::NestLoopJoin {
                    inner_index: Some(_),
                    ..
                }
            ) {
                has_nl = true;
            }
        });
        assert!(has_nl, "{}", p.explain());
    }

    #[test]
    fn query_without_known_tables_yields_trivial_plan() {
        let c = catalog();
        let knobs = KnobSet::defaults(Dbms::Postgres);
        let idx = IndexCatalog::new();
        let p = plan_sql(&c, &knobs, &idx, "select * from unknown_table");
        assert_eq!(p.root.node_count(), 1);
    }

    #[test]
    fn plans_are_deterministic() {
        let c = catalog();
        let knobs = KnobSet::defaults(Dbms::Postgres);
        let idx = IndexCatalog::new();
        let sql = "select * from lineitem, orders, customer \
                   where l_orderkey = o_orderkey and o_custkey = c_custkey";
        let p1 = plan_sql(&c, &knobs, &idx, sql);
        let p2 = plan_sql(&c, &knobs, &idx, sql);
        assert_eq!(p1, p2);
    }

    #[test]
    fn dpccp_matches_naive_dp_on_small_queries() {
        let c = catalog();
        let knobs = KnobSet::defaults(Dbms::Postgres);
        let idx = IndexCatalog::new();
        let sql = "select * from lineitem l, orders o, customer cu \
                   where l.l_orderkey = o.o_orderkey and o.o_custkey = cu.c_custkey";
        let q = parse_query(sql).unwrap();
        let opt = Optimizer::new(&c, &knobs, &idx, 42);
        let preds = extract(&q, &c);
        let a = opt.plan_extracted(&preds);
        let b = opt.plan_naive_dp(&preds);
        assert_eq!(a, b, "DPccp and naive DP must produce identical plans");
    }

    #[test]
    fn dpccp_matches_naive_dp_with_cross_join_components() {
        let c = catalog();
        let knobs = KnobSet::defaults(Dbms::Postgres);
        let idx = IndexCatalog::new();
        // lineitem–orders connected; customer is an island → cross join.
        let sql = "select * from lineitem, orders, customer where l_orderkey = o_orderkey";
        let q = parse_query(sql).unwrap();
        let opt = Optimizer::new(&c, &knobs, &idx, 42);
        let preds = extract(&q, &c);
        let a = opt.plan_extracted(&preds);
        let b = opt.plan_naive_dp(&preds);
        assert_eq!(a, b);
        let mut crosses = 0;
        a.root.visit(&mut |n| {
            if matches!(n.op, PlanOp::CrossJoin) {
                crosses += 1;
            }
        });
        assert_eq!(crosses, 1, "{}", a.explain());
    }
}
