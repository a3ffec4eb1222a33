//! Branch-and-bound solver for 0/1 maximization.

use crate::model::{Constraint, Ilp, VarId};
use lt_common::{obs, LtError, Result};

/// Solver limits.
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Maximum number of branch-and-bound nodes before giving up and
    /// returning the incumbent (marked non-optimal).
    pub max_nodes: u64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_nodes: 2_000_000,
        }
    }
}

/// A solver result.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Assignment per variable.
    pub values: Vec<bool>,
    /// Objective value of the assignment.
    pub objective: f64,
    /// True when the solver proved optimality (node budget not exhausted).
    pub optimal: bool,
    /// Number of branch-and-bound nodes explored.
    pub nodes: u64,
}

/// A constraint with no negative coefficient, prepared for its
/// fractional-knapsack bound.
struct Knapsack {
    /// Index into the model's constraints.
    row: usize,
    /// `(variable, weight)` of every positive-objective variable with a
    /// positive summed weight in the row, by descending value/weight (ties
    /// in index order).
    items: Vec<(VarId, f64)>,
    /// The same variables in ascending order.
    members: Vec<VarId>,
}

struct Search<'a> {
    model: &'a Ilp,
    /// Branching order: variables sorted by objective density.
    order: Vec<VarId>,
    /// Current partial assignment.
    fixed: Vec<Option<bool>>,
    /// Variables fixed by propagation, in fixing order; each node undoes
    /// its own suffix on return.
    trail: Vec<VarId>,
    /// Indices of the constraints each variable appears in.
    rows_of: Vec<Vec<usize>>,
    /// Rows [`Search::propagate`] still has to check, and a flag per row
    /// marking membership.
    queue: Vec<usize>,
    queued: Vec<bool>,
    /// Disjoint unit-coefficient rows of which at most one member can be 1.
    packing: Vec<Vec<VarId>>,
    /// Positive-objective variables outside every packing row.
    unpacked: Vec<VarId>,
    /// Covers the rounding of [`Search::packing_bound`] and of leaf sums.
    margin: f64,
    knapsacks: Vec<Knapsack>,
    best_values: Vec<bool>,
    best_objective: f64,
    nodes: u64,
    max_nodes: u64,
    exhausted: bool,
    bound_prunes: u64,
}

/// Solves the model to optimality (or to the node budget).
///
/// The all-false assignment must be feasible (true for the compression
/// model and for any pure `≤`-with-nonnegative-rhs model); models where it
/// is not are still handled, but if no feasible solution is found at all an
/// error is returned.
pub fn solve(model: &Ilp, options: SolveOptions) -> Result<Solution> {
    let _span = obs::span("ilp.solve");
    let n = model.num_vars();
    // Branch on high-density variables first: good incumbents early.
    let mut order: Vec<VarId> = (0..n).collect();
    let weight = |v: VarId| -> f64 {
        model
            .constraints()
            .iter()
            .flat_map(|c| c.coeffs.iter())
            .filter(|&&(cv, a)| cv == v && a > 0.0)
            .map(|&(_, a)| a)
            .sum::<f64>()
            .max(1e-9)
    };
    order.sort_by(|&a, &b| {
        let da = model.objective()[a] / weight(a);
        let db = model.objective()[b] / weight(b);
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut search = Search::new(model, order, options.max_nodes);
    // Seed the incumbent with the all-false assignment when feasible, so an
    // exhausted node budget still returns a valid solution.
    let all_false = vec![false; n];
    if model.is_feasible(&all_false) {
        search.best_objective = model.objective_value(&all_false);
        search.best_values = all_false;
    }

    search.branch(None, 0);

    // Accumulated locally during the search, recorded once per solve: the
    // per-node path must not touch the registry lock.
    obs::counter("ilp.solve.calls", 1);
    obs::counter("ilp.nodes", search.nodes);
    obs::counter("ilp.bound_prunes", search.bound_prunes);

    if search.best_objective == f64::NEG_INFINITY {
        return Err(LtError::Solver("no feasible solution found".into()));
    }
    Ok(Solution {
        objective: search.best_objective,
        values: search.best_values,
        optimal: !search.exhausted,
        nodes: search.nodes,
    })
}

impl<'a> Search<'a> {
    fn new(model: &'a Ilp, order: Vec<VarId>, max_nodes: u64) -> Self {
        let n = model.num_vars();
        let obj = model.objective();
        let mut rows_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (row, con) in model.constraints().iter().enumerate() {
            for &(v, _) in &con.coeffs {
                if rows_of[v].last() != Some(&row) {
                    rows_of[v].push(row);
                }
            }
        }
        // Rows `Σ x ≤ rhs` with unit coefficients and rhs < 2 admit at most
        // one member at 1. Each variable joins at most one such row.
        let mut packed = vec![false; n];
        let mut packing: Vec<Vec<VarId>> = Vec::new();
        for con in model.constraints() {
            if con.coeffs.is_empty()
                || con.rhs + 1e-9 >= 2.0
                || con.coeffs.iter().any(|&(v, a)| a != 1.0 || packed[v])
            {
                continue;
            }
            let mut members: Vec<VarId> = con.coeffs.iter().map(|&(v, _)| v).collect();
            members.sort_unstable();
            members.dedup();
            for &v in &members {
                packed[v] = true;
            }
            packing.push(members);
        }
        let unpacked = (0..n).filter(|&v| !packed[v] && obj[v] > 0.0).collect();
        // A sum of at most n objective terms is off by less than
        // (n-1)·ε/2·Σ|c|; the margin covers the bound's and the leaf's.
        let margin = n as f64 * f64::EPSILON * obj.iter().map(|c| c.abs()).sum::<f64>();
        let knapsacks = model
            .constraints()
            .iter()
            .enumerate()
            .filter(|(_, con)| !con.coeffs.iter().any(|&(_, a)| a < 0.0))
            .map(|(row, con)| knapsack(row, con, obj))
            .collect();
        Search {
            model,
            order,
            fixed: vec![None; n],
            trail: Vec::new(),
            rows_of,
            queue: Vec::new(),
            queued: vec![false; model.constraints().len()],
            packing,
            unpacked,
            margin,
            knapsacks,
            best_values: vec![false; n],
            best_objective: f64::NEG_INFINITY,
            nodes: 0,
            max_nodes,
            exhausted: false,
            bound_prunes: 0,
        }
    }

    /// Explores the subtree below the current assignment; `var` is the
    /// variable the caller just fixed (`None` at the root).
    fn branch(&mut self, var: Option<VarId>, depth: usize) {
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.exhausted = true;
            return;
        }
        let mark = self.trail.len();
        if self.propagate(var) && !self.pruned() {
            // Find the next unfixed variable in branching order.
            match self.order[depth..]
                .iter()
                .position(|&v| self.fixed[v].is_none())
            {
                None => self.leaf(),
                Some(p) => {
                    let v = self.order[depth + p];
                    for value in [true, false] {
                        self.fixed[v] = Some(value);
                        self.branch(Some(v), depth + p + 1);
                        if self.exhausted {
                            break;
                        }
                    }
                    self.fixed[v] = None;
                }
            }
        }
        for v in self.trail.drain(mark..) {
            self.fixed[v] = None;
        }
    }

    /// Unit propagation over `≤` constraints: a free variable whose
    /// inclusion (or exclusion) makes some constraint unsatisfiable is
    /// forced to the other value. Returns false on contradiction.
    ///
    /// The parent node is already a fixpoint, so only the rows of `var`
    /// (every row at the root) and then those of each newly forced variable
    /// can change; each is queued once until it is checked. Fixing a
    /// variable only raises a row's minimum activity, so the forcing rules
    /// are monotone and this reaches the same fixpoint as sweeping every row
    /// until nothing changes.
    fn propagate(&mut self, var: Option<VarId>) -> bool {
        let rows = self.model.constraints();
        let mut next = self.trail.len();
        match var {
            Some(v) => self.enqueue_rows_of(v),
            None => {
                self.queue.extend(0..rows.len());
                self.queued.fill(true);
            }
        }
        let mut ok = true;
        let mut head = 0;
        while head < self.queue.len() {
            let r = self.queue[head];
            head += 1;
            ok = ok && tighten(&rows[r], &mut self.fixed, &mut self.trail);
            // Forcing a member leaves the row's own activity unchanged, so
            // the row keeps its flag while its forced variables enqueue
            // their other rows.
            while ok && next < self.trail.len() {
                self.enqueue_rows_of(self.trail[next]);
                next += 1;
            }
            self.queued[r] = false;
        }
        self.queue.clear();
        ok
    }

    fn enqueue_rows_of(&mut self, v: VarId) {
        for &r in &self.rows_of[v] {
            if !self.queued[r] {
                self.queued[r] = true;
                self.queue.push(r);
            }
        }
    }

    /// Whether the subtree below the current node can be skipped.
    fn pruned(&mut self) -> bool {
        // Dominance: no leaf below passes the strict `obj > best` test in
        // `leaf`, so skipping leaves every incumbent as it was.
        let dominated = self.packing_bound() + self.margin <= self.best_objective;
        if dominated || self.upper_bound_at_most(self.best_objective + 1e-9) {
            self.bound_prunes += 1;
            return true;
        }
        false
    }

    fn leaf(&mut self) {
        let values: Vec<bool> = self.fixed.iter().map(|f| f.unwrap_or(false)).collect();
        debug_assert!(self.model.is_feasible(&values));
        let obj = self.model.objective_value(&values);
        if obj > self.best_objective {
            self.best_objective = obj;
            self.best_values = values;
        }
    }

    /// Set-packing bound on the best completion: the fixed value, plus the
    /// best free member of each packing row with no member at 1, plus every
    /// other free positive variable.
    fn packing_bound(&self) -> f64 {
        let obj = self.model.objective();
        let fixed = &self.fixed;
        let mut bound: f64 = (0..obj.len())
            .filter(|&v| fixed[v] == Some(true))
            .map(|v| obj[v])
            .sum();
        for row in &self.packing {
            if row.iter().any(|&v| fixed[v] == Some(true)) {
                continue;
            }
            bound += row
                .iter()
                .filter(|&&v| fixed[v].is_none())
                .map(|&v| obj[v])
                .fold(0.0, f64::max);
        }
        bound
            + self
                .unpacked
                .iter()
                .filter(|&&v| fixed[v].is_none())
                .map(|&v| obj[v])
                .sum::<f64>()
    }

    /// Whether the upper bound on the best completion of the current
    /// partial assignment is at most `limit`. The bound is the fixed value
    /// plus the minimum over single-constraint fractional-knapsack
    /// relaxations (falling back to the unconstrained sum).
    ///
    /// Near-ties within the 1e-9 prune tolerance are decided by this bound,
    /// so each candidate must stay bit-identical: every sum runs in the
    /// order of a plain pass over the whole model.
    fn upper_bound_at_most(&self, limit: f64) -> bool {
        let obj = self.model.objective();
        let fixed = &self.fixed;
        let fixed_value: f64 = (0..obj.len())
            .filter(|&v| fixed[v] == Some(true))
            .map(|v| obj[v])
            .sum();
        let free_positive: Vec<VarId> = (0..obj.len())
            .filter(|&v| fixed[v].is_none() && obj[v] > 0.0)
            .collect();
        let unconstrained: f64 = free_positive.iter().map(|&v| obj[v]).sum();
        fixed_value + unconstrained <= limit
            || self.knapsacks.iter().any(|k| {
                let con = &self.model.constraints()[k.row];
                fixed_value + k.bound(con, fixed, obj, &free_positive) <= limit
            })
    }
}

/// Checks one row under the current fixings and forces every free variable
/// it decides, recording each on `trail` (see [`Search::propagate`]).
/// Returns false when the row can no longer be satisfied.
fn tighten(con: &Constraint, fixed: &mut [Option<bool>], trail: &mut Vec<VarId>) -> bool {
    let min_act = con.min_activity(fixed);
    if min_act > con.rhs + 1e-9 {
        return false;
    }
    for &(v, a) in &con.coeffs {
        if fixed[v].is_some() {
            continue;
        }
        if a > 0.0 && min_act - a.min(0.0) + a > con.rhs + 1e-9 {
            // Setting v=1 would violate the constraint.
            fixed[v] = Some(false);
            trail.push(v);
        } else if a < 0.0 && min_act - a > con.rhs + 1e-9 {
            // Setting v=0 (removing its negative contribution)
            // would violate: v must be 1.
            fixed[v] = Some(true);
            trail.push(v);
        }
    }
    true
}

/// Prepares the fractional-knapsack bound of a constraint whose
/// coefficients are all non-negative.
fn knapsack(row: usize, con: &Constraint, obj: &[f64]) -> Knapsack {
    let mut members: Vec<VarId> = con
        .coeffs
        .iter()
        .map(|&(v, _)| v)
        .filter(|&v| obj[v] > 0.0)
        .collect();
    members.sort_unstable();
    members.dedup();
    let mut items: Vec<(VarId, f64)> = members
        .iter()
        .map(|&v| {
            let w: f64 = con
                .coeffs
                .iter()
                .filter(|&&(cv, _)| cv == v)
                .map(|&(_, a)| a)
                .sum();
            (v, w)
        })
        .filter(|&(_, w)| w > 0.0)
        .collect();
    members = items.iter().map(|&(v, _)| v).collect();
    // Ratios of positive finite values are never NaN, so this stable sort is
    // a total order and commutes with dropping the fixed variables later.
    items.sort_by(|a, b| {
        (obj[b.0] / b.1)
            .partial_cmp(&(obj[a.0] / a.1))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Knapsack {
        row,
        items,
        members,
    }
}

impl Knapsack {
    /// Fractional-knapsack bound of the row. Free positive-objective
    /// variables *not* in the row contribute fully, summed in the index
    /// order of `free_positive`.
    fn bound(
        &self,
        con: &Constraint,
        fixed: &[Option<bool>],
        obj: &[f64],
        free_positive: &[VarId],
    ) -> f64 {
        let used: f64 = con
            .coeffs
            .iter()
            .filter(|&&(v, _)| fixed[v] == Some(true))
            .map(|&(_, a)| a)
            .sum();
        let capacity = con.rhs - used;
        if capacity < -1e-9 {
            return f64::NEG_INFINITY;
        }
        // With every item fixed this bound equals the unconstrained one,
        // which the caller checks first.
        if self.items.iter().all(|&(v, _)| fixed[v].is_some()) {
            return f64::INFINITY;
        }
        let mut bound = free_positive
            .iter()
            .filter(|v| self.members.binary_search(v).is_err())
            .fold(0.0, |outside, &v| outside + obj[v]);
        let mut remaining = capacity.max(0.0);
        for &(v, weight) in &self.items {
            if fixed[v].is_some() {
                continue;
            }
            let value = obj[v];
            if weight <= remaining {
                bound += value;
                remaining -= weight;
            } else {
                bound += value * (remaining / weight);
                break;
            }
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(model: &Ilp) -> (Vec<bool>, f64) {
        let n = model.num_vars();
        let mut best = (vec![false; n], f64::NEG_INFINITY);
        for mask in 0u64..(1 << n) {
            let values: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            if model.is_feasible(&values) {
                let obj = model.objective_value(&values);
                if obj > best.1 {
                    best = (values, obj);
                }
            }
        }
        best
    }

    #[test]
    fn solves_a_knapsack() {
        let mut m = Ilp::new(4);
        let values = [10.0, 6.0, 4.0, 7.0];
        let weights = [5.0, 4.0, 3.0, 4.0];
        for (i, v) in values.iter().enumerate() {
            m.set_objective(i, *v).unwrap();
        }
        let coeffs: Vec<(usize, f64)> = weights.iter().enumerate().map(|(i, w)| (i, *w)).collect();
        m.add_le(&coeffs, 9.0).unwrap();
        let sol = solve(&m, SolveOptions::default()).unwrap();
        assert!(sol.optimal);
        assert_eq!(sol.objective, brute_force(&m).1);
        assert_eq!(sol.objective, 17.0); // items 0 and 3
    }

    #[test]
    fn respects_implications() {
        // Value on x0 but x0 requires x1 whose weight blows the budget.
        let mut m = Ilp::new(2);
        m.set_objective(0, 10.0).unwrap();
        m.add_implication(0, 1).unwrap();
        m.add_le(&[(0, 1.0), (1, 5.0)], 4.0).unwrap();
        let sol = solve(&m, SolveOptions::default()).unwrap();
        assert_eq!(sol.objective, 0.0);
        assert_eq!(sol.values, vec![false, false]);
    }

    #[test]
    fn respects_conflicts() {
        let mut m = Ilp::new(2);
        m.set_objective(0, 5.0).unwrap();
        m.set_objective(1, 4.0).unwrap();
        m.add_conflict(0, 1).unwrap();
        let sol = solve(&m, SolveOptions::default()).unwrap();
        assert_eq!(sol.objective, 5.0);
        assert_eq!(sol.values, vec![true, false]);
    }

    #[test]
    fn ge_constraints_force_selection() {
        let mut m = Ilp::new(3);
        m.set_objective(0, -2.0).unwrap();
        m.set_objective(1, -1.0).unwrap();
        m.set_objective(2, -4.0).unwrap();
        // Pick at least two (maximization of negative costs = min cost).
        m.add_ge(&[(0, 1.0), (1, 1.0), (2, 1.0)], 2.0).unwrap();
        let sol = solve(&m, SolveOptions::default()).unwrap();
        assert_eq!(sol.objective, -3.0);
        assert_eq!(sol.values, vec![true, true, false]);
    }

    #[test]
    fn empty_model_is_trivially_optimal() {
        let m = Ilp::new(0);
        let sol = solve(&m, SolveOptions::default()).unwrap();
        assert!(sol.optimal);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn node_budget_marks_non_optimal_but_returns_incumbent() {
        let mut m = Ilp::new(12);
        for i in 0..12 {
            m.set_objective(i, 1.0 + (i as f64) * 0.1).unwrap();
            m.add_le(&[(i, 1.0)], 1.0).unwrap();
        }
        let sol = solve(&m, SolveOptions { max_nodes: 3 }).unwrap();
        assert!(!sol.optimal);
        assert!(sol.objective >= 0.0);
    }

    #[test]
    fn matches_brute_force_on_structured_instances() {
        // Mimics the compression model: R variables with value, L variables
        // with token cost, implications R→L, one budget, symmetric
        // conflicts.
        let mut m = Ilp::new(6); // R0 R1 R2 L0 L1 L2
        m.set_objective(0, 9.0).unwrap();
        m.set_objective(1, 7.0).unwrap();
        m.set_objective(2, 5.0).unwrap();
        m.add_implication(0, 3).unwrap();
        m.add_implication(1, 4).unwrap();
        m.add_implication(2, 5).unwrap();
        m.add_conflict(0, 1).unwrap();
        // Budget over both R and L tokens.
        m.add_le(
            &[(0, 2.0), (1, 2.0), (2, 2.0), (3, 3.0), (4, 3.0), (5, 3.0)],
            10.0,
        )
        .unwrap();
        let sol = solve(&m, SolveOptions::default()).unwrap();
        let (_, expect) = brute_force(&m);
        assert_eq!(sol.objective, expect);
        assert!(m.is_feasible(&sol.values));
    }
}
