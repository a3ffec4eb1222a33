//! The solver returns exactly the assignment of a plain branch and bound,
//! and the brute-force optimum, on random compression-shaped instances.
//! Near-ties within the 1e-9 prune tolerance are decided by the order of
//! the search, so equal objectives are not enough: the test compares
//! `values`.

use lt_common::{seeded_rng, Rng};
use lt_ilp::{solve, Constraint, Ilp, SolveOptions, VarId};

const CASES: usize = 96;

/// The plain search: propagation sweeps every row to a fixpoint, and the
/// only prune is the minimum over single-row fractional-knapsack bounds.
mod reference {
    use super::*;

    pub fn solve(model: &Ilp) -> Vec<bool> {
        let n = model.num_vars();
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
        let mut search = Search {
            model,
            order,
            best_values: vec![false; n],
            best_objective: f64::NEG_INFINITY,
        };
        let all_false = vec![false; n];
        if model.is_feasible(&all_false) {
            search.best_objective = model.objective_value(&all_false);
        }
        search.branch(&mut vec![None; n], 0);
        search.best_values
    }

    struct Search<'a> {
        model: &'a Ilp,
        order: Vec<VarId>,
        best_values: Vec<bool>,
        best_objective: f64,
    }

    impl Search<'_> {
        fn branch(&mut self, fixed: &mut Vec<Option<bool>>, depth: usize) {
            for con in self.model.constraints() {
                if con.min_activity(fixed) > con.rhs + 1e-9 {
                    return;
                }
            }
            let mut trail: Vec<VarId> = Vec::new();
            if self.propagate(fixed, &mut trail)
                && self.upper_bound(fixed) > self.best_objective + 1e-9
            {
                match self.order[depth..].iter().position(|&v| fixed[v].is_none()) {
                    None => {
                        let values: Vec<bool> = fixed.iter().map(|f| f.unwrap_or(false)).collect();
                        let obj = self.model.objective_value(&values);
                        if obj > self.best_objective {
                            self.best_objective = obj;
                            self.best_values = values;
                        }
                    }
                    Some(p) => {
                        let v = self.order[depth + p];
                        for value in [true, false] {
                            fixed[v] = Some(value);
                            self.branch(fixed, depth + p + 1);
                        }
                        fixed[v] = None;
                    }
                }
            }
            for v in trail {
                fixed[v] = None;
            }
        }

        fn propagate(&self, fixed: &mut [Option<bool>], trail: &mut Vec<VarId>) -> bool {
            loop {
                let mut changed = false;
                for con in self.model.constraints() {
                    let min_act = con.min_activity(fixed);
                    if min_act > con.rhs + 1e-9 {
                        return false;
                    }
                    for &(v, a) in &con.coeffs {
                        if fixed[v].is_some() {
                            continue;
                        }
                        if a > 0.0 && min_act - a.min(0.0) + a > con.rhs + 1e-9 {
                            fixed[v] = Some(false);
                            trail.push(v);
                            changed = true;
                        } else if a < 0.0 && min_act - a > con.rhs + 1e-9 {
                            fixed[v] = Some(true);
                            trail.push(v);
                            changed = true;
                        }
                    }
                }
                if !changed {
                    return true;
                }
            }
        }

        fn upper_bound(&self, fixed: &[Option<bool>]) -> f64 {
            let obj = self.model.objective();
            let fixed_value: f64 = (0..obj.len())
                .filter(|&v| fixed[v] == Some(true))
                .map(|v| obj[v])
                .sum();
            let free_positive: Vec<VarId> = (0..obj.len())
                .filter(|&v| fixed[v].is_none() && obj[v] > 0.0)
                .collect();
            let unconstrained: f64 = free_positive.iter().map(|&v| obj[v]).sum();
            let mut best = fixed_value + unconstrained;
            for con in self.model.constraints() {
                if let Some(b) = knapsack_bound(con, fixed, obj, &free_positive) {
                    best = best.min(fixed_value + b);
                }
            }
            best
        }
    }

    fn knapsack_bound(
        con: &Constraint,
        fixed: &[Option<bool>],
        obj: &[f64],
        free_positive: &[VarId],
    ) -> Option<f64> {
        if con.coeffs.iter().any(|&(_, a)| a < 0.0) {
            return None;
        }
        let used: f64 = con
            .coeffs
            .iter()
            .filter(|&&(v, _)| fixed[v] == Some(true))
            .map(|&(_, a)| a)
            .sum();
        let capacity = con.rhs - used;
        if capacity < -1e-9 {
            return Some(f64::NEG_INFINITY);
        }
        let mut items: Vec<(f64, f64)> = Vec::new();
        let mut outside = 0.0;
        for &v in free_positive {
            let w: f64 = con
                .coeffs
                .iter()
                .filter(|&&(cv, _)| cv == v)
                .map(|&(_, a)| a)
                .sum();
            if w <= 0.0 {
                outside += obj[v];
            } else {
                items.push((obj[v], w));
            }
        }
        items.sort_by(|a, b| {
            (b.0 / b.1)
                .partial_cmp(&(a.0 / a.1))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut remaining = capacity.max(0.0);
        let mut bound = outside;
        for (value, weight) in items {
            if weight <= remaining {
                bound += value;
                remaining -= weight;
            } else {
                bound += value * (remaining / weight);
                break;
            }
        }
        Some(bound)
    }
}

/// A compression model as `lambda_tune::Compressor` builds it: per
/// snippet, `R⟨a,b⟩` and `R⟨b,a⟩` at `2·i` and `2·i + 1` with the
/// canonical-direction bonus on the first; one `L` per column; `R ≤ L`,
/// `R⟨a,b⟩ + R⟨b,a⟩ ≤ 1`, `L ≤ Σ R`; and one token budget.
struct Compression {
    model: Ilp,
    /// `(lhs, rhs)` columns of each snippet.
    snippets: Vec<(usize, usize)>,
    columns: usize,
}

fn compression_instance(rng: &mut Rng) -> Compression {
    let columns = rng.gen_range(3..=7usize);
    let k = rng.gen_range(1..=10usize).min(columns * (columns - 1) / 2);
    let mut snippets: Vec<(usize, usize)> = Vec::new();
    while snippets.len() < k {
        let a = rng.gen_range(0..columns);
        let b = rng.gen_range(0..columns);
        if a < b && !snippets.contains(&(a, b)) {
            snippets.push((a, b));
        }
    }
    // Few distinct values, so that ties are common, and near-ties within
    // the 1e-9 tolerance: a value below 1 gets a direction bonus below 1e-9
    // (JOB's `link_type` line has 0.11), and two values 3e-10 apart.
    let mut palette: Vec<f64> = (0..3)
        .map(|_| match rng.gen_range(0..2usize) {
            0 => rng.gen_range(0.05..1.0),
            _ => rng.gen_range(1.0..20.0),
        })
        .collect();
    palette.push(palette[0] + 3e-10);
    let values: Vec<f64> = snippets
        .iter()
        .map(|_| palette[rng.gen_range(0..palette.len())])
        .collect();
    let cost: Vec<f64> = (0..columns)
        .map(|_| rng.gen_range(2..=9usize) as f64)
        .collect();
    let n_r = snippets.len() * 2;
    let mut model = Ilp::new(n_r + columns);
    let mut budget_terms: Vec<(usize, f64)> = Vec::new();
    let mut owners: Vec<Vec<(usize, f64)>> = vec![Vec::new(); columns];
    for (i, (&(a, b), &value)) in snippets.iter().zip(&values).enumerate() {
        for (d, (lhs, rhs)) in [(a, b), (b, a)].into_iter().enumerate() {
            let r = 2 * i + d;
            let bonus = if d == 0 { value * 1e-9 + 1e-12 } else { 0.0 };
            model.set_objective(r, value + bonus).unwrap();
            model.add_implication(r, n_r + lhs).unwrap();
            budget_terms.push((r, cost[rhs]));
            owners[lhs].push((r, -1.0));
        }
        model.add_conflict(2 * i, 2 * i + 1).unwrap();
    }
    for (c, mut terms) in owners.into_iter().enumerate() {
        if !terms.is_empty() {
            terms.push((n_r + c, 1.0));
            model.add_le(&terms, 0.0).unwrap();
        }
    }
    for (c, &h) in cost.iter().enumerate() {
        budget_terms.push((n_r + c, h));
    }
    let full: f64 = budget_terms.iter().map(|&(_, h)| h).sum();
    model
        .add_le(&budget_terms, rng.gen_range(0.0..full).round())
        .unwrap();
    Compression {
        model,
        snippets,
        columns,
    }
}

/// Brute force over the 3^k orientations of k snippets (none, forward,
/// reverse); the line variables follow from the selected lines.
fn brute_force(inst: &Compression) -> f64 {
    let n_r = inst.snippets.len() * 2;
    let mut values = vec![false; n_r + inst.columns];
    let mut best = f64::NEG_INFINITY;
    for code in 0..3usize.pow(inst.snippets.len() as u32) {
        values.iter_mut().for_each(|x| *x = false);
        let mut rest = code;
        for (i, &(a, b)) in inst.snippets.iter().enumerate() {
            match rest % 3 {
                1 => (values[2 * i], values[n_r + a]) = (true, true),
                2 => (values[2 * i + 1], values[n_r + b]) = (true, true),
                _ => {}
            }
            rest /= 3;
        }
        if inst.model.is_feasible(&values) {
            best = best.max(inst.model.objective_value(&values));
        }
    }
    best
}

#[test]
fn compression_answers_match_the_plain_search_and_brute_force() {
    let mut rng = seeded_rng(0x14);
    for case in 0..CASES {
        let inst = compression_instance(&mut rng);
        let solution = solve(&inst.model, SolveOptions::default()).unwrap();
        assert!(solution.optimal, "case {case}");
        assert_eq!(
            solution.values,
            reference::solve(&inst.model),
            "case {case}: assignment differs from the plain search"
        );
        // The 1e-9 prune tolerance may give up at most 1e-9 of objective.
        let expected = brute_force(&inst);
        assert!(
            (solution.objective - expected).abs() <= 2e-9,
            "case {case}: solver {} vs brute force {expected}",
            solution.objective
        );
    }
}
