//! ILP model construction.

use lt_common::{LtError, Result};

/// Index of a binary decision variable.
pub type VarId = usize;

/// A linear `≤` constraint: `Σ coeffs[i].1 · x[coeffs[i].0] ≤ rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse coefficients as `(variable, coefficient)` pairs.
    pub coeffs: Vec<(VarId, f64)>,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// Smallest achievable left-hand side over free variables, given that
    /// each fixed variable contributes its assigned value.
    pub fn min_activity(&self, fixed: &[Option<bool>]) -> f64 {
        self.coeffs
            .iter()
            .map(|&(v, a)| match fixed[v] {
                Some(true) => a,
                Some(false) => 0.0,
                None => a.min(0.0),
            })
            .sum()
    }
}

/// A 0/1 maximization problem.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ilp {
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl Ilp {
    /// A model with `num_vars` binary variables, all with objective 0.
    pub fn new(num_vars: usize) -> Self {
        Ilp {
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Sets the objective coefficient of one variable.
    pub fn set_objective(&mut self, var: VarId, coeff: f64) -> Result<()> {
        self.check_var(var)?;
        if !coeff.is_finite() {
            return Err(LtError::Solver(format!("non-finite objective {coeff}")));
        }
        self.objective[var] = coeff;
        Ok(())
    }

    /// Objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds `Σ coeff·x ≤ rhs`.
    pub fn add_le(&mut self, coeffs: &[(VarId, f64)], rhs: f64) -> Result<()> {
        for &(v, c) in coeffs {
            self.check_var(v)?;
            if !c.is_finite() {
                return Err(LtError::Solver(format!("non-finite coefficient {c}")));
            }
        }
        if !rhs.is_finite() {
            return Err(LtError::Solver(format!("non-finite rhs {rhs}")));
        }
        self.constraints.push(Constraint {
            coeffs: coeffs.to_vec(),
            rhs,
        });
        Ok(())
    }

    /// Adds `Σ coeff·x ≥ rhs` (stored as the negated `≤` form).
    pub fn add_ge(&mut self, coeffs: &[(VarId, f64)], rhs: f64) -> Result<()> {
        let negated: Vec<(VarId, f64)> = coeffs.iter().map(|&(v, c)| (v, -c)).collect();
        self.add_le(&negated, -rhs)
    }

    /// Adds the implication `x_a = 1 ⇒ x_b = 1` (i.e. `x_a ≤ x_b`).
    pub fn add_implication(&mut self, a: VarId, b: VarId) -> Result<()> {
        self.add_le(&[(a, 1.0), (b, -1.0)], 0.0)
    }

    /// Adds the conflict `x_a + x_b ≤ 1`.
    pub fn add_conflict(&mut self, a: VarId, b: VarId) -> Result<()> {
        self.add_le(&[(a, 1.0), (b, 1.0)], 1.0)
    }

    /// Evaluates the objective for a full assignment.
    pub fn objective_value(&self, values: &[bool]) -> f64 {
        values
            .iter()
            .zip(&self.objective)
            .filter_map(|(&x, &c)| if x { Some(c) } else { None })
            .sum()
    }

    /// Checks whether a full assignment satisfies every constraint.
    pub fn is_feasible(&self, values: &[bool]) -> bool {
        self.constraints.iter().all(|con| {
            let lhs: f64 = con
                .coeffs
                .iter()
                .map(|&(v, a)| if values[v] { a } else { 0.0 })
                .sum();
            lhs <= con.rhs + 1e-9
        })
    }

    fn check_var(&self, var: VarId) -> Result<()> {
        if var < self.objective.len() {
            Ok(())
        } else {
            Err(LtError::Solver(format!(
                "variable {var} out of range (model has {})",
                self.objective.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_evaluate() {
        let mut m = Ilp::new(3);
        m.set_objective(0, 5.0).unwrap();
        m.set_objective(2, 3.0).unwrap();
        m.add_le(&[(0, 2.0), (1, 1.0), (2, 2.0)], 3.0).unwrap();
        assert_eq!(m.objective_value(&[true, false, true]), 8.0);
        assert!(!m.is_feasible(&[true, false, true])); // 4 > 3
        assert!(m.is_feasible(&[true, true, false])); // 3 ≤ 3
    }

    #[test]
    fn ge_is_negated_le() {
        let mut m = Ilp::new(2);
        m.add_ge(&[(0, 1.0), (1, 1.0)], 1.0).unwrap();
        assert!(!m.is_feasible(&[false, false]));
        assert!(m.is_feasible(&[true, false]));
    }

    #[test]
    fn implication_and_conflict_shapes() {
        let mut m = Ilp::new(2);
        m.add_implication(0, 1).unwrap(); // x0 ≤ x1
        assert!(!m.is_feasible(&[true, false]));
        assert!(m.is_feasible(&[true, true]));
        let mut m = Ilp::new(2);
        m.add_conflict(0, 1).unwrap();
        assert!(!m.is_feasible(&[true, true]));
        assert!(m.is_feasible(&[true, false]));
    }

    #[test]
    fn out_of_range_vars_are_errors() {
        let mut m = Ilp::new(1);
        assert!(m.set_objective(1, 1.0).is_err());
        assert!(m.add_le(&[(1, 1.0)], 0.0).is_err());
        assert!(m.add_le(&[(0, f64::NAN)], 0.0).is_err());
    }

    #[test]
    fn non_finite_objectives_are_errors() {
        let mut m = Ilp::new(1);
        for coeff in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(m.set_objective(0, coeff).is_err(), "{coeff} accepted");
        }
        assert_eq!(m.objective(), &[0.0]);
        m.set_objective(0, -2.5).unwrap();
        assert_eq!(m.objective(), &[-2.5]);
    }

    #[test]
    fn min_activity_accounts_for_fixings() {
        let c = Constraint {
            coeffs: vec![(0, 2.0), (1, -1.0), (2, 3.0)],
            rhs: 0.0,
        };
        // Free: min activity takes negative coefficients at 1.
        assert_eq!(c.min_activity(&[None, None, None]), -1.0);
        assert_eq!(c.min_activity(&[Some(true), None, None]), 1.0);
        assert_eq!(c.min_activity(&[Some(true), Some(false), Some(true)]), 5.0);
    }
}
