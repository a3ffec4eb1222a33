//! Exact 0/1 integer linear programming.
//!
//! λ-Tune formulates workload compression as an ILP (paper §3.3): maximize
//! the total value of join snippets conveyed to the LLM subject to a token
//! budget and structural dependency constraints. The paper hands the
//! problem to an off-the-shelf solver; this crate is the from-scratch
//! substitute — a branch-and-bound solver for maximization of a linear
//! objective over binary variables under `≤` constraints.
//!
//! The solver is exact: it returns a provably optimal solution unless the
//! node budget is exhausted (reported via [`Solution::optimal`]). Pruning
//! combines
//!
//! * **constraint propagation** — fixing a variable forces others through
//!   the `≤` constraints (this subsumes the compression model's
//!   `R ≤ L`, `L ≤ ΣR` and symmetry constraints); each node re-checks only
//!   the rows of the variables fixed since its parent,
//! * **fractional-knapsack bounds** — for every constraint with
//!   non-negative coefficients, the LP relaxation restricted to that single
//!   constraint is a valid upper bound and is computable greedily; a
//!   subtree is cut when their minimum is within 1e-9 of the incumbent,
//!   and
//! * **a set-packing dominance bound** — each unit-coefficient row that
//!   admits at most one member at 1 (the compression model's
//!   `R⟨a,b⟩ + R⟨b,a⟩ ≤ 1` pairs) contributes only its best free member. A
//!   subtree is cut only when no leaf in it could beat the incumbent, so
//!   the cut never changes which assignment is returned.

pub mod model;
pub mod solver;

pub use model::{Constraint, Ilp, VarId};
pub use solver::{solve, Solution, SolveOptions};
