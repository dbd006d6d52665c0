//! The LP/ILP modeling API and branch & bound.

use std::error::Error;
use std::fmt;

use crate::rational::Rat;
use crate::simplex::{self, Standard};

/// A decision variable handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

/// Comparison operator of a linear constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `≤`
    Le,
    /// `=`
    Eq,
    /// `≥`
    Ge,
}

/// Errors from the solvers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IlpError {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above (for IPET: a loop without a
    /// bound constraint).
    Unbounded,
    /// The simplex iteration safety limit was hit.
    IterationLimit,
    /// Branch & bound explored too many nodes.
    NodeLimit,
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::Infeasible => f.write_str("problem is infeasible"),
            IlpError::Unbounded => f.write_str("objective is unbounded"),
            IlpError::IterationLimit => f.write_str("simplex iteration limit exceeded"),
            IlpError::NodeLimit => f.write_str("branch-and-bound node limit exceeded"),
        }
    }
}

impl Error for IlpError {}

#[derive(Clone, Debug)]
struct Constraint {
    terms: Vec<(VarId, i64)>,
    op: CmpOp,
    rhs: i64,
}

/// The solution of an LP relaxation.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective: Rat,
    /// Value of each variable, indexed by [`VarId`].
    pub values: Vec<Rat>,
}

/// The solution of an integer program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IlpSolution {
    /// Optimal objective value.
    pub objective: i64,
    /// Value of each variable, indexed by [`VarId`].
    pub values: Vec<i64>,
}

/// A linear program: non-negative variables, linear constraints, and a
/// linear objective to maximize. See the crate documentation for an
/// example.
#[derive(Clone, Debug, Default)]
pub struct LpProblem {
    objective: Vec<i64>,
    constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> LpProblem {
        LpProblem::default()
    }

    /// Adds a variable `x ≥ 0` with the given objective coefficient.
    pub fn add_var(&mut self, objective: i64) -> VarId {
        self.objective.push(objective);
        VarId(self.objective.len() - 1)
    }

    /// Adds the constraint `Σ coeff·var op rhs`.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, i64)>,
        op: CmpOp,
        rhs: i64,
    ) {
        self.constraints.push(Constraint { terms: terms.into_iter().collect(), op, rhs });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Solves the LP relaxation.
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`] / [`IlpError::Unbounded`] as appropriate.
    pub fn maximize(&self) -> Result<LpSolution, IlpError> {
        self.maximize_with(&[])
    }

    /// Solves the relaxation with extra temporary constraints (used by
    /// branch & bound).
    fn maximize_with(&self, extra: &[Constraint]) -> Result<LpSolution, IlpError> {
        let n = self.num_vars();
        let all: Vec<&Constraint> = self.constraints.iter().chain(extra.iter()).collect();
        let rows = all.len();

        // Count slack/artificial columns.
        let mut num_slack = 0;
        let mut num_art = 0;
        for c in &all {
            match (c.op, c.rhs >= 0) {
                (CmpOp::Le, true) => num_slack += 1,
                (CmpOp::Le, false) => {
                    // −terms ≥ −rhs: surplus + artificial.
                    num_slack += 1;
                    num_art += 1;
                }
                (CmpOp::Ge, true) => {
                    num_slack += 1;
                    num_art += 1;
                }
                (CmpOp::Ge, false) => num_slack += 1, // becomes ≤ with b ≥ 0
                (CmpOp::Eq, _) => num_art += 1,
            }
        }
        let cols = n + num_slack + num_art;
        let mut a = vec![vec![Rat::ZERO; cols]; rows];
        let mut b = vec![Rat::ZERO; rows];
        let mut c_obj = vec![Rat::ZERO; cols];
        for (j, &cj) in self.objective.iter().enumerate() {
            c_obj[j] = Rat::int(cj as i128);
        }
        let mut basis = vec![usize::MAX; rows];
        let mut artificials = Vec::new();
        let mut next_slack = n;
        let mut next_art = n + num_slack;

        for (r, cons) in all.iter().enumerate() {
            // Normalize to b ≥ 0.
            let flip = cons.rhs < 0;
            let sign: i128 = if flip { -1 } else { 1 };
            for &(v, coeff) in &cons.terms {
                a[r][v.0] = a[r][v.0] + Rat::int(sign * coeff as i128);
            }
            b[r] = Rat::int(sign * cons.rhs as i128);
            let effective_op = match (cons.op, flip) {
                (CmpOp::Le, false) | (CmpOp::Ge, true) => CmpOp::Le,
                (CmpOp::Ge, false) | (CmpOp::Le, true) => CmpOp::Ge,
                (CmpOp::Eq, _) => CmpOp::Eq,
            };
            match effective_op {
                CmpOp::Le => {
                    a[r][next_slack] = Rat::ONE;
                    basis[r] = next_slack;
                    next_slack += 1;
                }
                CmpOp::Ge => {
                    a[r][next_slack] = -Rat::ONE;
                    next_slack += 1;
                    a[r][next_art] = Rat::ONE;
                    basis[r] = next_art;
                    artificials.push(next_art);
                    next_art += 1;
                }
                CmpOp::Eq => {
                    a[r][next_art] = Rat::ONE;
                    basis[r] = next_art;
                    artificials.push(next_art);
                    next_art += 1;
                }
            }
        }

        let res = simplex::solve(Standard { a, b, c: c_obj, artificials, basis })?;
        Ok(LpSolution { objective: res.objective, values: res.values[..n].to_vec() })
    }

    /// Solves the integer program by branch & bound on the exact LP
    /// relaxation.
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`] when no integer point exists,
    /// [`IlpError::Unbounded`] when the relaxation is unbounded,
    /// [`IlpError::NodeLimit`] after 100 000 nodes.
    pub fn maximize_integer(&self) -> Result<IlpSolution, IlpError> {
        let mut best: Option<IlpSolution> = None;
        let mut stack: Vec<Vec<Constraint>> = vec![Vec::new()];
        let mut nodes = 0usize;

        while let Some(extra) = stack.pop() {
            nodes += 1;
            if nodes > 100_000 {
                return Err(IlpError::NodeLimit);
            }
            let sol = match self.maximize_with(&extra) {
                Ok(s) => s,
                Err(IlpError::Infeasible) => continue,
                Err(e) => return Err(e),
            };
            // Prune by bound.
            if let Some(b) = &best {
                if sol.objective <= Rat::int(b.objective as i128) {
                    continue;
                }
            }
            // Find a fractional variable.
            match sol.values.iter().position(|v| !v.is_integer()) {
                None => {
                    let values: Vec<i64> = sol.values.iter().map(|v| v.numer() as i64).collect();
                    let objective = sol.objective.numer() as i64;
                    if best.as_ref().is_none_or(|b| objective > b.objective) {
                        best = Some(IlpSolution { objective, values });
                    }
                }
                Some(j) => {
                    let v = sol.values[j];
                    let mut lo = extra.clone();
                    lo.push(Constraint {
                        terms: vec![(VarId(j), 1)],
                        op: CmpOp::Le,
                        rhs: v.floor() as i64,
                    });
                    let mut hi = extra;
                    hi.push(Constraint {
                        terms: vec![(VarId(j), 1)],
                        op: CmpOp::Ge,
                        rhs: v.ceil() as i64,
                    });
                    stack.push(lo);
                    stack.push(hi);
                }
            }
        }
        best.ok_or(IlpError::Infeasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_lp() {
        // maximize 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18.
        let mut lp = LpProblem::new();
        let x = lp.add_var(3);
        let y = lp.add_var(5);
        lp.add_constraint([(x, 1)], CmpOp::Le, 4);
        lp.add_constraint([(y, 2)], CmpOp::Le, 12);
        lp.add_constraint([(x, 3), (y, 2)], CmpOp::Le, 18);
        let sol = lp.maximize().unwrap();
        assert_eq!(sol.objective, Rat::int(36)); // x=2, y=6
        assert_eq!(sol.values[x.0], Rat::int(2));
        assert_eq!(sol.values[y.0], Rat::int(6));
    }

    #[test]
    fn equality_and_ge_constraints() {
        // maximize x + y s.t. x + y = 5, x ≥ 2 → objective 5.
        let mut lp = LpProblem::new();
        let x = lp.add_var(1);
        let y = lp.add_var(1);
        lp.add_constraint([(x, 1), (y, 1)], CmpOp::Eq, 5);
        lp.add_constraint([(x, 1)], CmpOp::Ge, 2);
        let sol = lp.maximize().unwrap();
        assert_eq!(sol.objective, Rat::int(5));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(1);
        lp.add_constraint([(x, 1)], CmpOp::Ge, 5);
        lp.add_constraint([(x, 1)], CmpOp::Le, 3);
        assert_eq!(lp.maximize().unwrap_err(), IlpError::Infeasible);
        assert_eq!(lp.maximize_integer().unwrap_err(), IlpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(1);
        lp.add_constraint([(x, -1)], CmpOp::Le, 0); // x ≥ 0, no upper bound
        assert_eq!(lp.maximize().unwrap_err(), IlpError::Unbounded);
    }

    #[test]
    fn branch_and_bound_beats_fractional_relaxation() {
        // maximize x + y s.t. 2x + 2y ≤ 5 → LP gives 2.5, ILP gives 2.
        let mut lp = LpProblem::new();
        let x = lp.add_var(1);
        let y = lp.add_var(1);
        lp.add_constraint([(x, 2), (y, 2)], CmpOp::Le, 5);
        let relax = lp.maximize().unwrap();
        assert_eq!(relax.objective, Rat::new(5, 2));
        let int = lp.maximize_integer().unwrap();
        assert_eq!(int.objective, 2);
    }

    #[test]
    fn knapsack_instance() {
        // maximize 10a + 6b + 4c s.t. a+b+c ≤ 100, 10a+4b+5c ≤ 600,
        // 2a+2b+6c ≤ 300 (classic): optimal LP 733⅓; ILP 732.
        let mut lp = LpProblem::new();
        let a = lp.add_var(10);
        let b = lp.add_var(6);
        let c = lp.add_var(4);
        lp.add_constraint([(a, 1), (b, 1), (c, 1)], CmpOp::Le, 100);
        lp.add_constraint([(a, 10), (b, 4), (c, 5)], CmpOp::Le, 600);
        lp.add_constraint([(a, 2), (b, 2), (c, 6)], CmpOp::Le, 300);
        let relax = lp.maximize().unwrap();
        assert_eq!(relax.objective, Rat::new(2200, 3));
        let int = lp.maximize_integer().unwrap();
        assert_eq!(int.objective, 732);
    }

    #[test]
    fn degenerate_equalities() {
        // x = 0 forced; maximize x + y with y ≤ 3.
        let mut lp = LpProblem::new();
        let x = lp.add_var(1);
        let y = lp.add_var(1);
        lp.add_constraint([(x, 1)], CmpOp::Eq, 0);
        lp.add_constraint([(y, 1)], CmpOp::Le, 3);
        let sol = lp.maximize_integer().unwrap();
        assert_eq!(sol.objective, 3);
        assert_eq!(sol.values, vec![0, 3]);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x − y ≤ −2 with x,y ≥ 0 and x + y ≤ 10: maximize x → x = 4, y = 6.
        let mut lp = LpProblem::new();
        let x = lp.add_var(1);
        let y = lp.add_var(0);
        lp.add_constraint([(x, 1), (y, -1)], CmpOp::Le, -2);
        lp.add_constraint([(x, 1), (y, 1)], CmpOp::Le, 10);
        let sol = lp.maximize().unwrap();
        assert_eq!(sol.objective, Rat::int(4));
    }

    /// Brute-force check of B&B on small random-ish instances.
    #[test]
    fn bb_matches_brute_force() {
        type Case = (Vec<i64>, Vec<(Vec<i64>, i64)>);
        let cases: Vec<Case> = vec![
            (vec![3, 4], vec![(vec![1, 2], 7), (vec![3, 1], 9)]),
            (vec![5, 1, 2], vec![(vec![2, 1, 1], 8), (vec![1, 3, 1], 7)]),
            (vec![1, 1, 1], vec![(vec![1, 1, 1], 4)]),
            (vec![7, 2], vec![(vec![5, 1], 11), (vec![1, 1], 6)]),
        ];
        for (obj, cons) in cases {
            let mut lp = LpProblem::new();
            let vars: Vec<VarId> = obj.iter().map(|&c| lp.add_var(c)).collect();
            for (coeffs, rhs) in &cons {
                let terms: Vec<(VarId, i64)> =
                    vars.iter().zip(coeffs.iter()).map(|(&v, &c)| (v, c)).collect();
                lp.add_constraint(terms, CmpOp::Le, *rhs);
            }
            let got = lp.maximize_integer().unwrap().objective;
            // Brute force over a box.
            let mut best = i64::MIN;
            let n = obj.len();
            let mut x = vec![0i64; n];
            'outer: loop {
                let feasible = cons.iter().all(|(coeffs, rhs)| {
                    coeffs.iter().zip(x.iter()).map(|(c, v)| c * v).sum::<i64>() <= *rhs
                });
                if feasible {
                    let val = obj.iter().zip(x.iter()).map(|(c, v)| c * v).sum::<i64>();
                    best = best.max(val);
                }
                // Next point in the box [0, 20]^n.
                for digit in x.iter_mut() {
                    *digit += 1;
                    if *digit <= 20 {
                        continue 'outer;
                    }
                    *digit = 0;
                }
                break;
            }
            assert_eq!(got, best, "obj {obj:?} cons {cons:?}");
        }
    }
}
