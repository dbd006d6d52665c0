//! # stamp-ilp — an exact integer linear programming solver
//!
//! The paper's path analysis combines abstract interpretation results
//! "with ILP (Integer Linear Programming) techniques to safely predict
//! the worst-case execution time and a corresponding worst-case execution
//! path". Commercial tools delegate to an external LP solver; this crate
//! implements the substrate from scratch:
//!
//! * exact rational arithmetic ([`Rat`]) — no floating-point drift in a
//!   verification tool;
//! * a two-phase primal simplex with Bland's rule ([`LpProblem::maximize`]);
//! * branch & bound for integrality ([`LpProblem::maximize_integer`]).
//!
//! IPET instances are network-flow-like and almost always have integral
//! LP relaxations, so branch & bound rarely branches — but it is there,
//! exact, and tested against brute force.
//!
//! # Example
//!
//! ```
//! use stamp_ilp::{CmpOp, LpProblem};
//!
//! # fn main() -> Result<(), stamp_ilp::IlpError> {
//! // maximize 3x + 2y  s.t.  x + y ≤ 4, x ≤ 2, integers ≥ 0
//! let mut lp = LpProblem::new();
//! let x = lp.add_var(3);
//! let y = lp.add_var(2);
//! lp.add_constraint([(x, 1), (y, 1)], CmpOp::Le, 4);
//! lp.add_constraint([(x, 1)], CmpOp::Le, 2);
//! let sol = lp.maximize_integer()?;
//! assert_eq!(sol.objective, 10); // x = 2, y = 2
//! assert_eq!(sol.values, vec![2, 2]);
//! # Ok(())
//! # }
//! ```

mod model;
mod rational;
mod simplex;

pub use model::{CmpOp, IlpError, IlpSolution, LpProblem, LpSolution, VarId};
pub use rational::Rat;
