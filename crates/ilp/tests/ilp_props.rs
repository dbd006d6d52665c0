//! Property-based validation of the exact ILP solver against brute-force
//! enumeration on small random instances.

use proptest::prelude::*;
use stamp_ilp::{CmpOp, IlpError, LpProblem, Rat, VarId};

#[derive(Debug, Clone)]
struct SmallIlp {
    objective: Vec<i64>,
    /// Each constraint: coefficients + rhs, as `Σ c·x ≤ rhs`.
    le_constraints: Vec<(Vec<i64>, i64)>,
}

fn small_ilp() -> impl Strategy<Value = SmallIlp> {
    (2usize..=3)
        .prop_flat_map(|nvars| {
            let objective = prop::collection::vec(0i64..8, nvars);
            let cons =
                prop::collection::vec((prop::collection::vec(0i64..5, nvars), 1i64..25), 1..=3);
            (objective, cons)
        })
        .prop_map(|(objective, le_constraints)| SmallIlp { objective, le_constraints })
        .prop_filter("bounded", |ilp| {
            // Every variable with positive objective must appear with a
            // positive coefficient somewhere, else unbounded.
            (0..ilp.objective.len())
                .all(|j| ilp.objective[j] == 0 || ilp.le_constraints.iter().any(|(c, _)| c[j] > 0))
        })
}

fn brute_force(ilp: &SmallIlp) -> i64 {
    let n = ilp.objective.len();
    let mut best = i64::MIN;
    let mut x = vec![0i64; n];
    'outer: loop {
        let feasible = ilp
            .le_constraints
            .iter()
            .all(|(c, rhs)| c.iter().zip(&x).map(|(a, b)| a * b).sum::<i64>() <= *rhs);
        if feasible {
            best = best.max(ilp.objective.iter().zip(&x).map(|(a, b)| a * b).sum());
        }
        for digit in x.iter_mut() {
            *digit += 1;
            if *digit <= 25 {
                continue 'outer;
            }
            *digit = 0;
        }
        break;
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ilp_matches_brute_force(ilp in small_ilp()) {
        let mut lp = LpProblem::new();
        let vars: Vec<VarId> = ilp.objective.iter().map(|&c| lp.add_var(c)).collect();
        for (coeffs, rhs) in &ilp.le_constraints {
            let terms: Vec<(VarId, i64)> =
                vars.iter().zip(coeffs).map(|(&v, &c)| (v, c)).collect();
            lp.add_constraint(terms, CmpOp::Le, *rhs);
        }
        match lp.maximize_integer() {
            Ok(sol) => {
                let expect = brute_force(&ilp);
                prop_assert_eq!(sol.objective, expect, "{:?}", ilp);
                // The witness must be feasible and achieve the objective.
                let val: i64 = ilp
                    .objective
                    .iter()
                    .zip(&sol.values)
                    .map(|(c, v)| c * v)
                    .sum();
                prop_assert_eq!(val, sol.objective);
                for (coeffs, rhs) in &ilp.le_constraints {
                    let lhs: i64 =
                        coeffs.iter().zip(&sol.values).map(|(c, v)| c * v).sum();
                    prop_assert!(lhs <= *rhs);
                }
            }
            Err(IlpError::Unbounded) => {
                // Allowed only if brute force hit the box edge going up —
                // our generator filters these, so treat as failure.
                prop_assert!(false, "unexpected unbounded: {:?}", ilp);
            }
            Err(e) => prop_assert!(false, "solver error {e}: {ilp:?}"),
        }
    }

    #[test]
    fn lp_relaxation_dominates_ilp(ilp in small_ilp()) {
        let mut lp = LpProblem::new();
        let vars: Vec<VarId> = ilp.objective.iter().map(|&c| lp.add_var(c)).collect();
        for (coeffs, rhs) in &ilp.le_constraints {
            let terms: Vec<(VarId, i64)> =
                vars.iter().zip(coeffs).map(|(&v, &c)| (v, c)).collect();
            lp.add_constraint(terms, CmpOp::Le, *rhs);
        }
        if let (Ok(relax), Ok(int)) = (lp.maximize(), lp.maximize_integer()) {
            prop_assert!(
                relax.objective >= Rat::int(int.objective as i128),
                "relaxation {} below integer optimum {}",
                relax.objective,
                int.objective
            );
        }
    }
}
