//! Differential properties of the indexed worklist solver.
//!
//! The production solver (`solve`: RPO bucket queue, copy-on-write edge
//! propagation, no re-join round-trip) must be observationally identical
//! to the naive reference solver kept here (`solve_reference`) — same
//! per-node entry/exit states, same `evaluations` count, same
//! infeasible-edge set — on randomly generated programs from
//! `stamp_suite`, under two transfer functions:
//!
//! * a chaotic finite-lattice transfer with edge-dependent kills, which
//!   stresses worklist ordering and the infeasible-edge bookkeeping;
//! * the real value analysis (`ValueTransfer`), which stresses widening,
//!   branch refinement and the copy-on-write `AState` representation.
//!
//! Under the same two transfers it also checks the contract the value,
//! cache and pipeline analyses record their facts by: the last
//! evaluation of every reached node sees that node's final input.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stamp_ai::{
    solve, Domain, Fixpoint, IEdge, IEdgeId, IEdgeKind, Icfg, NodeId, Transfer, VivuConfig,
};
use stamp_cfg::CfgBuilder;
use stamp_hw::HwConfig;
use stamp_isa::asm::assemble;
use stamp_suite::{generate, GenConfig};
use stamp_value::{DomainKind, ValueTransfer};

/// A fixpoint as plain per-node states plus its bookkeeping: what the
/// reference solver returns, and what a production [`Fixpoint`] is
/// compared as.
struct Solved<S> {
    ins: Vec<Option<S>>,
    outs: Vec<Option<S>>,
    infeasible_edges: Vec<IEdgeId>,
    evaluations: u64,
}

impl<S: Domain> Solved<S> {
    /// Reads a production fixpoint node by node.
    fn of(icfg: &Icfg, fp: &Fixpoint<S>) -> Solved<S> {
        let nodes = || icfg.nodes().iter().map(|nd| nd.id);
        Solved {
            ins: nodes().map(|n| fp.input(n).cloned()).collect(),
            outs: nodes().map(|n| fp.output(n).cloned()).collect(),
            infeasible_edges: fp.infeasible_edges.clone(),
            evaluations: fp.evaluations,
        }
    }

    /// Structural equivalence (mutual `⊑` per node plus identical
    /// bookkeeping) — the oracle of the differential tests.
    fn equivalent(&self, other: &Solved<S>) -> bool {
        let same_state = |a: &Option<S>, b: &Option<S>| match (a, b) {
            (None, None) => true,
            (Some(x), Some(y)) => x.le(y) && y.le(x),
            _ => false,
        };
        self.evaluations == other.evaluations
            && self.infeasible_edges == other.infeasible_edges
            && self.ins.len() == other.ins.len()
            && self.ins.iter().zip(&other.ins).all(|(a, b)| same_state(a, b))
            && self.outs.iter().zip(&other.outs).all(|(a, b)| same_state(a, b))
    }
}

/// The naive reference solver: `BTreeSet`-as-priority-queue worklist and
/// an owned state per propagated edge, exactly as the kernel shipped
/// before the indexed worklist. Kept as the executable specification for
/// the differential property tests.
fn solve_reference<T: Transfer>(
    icfg: &Icfg,
    transfer: &mut T,
    widen_delay: u32,
) -> Solved<T::State> {
    let n = icfg.nodes().len();
    let mut ins: Vec<Option<T::State>> = vec![None; n];
    let mut outs: Vec<Option<T::State>> = vec![None; n];
    let mut join_count: Vec<u32> = vec![0; n];
    let mut evaluations: u64 = 0;
    let widen_at = widening_points(icfg);

    let mut work: BTreeSet<(u32, NodeId)> = BTreeSet::new();
    let entry = icfg.entry();
    ins[entry.index()] = Some(transfer.boundary());
    work.insert((icfg.rpo_index(entry), entry));

    let mut edge_fired = vec![false; icfg.edges().len()];

    while let Some(&(prio, node)) = work.iter().next() {
        work.remove(&(prio, node));
        let input = match &ins[node.index()] {
            Some(s) => s.clone(),
            None => continue,
        };
        evaluations += 1;
        let out = transfer.transfer(icfg, node, &input);
        let out_changed = match &mut outs[node.index()] {
            Some(prev) => prev.join_from(&out),
            slot @ None => {
                *slot = Some(out);
                true
            }
        };
        if !out_changed && evaluations > 1 {
            continue;
        }
        let out_state = outs[node.index()].clone().expect("just set");
        for e in icfg.succs(node) {
            let propagated = match transfer.edge(icfg, &e, &out_state) {
                Some(s) => s.into_owned(),
                None => continue,
            };
            edge_fired[e.id.index()] = true;
            let ti = e.to.index();
            let changed = match &mut ins[ti] {
                Some(prev) => {
                    join_count[ti] += 1;
                    if widen_at[ti] && join_count[ti] > widen_delay {
                        prev.widen_from(&propagated)
                    } else {
                        prev.join_from(&propagated)
                    }
                }
                slot @ None => {
                    *slot = Some(propagated);
                    true
                }
            };
            if changed {
                work.insert((icfg.rpo_index(e.to), e.to));
            }
        }
    }

    let infeasible_edges = icfg
        .edges()
        .iter()
        .filter(|e| !edge_fired[e.id.index()] && outs[e.from.index()].is_some())
        .map(|e| e.id)
        .collect();

    Solved { ins, outs, infeasible_edges, evaluations }
}

/// The widening points of a graph: targets of back edges and of any
/// retreating edge by RPO (the production solver's rule).
fn widening_points(icfg: &Icfg) -> Vec<bool> {
    let mut widen_at = vec![false; icfg.nodes().len()];
    for e in icfg.edges() {
        let retreating = icfg.rpo_index(e.to) <= icfg.rpo_index(e.from);
        if retreating || matches!(e.kind, IEdgeKind::Intra { back_edge_of: Some(_), .. }) {
            widen_at[e.to.index()] = true;
        }
    }
    widen_at
}

/// A small powerset domain over `u64` (finite chains, joins = union).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct Bits(u64);

impl Domain for Bits {
    fn join_from(&mut self, other: &Self) -> bool {
        let before = self.0;
        self.0 |= other.0;
        self.0 != before
    }

    fn le(&self, other: &Self) -> bool {
        self.0 & !other.0 == 0
    }
}

/// A transfer with node-dependent generation and edge-dependent kills:
/// every node ORs in a node-specific bit, and edges whose id hits a
/// seed-selected residue class are declared infeasible. Nothing about it
/// is monotone-friendly beyond what the framework requires, which makes
/// it a good order-sensitivity probe.
struct Chaotic {
    seed: u64,
}

impl Transfer for Chaotic {
    type State = Bits;

    fn boundary(&self) -> Bits {
        Bits(1)
    }

    fn transfer(&mut self, _icfg: &Icfg, node: NodeId, input: &Bits) -> Bits {
        Bits(input.0 | 1 << (node.index() % 63) | self.seed & 0xF0)
    }

    fn edge<'s>(&mut self, _icfg: &Icfg, e: &IEdge, s: &'s Bits) -> Option<Cow<'s, Bits>> {
        if e.id.index() as u64 % 7 == self.seed % 7 {
            return None;
        }
        // Exercise both Cow variants: refine (owned) on back edges,
        // pass-through (borrowed) everywhere else.
        if matches!(e.kind, IEdgeKind::Intra { back_edge_of: Some(_), .. }) {
            Some(Cow::Owned(Bits(s.0 | 1 << 62)))
        } else {
            Some(Cow::Borrowed(s))
        }
    }
}

fn build_icfg(src: &str) -> Option<Icfg> {
    let p = assemble(src).ok()?;
    let cfg = CfgBuilder::new(&p).build().ok()?;
    Icfg::build(&cfg, &VivuConfig::default()).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chaotic_transfer_matches_reference(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = generate(&mut rng, &GenConfig::default());
        let Some(icfg) = build_icfg(&src) else { return Ok(()) };
        for widen_delay in [0u32, 2] {
            let fp = solve(&icfg, &mut Chaotic { seed }, widen_delay);
            let rf = solve_reference(&icfg, &mut Chaotic { seed }, widen_delay);
            prop_assert!(
                Solved::of(&icfg, &fp).equivalent(&rf),
                "solver divergence on seed {seed} (widen_delay {widen_delay}): \
                 {} vs {} evaluations, {:?} vs {:?} infeasible",
                fp.evaluations,
                rf.evaluations,
                fp.infeasible_edges,
                rf.infeasible_edges,
            );
        }
    }

    #[test]
    fn value_analysis_matches_reference(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = generate(&mut rng, &GenConfig::default());
        let Ok(program) = assemble(&src) else { return Ok(()) };
        let Ok(cfg) = CfgBuilder::new(&program).build() else { return Ok(()) };
        let Ok(icfg) = Icfg::build(&cfg, &VivuConfig::default()) else { return Ok(()) };
        let hw = HwConfig::default();
        let thresholds = Arc::new(vec![0, 16, 256, hw.mem.stack_top()]);
        let mut t1 =
            ValueTransfer::new(&program, &hw, &cfg, DomainKind::Strided, Arc::clone(&thresholds));
        let mut t2 =
            ValueTransfer::new(&program, &hw, &cfg, DomainKind::Strided, Arc::clone(&thresholds));
        let fp = solve(&icfg, &mut t1, 2);
        let rf = solve_reference(&icfg, &mut t2, 2);
        prop_assert!(
            Solved::of(&icfg, &fp).equivalent(&rf),
            "value-analysis divergence on seed {seed}: {} vs {} evaluations",
            fp.evaluations,
            rf.evaluations,
        );
    }
}

/// Wraps a transfer and remembers the last input each node was
/// evaluated on (the first one, with `first_only`, to check the check).
struct LastInput<T: Transfer> {
    inner: T,
    last: Vec<Option<T::State>>,
    first_only: bool,
}

impl<T: Transfer> Transfer for LastInput<T> {
    type State = T::State;

    fn boundary(&self) -> T::State {
        self.inner.boundary()
    }

    fn transfer(&mut self, icfg: &Icfg, node: NodeId, input: &T::State) -> T::State {
        if !(self.first_only && self.last[node.index()].is_some()) {
            self.last[node.index()] = Some(input.clone());
        }
        self.inner.transfer(icfg, node, input)
    }

    fn edge<'s>(&mut self, icfg: &Icfg, e: &IEdge, s: &'s T::State) -> Option<Cow<'s, T::State>> {
        self.inner.edge(icfg, e, s)
    }
}

/// The contract transfers that record facts during the fixpoint rely on:
/// the last evaluation of every reached node sees its final input, and
/// unreached nodes are never evaluated. Returns the first node breaking
/// it.
fn last_input_is_final<T: Transfer>(
    icfg: &Icfg,
    inner: T,
    widen_delay: u32,
    first_only: bool,
) -> Option<NodeId> {
    let mut t = LastInput { inner, last: vec![None; icfg.nodes().len()], first_only };
    let fp = solve(icfg, &mut t, widen_delay);
    icfg.nodes().iter().map(|nd| nd.id).find(|&n| match (fp.input(n), &t.last[n.index()]) {
        (None, None) => false,
        (Some(fin), Some(last)) => !(fin.le(last) && last.le(fin)),
        _ => true,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn last_evaluation_sees_the_final_input(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = generate(&mut rng, &GenConfig::default());
        let Ok(program) = assemble(&src) else { return Ok(()) };
        let Ok(cfg) = CfgBuilder::new(&program).build() else { return Ok(()) };
        let Ok(icfg) = Icfg::build(&cfg, &VivuConfig::default()) else { return Ok(()) };
        let hw = HwConfig::default();
        let thresholds = Arc::new(vec![0, 16, 256, hw.mem.stack_top()]);
        for widen_delay in [0u32, 2] {
            let chaotic = last_input_is_final(&icfg, Chaotic { seed }, widen_delay, false);
            prop_assert_eq!(chaotic, None, "Chaotic, seed {}, widen_delay {}", seed, widen_delay);
            let value = ValueTransfer::new(
                &program,
                &hw,
                &cfg,
                DomainKind::Strided,
                Arc::clone(&thresholds),
            );
            let value = last_input_is_final(&icfg, value, widen_delay, false);
            prop_assert_eq!(value, None, "ValueTransfer, seed {}, widen_delay {}", seed, widen_delay);
        }
    }
}

#[test]
fn last_input_oracle_rejects_a_stale_input() {
    // Remembering only each node's first input must be caught on a loop,
    // whose head is evaluated again on a grown input.
    let src = ".text\nmain: li r1, 4\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
    let program = assemble(src).unwrap();
    let cfg = CfgBuilder::new(&program).build().unwrap();
    let icfg = Icfg::build(&cfg, &VivuConfig::default()).unwrap();
    let hw = HwConfig::default();
    let value = || ValueTransfer::new(&program, &hw, &cfg, DomainKind::Strided, Arc::new(vec![0]));
    assert_eq!(last_input_is_final(&icfg, value(), 2, false), None);
    assert!(last_input_is_final(&icfg, value(), 2, true).is_some());
}

#[test]
fn equivalence_oracle_rejects_differences() {
    // `Solved::equivalent` must actually discriminate: perturbing the
    // transfer changes the fixpoint and the oracle must notice.
    let src = ".text\nmain: li r1, 4\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
    let icfg = build_icfg(src).expect("builds");
    let a = solve(&icfg, &mut Chaotic { seed: 1 }, 2);
    let b = solve(&icfg, &mut Chaotic { seed: 2 }, 2);
    let (a, b) = (Solved::of(&icfg, &a), Solved::of(&icfg, &b));
    assert!(!a.equivalent(&b), "different kills must differ");
    let c = solve_reference(&icfg, &mut Chaotic { seed: 1 }, 2);
    assert!(a.equivalent(&c));
}

/// Collects the set of visited block start addresses (as bit indices)
/// — a reachability analysis.
struct Reach;

impl Transfer for Reach {
    type State = Bits;

    fn boundary(&self) -> Bits {
        Bits(1)
    }

    fn transfer(&mut self, icfg: &Icfg, node: NodeId, input: &Bits) -> Bits {
        let _ = icfg;
        Bits(input.0 | (1 << (node.index() + 1).min(63)))
    }
}

#[test]
fn reaches_fixpoint_on_loop() {
    let src = ".text\nmain: li r1, 4\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
    let p = assemble(src).unwrap();
    let cfg = CfgBuilder::new(&p).build().unwrap();
    let icfg = Icfg::build(&cfg, &VivuConfig::default()).unwrap();
    let fp = solve(&icfg, &mut Reach, 2);
    // Every reachable node has a state, and the exit sees the entry bit.
    for nd in icfg.nodes() {
        assert!(fp.input(nd.id).is_some(), "node {:?} unreachable", nd.id);
    }
    let exit = icfg.exits()[0];
    assert_eq!(fp.input(exit).unwrap().0 & 1, 1);
    assert!(fp.evaluations >= icfg.nodes().len() as u64);
    // The indexed solver agrees with the reference solver.
    let rf = solve_reference(&icfg, &mut Reach, 2);
    assert!(Solved::of(&icfg, &fp).equivalent(&rf));
}

#[test]
fn infeasible_edges_reported() {
    struct KillFall;
    impl Transfer for KillFall {
        type State = Bits;
        fn boundary(&self) -> Bits {
            Bits(1)
        }
        fn transfer(&mut self, _i: &Icfg, _n: NodeId, s: &Bits) -> Bits {
            s.clone()
        }
        fn edge<'s>(&mut self, icfg: &Icfg, e: &IEdge, s: &'s Bits) -> Option<Cow<'s, Bits>> {
            // Refuse the fall-through edge out of the entry block.
            if e.from == icfg.entry() {
                if let IEdgeKind::Intra { cfg_edge, .. } = e.kind {
                    let _ = cfg_edge;
                    return None;
                }
            }
            Some(Cow::Borrowed(s))
        }
    }
    let src = ".text\nmain: beq r0, r0, t\nf: halt\nt: halt\n";
    let p = assemble(src).unwrap();
    let cfg = CfgBuilder::new(&p).build().unwrap();
    let icfg = Icfg::build(&cfg, &VivuConfig::default()).unwrap();
    let fp = solve(&icfg, &mut KillFall, 2);
    assert_eq!(fp.infeasible_edges.len(), 2);
    let rf = solve_reference(&icfg, &mut KillFall, 2);
    assert!(Solved::of(&icfg, &fp).equivalent(&rf));
}
