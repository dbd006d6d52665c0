//! Structural properties of CFG reconstruction over generated programs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stamp_cfg::{BlockId, CfgBuilder, Dominators, EdgeKind};
use stamp_isa::asm::assemble;
use stamp_isa::Flow;
use stamp_suite::{generate, GenConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blocks_partition_discovered_code(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = generate(&mut rng, &GenConfig::default());
        let p = assemble(&src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");

        // No instruction address appears in two blocks.
        let mut seen = std::collections::BTreeSet::new();
        for b in cfg.blocks() {
            for &(addr, _) in &b.insns {
                prop_assert!(seen.insert(addr), "address {addr:#x} in two blocks");
            }
            // Instructions within a block are consecutive.
            for w in b.insns.windows(2) {
                prop_assert_eq!(w[0].0 + 4, w[1].0);
            }
            // Only the last instruction may change control flow.
            for &(addr, insn) in &b.insns[..b.insns.len() - 1] {
                prop_assert!(
                    matches!(insn.flow(addr), Flow::Seq),
                    "non-terminator control flow inside a block"
                );
            }
        }

        // Edge endpoints agree with the terminators.
        for b in cfg.blocks() {
            let succs: Vec<EdgeKind> = cfg.succs(b.id).map(|(_, e)| e.kind).collect();
            match b.exit_flow() {
                Flow::Branch { .. } => {
                    prop_assert!(succs.len() <= 2 && !succs.is_empty());
                }
                Flow::Jump { .. } => prop_assert_eq!(succs.len(), 1),
                Flow::Halt | Flow::Return => prop_assert!(succs.is_empty()),
                Flow::Call { .. } | Flow::IndirectCall => {
                    prop_assert!(succs.iter().all(|k| *k == EdgeKind::CallFall));
                }
                Flow::Seq => prop_assert!(succs.len() <= 1),
                Flow::IndirectJump => {}
            }
        }

        // RPO of each function starts at its entry and visits blocks of
        // that function only, exactly once.
        for f in cfg.functions() {
            let order = cfg.rpo(f.id);
            prop_assert_eq!(order.first().copied(), Some(f.entry));
            let unique: std::collections::BTreeSet<_> = order.iter().collect();
            prop_assert_eq!(unique.len(), order.len());
            for b in &order {
                prop_assert_eq!(cfg.block(*b).func, f.id);
            }
        }

        // Dominators: every function entry dominates all its blocks.
        for f in cfg.functions() {
            let dom = cfg.dominators(f.id);
            for &b in &f.blocks {
                if cfg.rpo(f.id).contains(&b) {
                    prop_assert!(dom.dominates(f.entry, b));
                }
            }
        }

        // Loop bodies contain their headers; back edges originate inside.
        for f in cfg.functions() {
            let forest = cfg.loop_forest(f.id).expect("reducible by construction");
            for l in forest.loops() {
                prop_assert!(l.body.contains(&l.header));
                for &e in &l.back_edges {
                    prop_assert!(l.body.contains(&cfg.edge(e).from));
                    prop_assert_eq!(cfg.edge(e).to, l.header);
                }
                for &e in &l.entry_edges {
                    prop_assert!(!l.body.contains(&cfg.edge(e).from));
                }
            }
        }
    }

    #[test]
    fn dominance_and_nesting_match_their_definitions(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = if seed % 2 == 0 { GenConfig::rich() } else { GenConfig::default() };
        let src = generate(&mut rng, &shape);
        let p = assemble(&src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        for f in cfg.functions() {
            // Dominance is reflexive-transitive idom reachability.
            let dom = cfg.dominators(f.id);
            for &a in &f.blocks {
                for &b in &f.blocks {
                    prop_assert_eq!(dom.dominates(a, b), by_idom_chain(&dom, a, b));
                }
            }
            // A loop's parent is the smallest loop strictly containing
            // it, its depth one more than its parent's, and each block's
            // innermost loop the deepest loop containing it.
            let forest = cfg.loop_forest(f.id).expect("reducible by construction");
            let loops = forest.loops();
            for l in loops {
                let parent = loops
                    .iter()
                    .filter(|o| o.body.is_superset(&l.body) && o.body != l.body)
                    .min_by_key(|o| o.body.len());
                prop_assert_eq!(l.parent, parent.map(|o| o.id));
                prop_assert_eq!(l.depth, parent.map_or(1, |o| o.depth + 1));
            }
            for &b in &f.blocks {
                let deepest = loops.iter().filter(|l| l.body.contains(&b)).max_by_key(|l| l.depth);
                prop_assert_eq!(forest.innermost(b), deepest.map(|l| l.id));
            }
        }
    }
}

/// Does `a` dominate `b`, walking `b`'s immediate dominators?
fn by_idom_chain(dom: &Dominators, a: BlockId, b: BlockId) -> bool {
    let mut cur = Some(b);
    while let Some(c) = cur {
        if c == a {
            return true;
        }
        cur = dom.idom(c);
    }
    false
}
