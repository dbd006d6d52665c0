//! Structural properties of the supergraph expansion.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stamp_ai::{Frame, IEdgeKind, Icfg, VivuConfig};
use stamp_cfg::CfgBuilder;
use stamp_isa::asm::assemble;
use stamp_suite::{generate, GenConfig};

fn build(src: &str, vivu: &VivuConfig) -> (stamp_cfg::Cfg, Icfg) {
    let p = assemble(src).expect("assembles");
    let cfg = CfgBuilder::new(&p).build().expect("builds");
    let icfg = Icfg::build(&cfg, vivu).expect("expands");
    (cfg, icfg)
}

/// Structural invariants that must hold for every expansion.
fn check_invariants(cfg: &stamp_cfg::Cfg, icfg: &Icfg) {
    // Every node's (block, ctx) is unique and indexed.
    let mut seen = std::collections::HashSet::new();
    for nd in icfg.nodes() {
        assert!(seen.insert((nd.block, nd.ctx)), "{:?} repeats a (block, ctx)", nd.id);
        assert!(icfg.nodes_of_block(nd.block).contains(&nd.id));
    }
    // Edges connect existing nodes, and intra edges stay inside one
    // function while call/return edges cross function boundaries.
    for e in icfg.edges() {
        let from = icfg.node(e.from);
        let to = icfg.node(e.to);
        match e.kind {
            IEdgeKind::Intra { .. } => {
                assert_eq!(
                    cfg.block(from.block).func,
                    cfg.block(to.block).func,
                    "intra edge crosses functions"
                );
            }
            IEdgeKind::Call { .. } | IEdgeKind::Return { .. } => {
                assert_ne!(cfg.block(from.block).func, cfg.block(to.block).func);
            }
        }
    }
    // Call depth never exceeds the configured maximum.
    for nd in icfg.nodes() {
        assert!(icfg.ctxs().get(nd.ctx).call_depth() <= 16);
    }
    // The entry has the root context.
    assert_eq!(icfg.node(icfg.entry()).ctx, icfg.ctxs().root());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_programs_expand_consistently(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = generate(&mut rng, &GenConfig::default());
        for vivu in [VivuConfig::default(), VivuConfig::no_unrolling()] {
            let (cfg, icfg) = build(&src, &vivu);
            check_invariants(&cfg, &icfg);
            // Without unrolling, contexts are call-strings only: no node
            // carries a Loop frame.
            if vivu.peel == 0 {
                for nd in icfg.nodes() {
                    let calls_only = icfg
                        .ctxs()
                        .get(nd.ctx)
                        .frames()
                        .iter()
                        .all(|f| matches!(f, Frame::Call { .. }));
                    prop_assert!(calls_only);
                }
            }
        }
    }
}

#[test]
fn deeper_peeling_distinguishes_more_iterations() {
    let src = ".text\nmain: li r1, 9\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
    let mut node_counts = Vec::new();
    for peel in [0u8, 1, 2, 3] {
        let vivu = VivuConfig { peel, ..VivuConfig::default() };
        let (cfg, icfg) = build(src, &vivu);
        check_invariants(&cfg, &icfg);
        node_counts.push(icfg.nodes().len());
        // The loop block appears once per iteration class.
        let p = assemble(src).unwrap();
        let header = cfg.block_at(p.symbols.addr_of("loop").unwrap()).unwrap();
        assert_eq!(icfg.nodes_of_block(header).len(), peel as usize + 1);
    }
    assert!(node_counts.windows(2).all(|w| w[0] < w[1]), "{node_counts:?}");
}

#[test]
fn peel_two_back_edges_step_through_classes() {
    let src = ".text\nmain: li r1, 9\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
    let vivu = VivuConfig { peel: 2, ..VivuConfig::default() };
    let (_cfg, icfg) = build(src, &vivu);
    // Back edges: #0→#1, #1→#2, #2→#2 (self loop).
    let mut transitions = Vec::new();
    for e in icfg.edges() {
        if let IEdgeKind::Intra { back_edge_of: Some(_), .. } = e.kind {
            let from_iter = iter_class(icfg.ctxs().get(icfg.node(e.from).ctx).frames());
            let to_iter = iter_class(icfg.ctxs().get(icfg.node(e.to).ctx).frames());
            transitions.push((from_iter, to_iter));
        }
    }
    transitions.sort_unstable();
    assert_eq!(transitions, vec![(0, 1), (1, 2), (2, 2)]);
}

fn iter_class(frames: &[Frame]) -> u8 {
    match frames.last() {
        Some(Frame::Loop { iter, .. }) => *iter,
        _ => u8::MAX,
    }
}

#[test]
fn context_explosion_is_detected() {
    // Many nested loops with a tiny context budget.
    let src = "\
        .text
        main: li r1, 2
        l1:   li r2, 2
        l2:   li r3, 2
        l3:   addi r3, r3, -1
              bnez r3, l3
              addi r2, r2, -1
              bnez r2, l2
              addi r1, r1, -1
              bnez r1, l1
              halt
    ";
    let p = assemble(src).unwrap();
    let cfg = CfgBuilder::new(&p).build().unwrap();
    let vivu = VivuConfig { peel: 3, max_contexts: 4, ..VivuConfig::default() };
    let err = Icfg::build(&cfg, &vivu).unwrap_err();
    assert!(matches!(err, stamp_ai::IcfgError::ContextExplosion { .. }));
}
