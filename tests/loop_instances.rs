//! Differential tests of the supergraph's loop-instance table.
//!
//! `Icfg::loop_instances` is the one place that groups header nodes
//! into loop instances; loop-bound analysis, the IPET path ILP and the
//! path sampler all read it. This suite checks it against two
//! independent test-only regroupings:
//!
//! * the per-edge grouping the path ILP used to build for itself
//!   (every edge into a loop-header node, keyed by the target context
//!   with the loop's own trailing frame stripped, back edges — intra
//!   or return edges labelled with the header — apart);
//! * the per-node enumeration loop-bound analysis used to key its
//!   bounds (every header node's stripped context, edges or not);
//!
//! and checks that `LoopBoundAnalysis` bounds exactly the table's
//! instances, each once.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::SeedableRng;
use stamp_ai::{Frame, IEdgeId, IEdgeKind, Icfg, LoopInstance, LoopKey, VivuConfig};
use stamp_cfg::{BlockId, Cfg, CfgBuilder};
use stamp_hw::HwConfig;
use stamp_isa::asm::assemble;
use stamp_isa::Program;
use stamp_loopbound::{LoopBoundAnalysis, LoopBoundOptions};
use stamp_suite::{generate, GenConfig};
use stamp_value::{ValueAnalysis, ValueOptions};

/// The context of a header node with the loop's own trailing frame
/// stripped.
fn stripped(icfg: &Icfg, header: BlockId, ctx: stamp_ai::CtxId) -> Vec<Frame> {
    let mut frames = icfg.ctxs().get(ctx).frames().to_vec();
    if matches!(frames.last(), Some(Frame::Loop { header: h, .. }) if *h == header) {
        frames.pop();
    }
    frames
}

/// Every natural-loop header of every function.
fn loop_headers(cfg: &Cfg) -> BTreeSet<BlockId> {
    let mut headers = BTreeSet::new();
    for f in cfg.functions() {
        let forest = cfg.loop_forest(f.id).expect("reducible");
        headers.extend(forest.loops().iter().map(|l| l.header));
    }
    headers
}

/// Reference 1: group every edge into a loop-header node by instance,
/// in edge order, and sort the instances by key.
fn per_edge_reference(cfg: &Cfg, icfg: &Icfg) -> Vec<LoopInstance> {
    let headers = loop_headers(cfg);
    let mut groups: BTreeMap<LoopKey, (Vec<IEdgeId>, Vec<IEdgeId>)> = BTreeMap::new();
    for e in icfg.edges() {
        let to = icfg.node(e.to);
        let header = to.block;
        if !headers.contains(&header) {
            continue;
        }
        let group = groups.entry((header, stripped(icfg, header, to.ctx))).or_default();
        if matches!(e.kind, IEdgeKind::Intra { back_edge_of: Some(h), .. }
            | IEdgeKind::Return { back_edge_of: Some(h), .. } if h == header)
        {
            group.1.push(e.id);
        } else {
            group.0.push(e.id);
        }
    }
    groups
        .into_iter()
        .map(|((header, outer), (entries, backs))| LoopInstance { header, outer, entries, backs })
        .collect()
}

/// Reference 2: one key per distinct stripped context of every header
/// node, whether or not an edge enters it.
fn per_node_reference(cfg: &Cfg, icfg: &Icfg) -> BTreeSet<LoopKey> {
    let mut keys = BTreeSet::new();
    for header in loop_headers(cfg) {
        for &n in icfg.nodes_of_block(header) {
            keys.insert((header, stripped(icfg, header, icfg.node(n).ctx)));
        }
    }
    keys
}

/// Checks the table against both references and loop-bound analysis's
/// keys. Returns the supergraph for case-specific assertions.
fn check(program: &Program, cfg: &Cfg, peel: u8, what: &str) -> Option<Icfg> {
    let vivu = VivuConfig { peel, ..VivuConfig::default() };
    let icfg = Icfg::build(cfg, &vivu).ok()?;
    let table = icfg.loop_instances();

    let keys: Vec<LoopKey> = table.iter().map(LoopInstance::key).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "{what}: table not strictly ordered by key");
    for inst in table {
        assert!(inst.entries.windows(2).all(|w| w[0] < w[1]), "{what}: entries out of id order");
        assert!(inst.backs.windows(2).all(|w| w[0] < w[1]), "{what}: backs out of id order");
    }
    let with_edges: Vec<LoopInstance> =
        table.iter().filter(|i| !i.entries.is_empty() || !i.backs.is_empty()).cloned().collect();
    assert_eq!(with_edges, per_edge_reference(cfg, &icfg), "{what}: per-edge grouping differs");
    let key_set: BTreeSet<LoopKey> = keys.iter().cloned().collect();
    assert_eq!(key_set, per_node_reference(cfg, &icfg), "{what}: per-node keys differ");
    for inst in table {
        assert_eq!(icfg.loop_instances_of(inst.header).iter().filter(|i| *i == inst).count(), 1);
    }

    let hw = HwConfig::default();
    let va = ValueAnalysis::run(program, &hw, cfg, &icfg, &ValueOptions::default());
    let lb = LoopBoundAnalysis::run(program, cfg, &icfg, &va, &LoopBoundOptions::default());
    let unbounded: BTreeSet<LoopKey> = lb.unbounded().iter().cloned().collect();
    assert_eq!(unbounded.len(), lb.unbounded().len(), "{what}: an instance is unbounded twice");
    assert!(lb.bounds().keys().all(|k| !unbounded.contains(k)), "{what}: bounded and unbounded");
    let lb_keys: BTreeSet<LoopKey> = lb.bounds().keys().cloned().chain(unbounded).collect();
    assert_eq!(lb_keys, key_set, "{what}: loop-bound keys differ from the table");
    Some(icfg)
}

fn check_source(src: &str, peel: u8, what: &str) -> (Program, Cfg, Icfg) {
    let program = assemble(src).expect("assembles");
    let cfg = CfgBuilder::new(&program).build().expect("builds");
    let icfg = check(&program, &cfg, peel, what).expect("expands");
    (program, cfg, icfg)
}

fn block(program: &Program, cfg: &Cfg, label: &str) -> BlockId {
    cfg.block_at(program.symbols.addr_of(label).expect("label")).expect("block")
}

#[test]
fn table_matches_references_on_generated_programs() {
    let mut checked = 0;
    for seed in 0..210u64 {
        let shape = if seed % 3 == 2 { GenConfig::rich() } else { GenConfig::default() };
        let src = generate(&mut StdRng::seed_from_u64(seed), &shape);
        let program = assemble(&src).expect("generated programs assemble");
        let cfg = CfgBuilder::new(&program).build().expect("generated programs build");
        for peel in 0..=2u8 {
            if check(&program, &cfg, peel, &format!("seed {seed} peel {peel}")).is_some() {
                checked += 1;
            }
        }
    }
    assert!(checked >= 600, "only {checked} supergraphs expanded");
}

#[test]
fn entry_block_heading_a_loop_is_an_instance_without_entries() {
    let src = ".text\nmain: addi r1, r1, -1\nbnez r1, main\nhalt\n";
    for peel in 0..=2u8 {
        let (program, cfg, icfg) = check_source(src, peel, &format!("entry header peel {peel}"));
        let header = block(&program, &cfg, "main");
        let [inst] = icfg.loop_instances_of(header) else { panic!("one instance") };
        assert!(inst.outer.is_empty());
        assert!(inst.entries.is_empty(), "nothing enters the task entry");
        assert_eq!(inst.backs.len(), 1);
        assert!(icfg.entered_at_start(inst), "the task start enters it");
    }
}

#[test]
fn return_edges_closing_a_loop_are_back_edges() {
    let src = "\
        .text
        main: li   r1, 5
              j    head
        body: addi r1, r1, -1
              call f
        head: bnez r1, body
              halt
        f:    ret
    ";
    for peel in 0..=2u8 {
        let (program, cfg, icfg) = check_source(src, peel, &format!("call latch peel {peel}"));
        let header = block(&program, &cfg, "head");
        for inst in icfg.loop_instances_of(header) {
            assert!(!icfg.entered_at_start(inst));
            for &b in &inst.backs {
                assert!(matches!(icfg.edge(b).kind, IEdgeKind::Return { .. }), "peel {peel}");
            }
            for &e in &inst.entries {
                assert!(matches!(icfg.edge(e).kind, IEdgeKind::Intra { .. }), "peel {peel}");
            }
        }
        let backs: usize = icfg.loop_instances_of(header).iter().map(|i| i.backs.len()).sum();
        assert!(backs > 0, "peel {peel}");
    }
}

#[test]
fn latch_after_a_halting_call_keeps_its_back_edges() {
    let src = "\
        .text
        main: li   r1, 3
        loop: addi r1, r1, -1
              call stop
              bnez r1, loop
              halt
        stop: halt
    ";
    for peel in 0..=2u8 {
        let (program, cfg, icfg) = check_source(src, peel, &format!("halting call peel {peel}"));
        let header = block(&program, &cfg, "loop");
        let insts = icfg.loop_instances_of(header);
        assert_eq!(insts.len(), 1, "peel {peel}");
        // The latch is the continuation of a call that never returns:
        // it has no predecessors, yet its back edges are recorded.
        assert_eq!(insts[0].entries.len(), 1);
        assert_eq!(insts[0].backs.len(), usize::from(peel) + 1);
        for &b in &insts[0].backs {
            assert_eq!(icfg.preds(icfg.edge(b).from).count(), 0);
        }
    }
}

#[test]
fn callee_loop_reached_from_two_sites_in_an_outer_loop() {
    let src = "\
        .text
        main:  li   r2, 3
        outer: li   r1, 4
               call spin
               li   r1, 2
               call spin
               addi r2, r2, -1
               bnez r2, outer
               halt
        spin:  addi r1, r1, -1
               bnez r1, spin
               ret
    ";
    for peel in 0..=2u8 {
        let (program, cfg, icfg) = check_source(src, peel, &format!("two sites peel {peel}"));
        let spin = block(&program, &cfg, "spin");
        let insts = icfg.loop_instances_of(spin);
        // One instance per call site and outer iteration class.
        assert_eq!(insts.len(), 2 * (usize::from(peel) + 1), "peel {peel}");
        for inst in insts {
            assert!(
                matches!(
                    inst.outer.as_slice(),
                    [Frame::Loop { .. }, Frame::Call { .. }] | [Frame::Call { .. }]
                ),
                "unexpected outer frames {:?}",
                inst.outer
            );
            assert_eq!(inst.entries.len(), 1);
            let entry = icfg.edge(inst.entries[0]);
            assert!(matches!(entry.kind, IEdgeKind::Call { .. }), "entered by its call edge");
            assert_eq!(inst.backs.len(), usize::from(peel) + 1);
        }
    }
}
