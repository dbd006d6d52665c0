//! Dominator trees (Cooper–Harvey–Kennedy iterative algorithm).

use crate::graph::{BlockId, Cfg, FuncId};

/// Immediate dominators of a rooted graph over dense node ids `0..n`,
/// by the Cooper–Harvey–Kennedy iteration over a reverse postorder.
///
/// The one dominator routine of the workspace: [`Cfg::dominators`] runs
/// it per function, and the path analysis runs it over the supergraph.
#[derive(Clone, Debug)]
pub struct Idoms {
    /// Immediate dominator per node (the root maps to itself); `u32::MAX`
    /// for nodes outside the reverse postorder.
    idom: Vec<u32>,
    /// Position of each node in the reverse postorder (`u32::MAX` if
    /// absent).
    order: Vec<u32>,
}

impl Idoms {
    /// Computes the immediate dominators. `rpo` lists the nodes reached
    /// from the root in reverse postorder, root first; `preds(v)` yields
    /// the predecessors of `v` (predecessors outside `rpo` are ignored).
    pub fn new<I: IntoIterator<Item = usize>>(
        n: usize,
        rpo: &[usize],
        preds: impl Fn(usize) -> I,
    ) -> Idoms {
        let mut order = vec![u32::MAX; n];
        for (i, &v) in rpo.iter().enumerate() {
            order[v] = i as u32;
        }
        let mut doms = Idoms { idom: vec![u32::MAX; n], order };
        let Some(&root) = rpo.first() else { return doms };
        doms.idom[root] = root as u32;
        let mut changed = true;
        while changed {
            changed = false;
            for &v in &rpo[1..] {
                let mut new_idom = u32::MAX;
                for p in preds(v) {
                    if doms.idom[p] == u32::MAX {
                        continue; // unreached or not yet processed
                    }
                    new_idom = if new_idom == u32::MAX {
                        p as u32
                    } else {
                        doms.common(new_idom as usize, p) as u32
                    };
                }
                if new_idom != u32::MAX && doms.idom[v] != new_idom {
                    doms.idom[v] = new_idom;
                    changed = true;
                }
            }
        }
        doms
    }

    /// The immediate dominator of `v` (the root's is itself); `None`
    /// for nodes the root does not reach.
    pub fn idom(&self, v: usize) -> Option<usize> {
        (self.idom[v] != u32::MAX).then_some(self.idom[v] as usize)
    }

    /// The nearest common dominator of two reached nodes (the classic
    /// two-finger walk up the tree).
    pub fn common(&self, mut a: usize, mut b: usize) -> usize {
        while a != b {
            while self.order[a] > self.order[b] {
                a = self.idom[a] as usize;
            }
            while self.order[b] > self.order[a] {
                b = self.idom[b] as usize;
            }
        }
        a
    }
}

/// The dominator tree of one function.
///
/// Built with [`Cfg::dominators`]. Block `a` dominates `b` when every path
/// from the function entry to `b` passes through `a`.
#[derive(Clone, Debug)]
pub struct Dominators {
    entry: BlockId,
    /// Immediate dominators over all blocks; blocks not in this function
    /// have none.
    idoms: Idoms,
    /// Pre- and post-order numbers of each block in the dominator tree
    /// (`u32::MAX` for blocks the tree does not reach): `a` dominates
    /// `b` iff `b`'s interval nests in `a`'s.
    pre: Vec<u32>,
    post: Vec<u32>,
}

impl Cfg {
    /// Computes the dominator tree of function `f`.
    pub fn dominators(&self, f: FuncId) -> Dominators {
        let rpo = self.rpo(f);
        let entry = self.func(f).entry;
        let n = self.blocks().len();
        let order: Vec<usize> = rpo.iter().map(|b| b.index()).collect();
        let idoms =
            Idoms::new(n, &order, |b| self.preds(BlockId(b as u32)).map(|(_, e)| e.from.index()));
        // Number the tree depth-first so dominance queries are O(1).
        let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for &b in rpo.iter().skip(1) {
            if let Some(p) = idoms.idom(b.index()) {
                children[p].push(b);
            }
        }
        let (mut pre, mut post) = (vec![u32::MAX; n], vec![u32::MAX; n]);
        let (mut next_pre, mut next_post) = (0u32, 0u32);
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        pre[entry.index()] = 0;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if let Some(&c) = children[b.index()].get(*i) {
                *i += 1;
                next_pre += 1;
                pre[c.index()] = next_pre;
                stack.push((c, 0));
            } else {
                post[b.index()] = next_post;
                next_post += 1;
                stack.pop();
            }
        }
        Dominators { entry, idoms, pre, post }
    }
}

impl Dominators {
    /// The immediate dominator of `b` (`None` for the entry or blocks of
    /// other functions).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        if b == self.entry {
            None
        } else {
            self.idoms.idom(b.index()).map(|d| BlockId(d as u32))
        }
    }

    /// Returns `true` if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        a == b
            || (self.pre[b.index()] != u32::MAX
                && self.pre[a.index()] <= self.pre[b.index()]
                && self.post[b.index()] <= self.post[a.index()])
    }
}

#[cfg(test)]
mod tests {
    use crate::CfgBuilder;
    use stamp_isa::asm::assemble;

    #[test]
    fn diamond_dominators() {
        // entry → {a, b} → join
        let src = "\
            .text
            main: beq r1, r0, a
            b:    addi r2, r0, 1
                  j join
            a:    addi r2, r0, 2
            join: halt
        ";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let f = cfg.functions()[0].id;
        let dom = cfg.dominators(f);
        let entry = cfg.functions()[0].entry;
        let a = cfg.block_at(p.symbols.addr_of("a").unwrap()).unwrap();
        let b = cfg.block_at(p.symbols.addr_of("b").unwrap()).unwrap();
        let join = cfg.block_at(p.symbols.addr_of("join").unwrap()).unwrap();
        assert!(dom.dominates(entry, join));
        assert!(!dom.dominates(a, join));
        assert!(!dom.dominates(b, join));
        assert_eq!(dom.idom(join), Some(entry));
        assert_eq!(dom.idom(a), Some(entry));
        assert!(dom.dominates(join, join));
    }

    #[test]
    fn loop_header_dominates_body() {
        let src = "\
            .text
            main: li r1, 4
            head: beqz r1, done
            body: addi r1, r1, -1
                  j head
            done: halt
        ";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let dom = cfg.dominators(cfg.functions()[0].id);
        let head = cfg.block_at(p.symbols.addr_of("head").unwrap()).unwrap();
        let body = cfg.block_at(p.symbols.addr_of("body").unwrap()).unwrap();
        assert!(dom.dominates(head, body));
        assert!(!dom.dominates(body, head));
    }
}
