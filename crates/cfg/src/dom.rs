//! Dominator trees (Cooper–Harvey–Kennedy iterative algorithm).

use crate::graph::{BlockId, Cfg, FuncId};

/// The dominator tree of one function.
///
/// Built with [`Cfg::dominators`]. Block `a` dominates `b` when every path
/// from the function entry to `b` passes through `a`.
#[derive(Clone, Debug)]
pub struct Dominators {
    entry: BlockId,
    /// Immediate dominator per block (`idom[entry] == entry`); blocks not
    /// in this function map to `None`.
    idom: Vec<Option<BlockId>>,
    /// Reverse post-order used for the computation.
    rpo: Vec<BlockId>,
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
        let mut order = vec![usize::MAX; n]; // block -> rpo index
        for (i, &b) in rpo.iter().enumerate() {
            order[b.index()] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[entry.index()] = Some(entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while order[a.index()] > order[b.index()] {
                    a = idom[a.index()].expect("processed");
                }
                while order[b.index()] > order[a.index()] {
                    b = idom[b.index()].expect("processed");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for (_, e) in self.preds(b) {
                    let p = e.from;
                    if order[p.index()] == usize::MAX || idom[p.index()].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // Number the tree depth-first so dominance queries are O(1).
        let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for &b in rpo.iter().skip(1) {
            if let Some(p) = idom[b.index()] {
                children[p.index()].push(b);
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
        Dominators { entry, idom, rpo, pre, post }
    }
}

impl Dominators {
    /// The function entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The immediate dominator of `b` (`None` for the entry or blocks of
    /// other functions).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        if b == self.entry {
            None
        } else {
            self.idom[b.index()]
        }
    }

    /// Returns `true` if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        a == b
            || (self.pre[b.index()] != u32::MAX
                && self.pre[a.index()] <= self.pre[b.index()]
                && self.post[b.index()] <= self.post[a.index()])
    }

    /// The reverse post-order the tree was computed over.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
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
