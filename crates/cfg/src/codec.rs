//! Binary persistence of the CFG (the durable artifact of the
//! CFG-building phase).
//!
//! Everything is serialized positionally, including the derived
//! adjacency vectors — rebuilding them on decode would re-enter the
//! builder's insertion-order assumptions, and byte-exact round-trips
//! are cheaper to prove than behavioural equivalence.

use std::collections::BTreeMap;

use stamp_codec::{Codec, CodecError, Dec, Enc};

use crate::graph::{
    BasicBlock, BlockId, CallSite, Callee, Cfg, Edge, EdgeId, EdgeKind, FuncId, Function,
};

impl Codec for BlockId {
    fn enc(&self, e: &mut Enc) {
        e.u32(self.0);
    }
    fn dec(d: &mut Dec) -> Result<BlockId, CodecError> {
        Ok(BlockId(d.u32()?))
    }
}

impl Codec for FuncId {
    fn enc(&self, e: &mut Enc) {
        e.u32(self.0);
    }
    fn dec(d: &mut Dec) -> Result<FuncId, CodecError> {
        Ok(FuncId(d.u32()?))
    }
}

impl Codec for EdgeId {
    fn enc(&self, e: &mut Enc) {
        e.u32(self.0);
    }
    fn dec(d: &mut Dec) -> Result<EdgeId, CodecError> {
        Ok(EdgeId(d.u32()?))
    }
}

impl Codec for EdgeKind {
    fn enc(&self, e: &mut Enc) {
        e.u8(match self {
            EdgeKind::Fall => 0,
            EdgeKind::Taken => 1,
            EdgeKind::CallFall => 2,
        });
    }
    fn dec(d: &mut Dec) -> Result<EdgeKind, CodecError> {
        match d.u8()? {
            0 => Ok(EdgeKind::Fall),
            1 => Ok(EdgeKind::Taken),
            2 => Ok(EdgeKind::CallFall),
            _ => Err(CodecError::Invalid("edge kind")),
        }
    }
}

impl Codec for Edge {
    fn enc(&self, e: &mut Enc) {
        self.from.enc(e);
        self.to.enc(e);
        self.kind.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Edge, CodecError> {
        Ok(Edge { from: BlockId::dec(d)?, to: BlockId::dec(d)?, kind: EdgeKind::dec(d)? })
    }
}

impl Codec for BasicBlock {
    fn enc(&self, e: &mut Enc) {
        self.id.enc(e);
        self.func.enc(e);
        self.start.enc(e);
        self.insns.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<BasicBlock, CodecError> {
        Ok(BasicBlock {
            id: BlockId::dec(d)?,
            func: FuncId::dec(d)?,
            start: u32::dec(d)?,
            insns: Vec::dec(d)?,
        })
    }
}

impl Codec for Callee {
    fn enc(&self, e: &mut Enc) {
        match self {
            Callee::Direct(f) => {
                e.u8(0);
                f.enc(e);
            }
            Callee::Indirect(fs) => {
                e.u8(1);
                fs.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Callee, CodecError> {
        match d.u8()? {
            0 => Ok(Callee::Direct(FuncId::dec(d)?)),
            1 => Ok(Callee::Indirect(Vec::dec(d)?)),
            _ => Err(CodecError::Invalid("callee tag")),
        }
    }
}

impl Codec for CallSite {
    fn enc(&self, e: &mut Enc) {
        self.block.enc(e);
        self.addr.enc(e);
        self.callee.enc(e);
        self.return_to.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<CallSite, CodecError> {
        Ok(CallSite {
            block: BlockId::dec(d)?,
            addr: u32::dec(d)?,
            callee: Callee::dec(d)?,
            return_to: Option::dec(d)?,
        })
    }
}

impl Codec for Function {
    fn enc(&self, e: &mut Enc) {
        self.id.enc(e);
        self.entry_addr.enc(e);
        self.entry.enc(e);
        self.name.enc(e);
        self.blocks.enc(e);
        self.returns.enc(e);
        self.halts.enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Function, CodecError> {
        Ok(Function {
            id: FuncId::dec(d)?,
            entry_addr: u32::dec(d)?,
            entry: BlockId::dec(d)?,
            name: String::dec(d)?,
            blocks: Vec::dec(d)?,
            returns: Vec::dec(d)?,
            halts: Vec::dec(d)?,
        })
    }
}

impl Codec for Cfg {
    fn enc(&self, e: &mut Enc) {
        self.blocks.enc(e);
        self.functions.enc(e);
        self.edges.enc(e);
        self.succs.enc(e);
        self.preds.enc(e);
        self.call_sites.enc(e);
        self.block_at.enc(e);
        self.entry_func.enc(e);
        self.unresolved.enc(e);
    }
    /// Rejects a graph any of whose block, edge or function ids is out
    /// of range, so a decoded graph indexes without panicking.
    fn dec(d: &mut Dec) -> Result<Cfg, CodecError> {
        let cfg = Cfg {
            blocks: Vec::dec(d)?,
            functions: Vec::dec(d)?,
            edges: Vec::dec(d)?,
            succs: Vec::dec(d)?,
            preds: Vec::dec(d)?,
            call_sites: Vec::dec(d)?,
            block_at: BTreeMap::dec(d)?,
            entry_func: FuncId::dec(d)?,
            unresolved: Vec::dec(d)?,
        };
        let block = |b: &BlockId| b.index() < cfg.blocks.len();
        let func = |f: &FuncId| f.index() < cfg.functions.len();
        let edge = |e: &EdgeId| e.index() < cfg.edges.len();
        let in_range = cfg.blocks.iter().all(|b| block(&b.id) && func(&b.func))
            && cfg.functions.iter().all(|f| {
                func(&f.id)
                    && block(&f.entry)
                    && f.blocks.iter().chain(&f.returns).chain(&f.halts).all(block)
            })
            && cfg.edges.iter().all(|e| block(&e.from) && block(&e.to))
            && cfg.succs.len() == cfg.blocks.len()
            && cfg.preds.len() == cfg.blocks.len()
            && cfg.succs.iter().chain(&cfg.preds).flatten().all(edge)
            && cfg.call_sites.iter().all(|c| {
                block(&c.block)
                    && c.return_to.iter().all(block)
                    && c.callee.targets().iter().all(func)
            })
            && cfg.block_at.values().all(block)
            && func(&cfg.entry_func);
        if in_range {
            Ok(cfg)
        } else {
            Err(CodecError::Invalid("cfg id out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use stamp_codec::{decode_value, encode_value};
    use stamp_isa::asm::assemble;

    use crate::{Cfg, CfgBuilder};

    #[test]
    fn cfg_round_trips_byte_exactly() {
        let p = assemble(
            "\
            .text
            main: li r1, 3
                  call spin
                  beq r1, r0, done
            done: halt
            spin: addi r1, r1, -1
                  bnez r1, spin
                  ret
            ",
        )
        .unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let bytes = encode_value(&cfg);
        let back: Cfg = decode_value(&bytes).unwrap();
        // Byte-exactness is the strongest equivalence available without
        // PartialEq on Cfg: re-encoding the decoded graph must be
        // identical, and the public views must agree.
        assert_eq!(encode_value(&back), bytes);
        assert_eq!(back.blocks().len(), cfg.blocks().len());
        assert_eq!(back.functions().len(), cfg.functions().len());
        for (a, b) in cfg.blocks().iter().zip(back.blocks()) {
            assert_eq!(a.insns, b.insns);
            assert_eq!(a.start, b.start);
        }
    }

    #[test]
    fn truncated_cfg_bytes_fail_cleanly() {
        let p = assemble(".text\nmain: halt\n").unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let bytes = encode_value(&cfg);
        assert!(decode_value::<Cfg>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn out_of_range_ids_are_invalid_not_a_panic() {
        use stamp_codec::{Codec, CodecError, Dec};

        use crate::{BasicBlock, BlockId, Function};

        let p = assemble(".text\nmain: beq r1, r0, done\nnop\ndone: halt\n").unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let bytes = encode_value(&cfg);
        // The first edge's target block, pointed one past the last block.
        let mut d = Dec::new(&bytes);
        Vec::<BasicBlock>::dec(&mut d).unwrap();
        Vec::<Function>::dec(&mut d).unwrap();
        assert!(d.len_prefix(1).unwrap() > 0, "the graph has an edge");
        BlockId::dec(&mut d).unwrap();
        let at = bytes.len() - d.remaining();
        let mut hostile = bytes.clone();
        hostile[at..at + 4].copy_from_slice(&(cfg.blocks().len() as u32).to_le_bytes());
        assert!(matches!(
            decode_value::<Cfg>(&hostile),
            Err(CodecError::Invalid("cfg id out of range"))
        ));
    }
}
