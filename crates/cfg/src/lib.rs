//! # stamp-cfg — control-flow graph reconstruction from EVA32 binaries
//!
//! This crate implements the **CFG building** phase of the paper: it
//! "decodes, i.e. identifies instructions, and reconstructs the
//! control-flow graph (CFG) from a binary program".
//!
//! Starting from the entry point only, [`CfgBuilder`] discovers functions
//! through call instructions, partitions code into basic blocks, and
//! connects intra-procedural edges. Indirect jumps (`jalr`) cannot be
//! resolved from the code alone; their possible targets are supplied
//! either by annotations or — as in aiT — by iterating CFG construction
//! with the value analysis (`stamp-value` folds jump tables held in ROM),
//! feeding resolved targets back via [`CfgBuilder::indirect_targets`].
//!
//! On top of the raw graph the crate provides dominator trees
//! ([`Dominators`]; [`Idoms`] over any dense-id graph), strongly
//! connected components ([`sccs`]), natural-loop detection
//! ([`LoopForest`]) and an annotated DOT export ([`dot::render`])
//! standing in for the aiSee visualizations mentioned in the paper.
//!
//! # Example
//!
//! ```
//! use stamp_isa::asm::assemble;
//! use stamp_cfg::CfgBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = assemble(
//!     ".text\nmain: li r1, 4\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n",
//! )?;
//! let cfg = CfgBuilder::new(&p).build()?;
//! assert_eq!(cfg.functions().len(), 1);
//! let loops = cfg.loop_forest(cfg.functions()[0].id)?;
//! assert_eq!(loops.loops().len(), 1);
//! # Ok(())
//! # }
//! ```

mod build;
mod codec;
mod dom;
pub mod dot;
mod graph;
mod loops;
mod scc;

pub use build::{CfgBuilder, CfgError};
pub use dom::{Dominators, Idoms};
pub use graph::{
    BasicBlock, BlockId, CallSite, Callee, Cfg, Edge, EdgeId, EdgeKind, FuncId, Function,
};
pub use loops::{Loop, LoopForest, LoopId};
pub use scc::sccs;
