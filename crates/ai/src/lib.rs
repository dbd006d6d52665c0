//! # stamp-ai — the abstract-interpretation framework
//!
//! Infrastructure shared by all static analyses in `stamp`, implementing
//! the method of Cousot & Cousot cited as \[1\] in the paper:
//!
//! * [`Domain`] — the join-semilattice interface abstract domains
//!   implement (value intervals, abstract caches, pipeline-state sets);
//! * [`VivuConfig`] / [`Ctx`] — **VIVU** execution contexts (*virtual
//!   inlining, virtual unrolling*): call strings crossed with
//!   first/rest loop-iteration tags. Contexts are what let the cache and
//!   pipeline analyses distinguish the first loop iteration (cold cache)
//!   from later ones (warm cache), the key to tight WCET bounds;
//! * [`Icfg`] — the context-expanded interprocedural CFG on which every
//!   analysis and the path analysis run;
//! * [`solve`] — a generic worklist fixpoint solver with widening at
//!   loop heads.
//!
//! # Example
//!
//! ```
//! use stamp_isa::asm::assemble;
//! use stamp_cfg::CfgBuilder;
//! use stamp_ai::{Icfg, VivuConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = assemble(".text\nmain: li r1, 2\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n")?;
//! let cfg = CfgBuilder::new(&p).build()?;
//! let icfg = Icfg::build(&cfg, &VivuConfig::default())?;
//! // The loop body exists twice: once in the `first iteration` context
//! // and once in the `rest` context.
//! assert!(icfg.nodes().len() > cfg.blocks().len());
//! # Ok(())
//! # }
//! ```

mod context;
mod domain;
mod icfg;
mod solver;

pub use context::{Ctx, CtxId, CtxTable, Frame, VivuConfig};
pub use domain::Domain;
pub use icfg::{IEdge, IEdgeId, IEdgeKind, Icfg, IcfgError, LoopInstance, LoopKey, Node, NodeId};
pub use solver::{solve, Fixpoint, Transfer};
