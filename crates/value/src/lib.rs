//! # stamp-value — value analysis by abstract interpretation
//!
//! The paper's central auxiliary analysis: it "tries to determine the
//! values stored in the processor's memory for every program point",
//! producing
//!
//! * **value ranges for registers** ([`SInt`] — strided intervals, which
//!   subsume constant propagation and plain interval analysis, the domain
//!   hierarchy of §1),
//! * **address ranges for instructions accessing memory** (input to the
//!   data-cache analysis),
//! * **loop-bound inputs** (register states at loop entries, consumed by
//!   `stamp-loopbound`),
//! * **infeasible paths**: "certain conditions always evaluate to true or
//!   always evaluate to false; as a consequence, certain paths controlled
//!   by such conditions are never executed" — discovered here via branch
//!   refinement and exported as edge facts to the path analysis,
//! * **resolved indirect jumps**: loads from jump tables in ROM are
//!   folded, closing the CFG-reconstruction ↔ value-analysis loop,
//! * **the stack extent** ([`StackExtent`]): "by concentrating on the
//!   value of the stack pointer during value analysis", the lowest `sp`
//!   after any instruction, the bound `stamp-stack`'s precise mode reads.
//!
//! The analysis runs on the context-expanded supergraph (`stamp-ai`), so
//! every result is per *(instruction, context)*.
//!
//! [`ValueTransfer`] records the per-instruction facts (access address
//! sets, decided branches, `jalr` targets and each node's effect on `sp`)
//! while the fixpoint runs. Each evaluation of a node overwrites that
//! node's record, and the solver's last evaluation of a node sees its
//! final input, so no second pass re-walks the finished fixpoint.
//!
//! # Example
//!
//! ```
//! use stamp_isa::asm::assemble;
//! use stamp_cfg::CfgBuilder;
//! use stamp_ai::{Icfg, VivuConfig};
//! use stamp_hw::HwConfig;
//! use stamp_value::{ValueAnalysis, ValueOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = assemble(".text\nmain: li r1, 7\nadd r2, r1, r1\nhalt\n")?;
//! let cfg = CfgBuilder::new(&p).build()?;
//! let icfg = Icfg::build(&cfg, &VivuConfig::default())?;
//! let va = ValueAnalysis::run(&p, &HwConfig::default(), &cfg, &icfg, &ValueOptions::default());
//! let exit = icfg.exits()[0];
//! let state = va.exit_state(exit).unwrap();
//! assert_eq!(state.reg(stamp_isa::Reg::new(2)).is_const(), Some(14));
//! # Ok(())
//! # }
//! ```

mod amem;
mod analysis;
mod interval;
mod state;
mod transfer;

pub use amem::AMem;
pub use analysis::PrecisionSummary;
pub use analysis::{AccessInfo, StackExtent, ValueAnalysis, ValueOptions};
pub use interval::{DomainKind, SInt};
pub use state::AState;
pub use transfer::{effective_cond, register_delta, CondRhs, EffCond, ValueTransfer};
