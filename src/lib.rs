//! # stamp — Static Timing And Memory-usage Properties
//!
//! A from-scratch implementation of the system described in Heckmann &
//! Ferdinand, *"Verifying Safety-Critical Timing and Memory-Usage
//! Properties of Embedded Software by Abstract Interpretation"* (DATE
//! 2005): a WCET analyzer (aiT) and a stack-usage analyzer
//! (StackAnalyzer) for a 32-bit embedded RISC target, built on abstract
//! interpretation and integer linear programming.
//!
//! This crate is the facade: it re-exports the entire workspace. Start
//! with [`WcetAnalysis`] and [`StackAnalysis`]; see `DESIGN.md` at the
//! workspace root for the crate DAG and analysis phases, and
//! `cargo run --release --bin experiments` for the paper's evaluation
//! tables.
//!
//! # Quickstart
//!
//! ```
//! use stamp::{assemble, StackAnalysis, WcetAnalysis};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     r#"
//!         .text
//!     main:
//!         addi sp, sp, -32        ; reserve a frame
//!         li   r1, 100
//!     loop:
//!         addi r1, r1, -1
//!         bnez r1, loop
//!         addi sp, sp, 32
//!         halt
//!     "#,
//! )?;
//!
//! let wcet = WcetAnalysis::new(&program).run()?;
//! let stack = StackAnalysis::new(&program).run()?;
//! assert!(wcet.wcet >= 100);
//! assert_eq!(stack.bound, 32);
//! # Ok(())
//! # }
//! ```

// The subsystem crates, under their natural names.
pub use stamp_ai as ai;
pub use stamp_cache as cache;
pub use stamp_cfg as cfg;
pub use stamp_core as analyzer;
pub use stamp_exec as exec;
pub use stamp_hw as hw;
pub use stamp_ilp as ilp;
pub use stamp_isa as isa;
pub use stamp_loopbound as loopbound;
pub use stamp_path as path;
pub use stamp_pipeline as pipeline;
pub use stamp_sample as sample;
pub use stamp_serve as serve;
pub use stamp_sim as sim;
pub use stamp_stack as stack;
pub use stamp_suite as suite;
pub use stamp_value as value;

// The primary user-facing API, re-exported flat.
pub use stamp_core::{
    run_batch, AnalysisConfig, AnalysisError, Annotations, BatchReport, BatchRequest, BatchTarget,
    BatchVariant, StackAnalysis, StackReport, WcetAnalysis, WcetReport,
};
pub use stamp_hw::HwConfig;
pub use stamp_isa::asm::assemble;
pub use stamp_isa::Program;
pub use stamp_sample::{sample_paths, SampleOptions, SampleSummary};
pub use stamp_sim::Simulator;
pub use stamp_stack::{OsekSystem, Task};
