//! # stamp-core — the analyzer products: WCET (aiT) and stack (StackAnalyzer)
//!
//! This crate wires the paper's phases into the two tools it describes:
//!
//! * [`WcetAnalysis`] — "aiT determines the WCET of a program task in
//!   several phases: *CFG building* decodes … and reconstructs the
//!   control-flow graph from a binary program; *value analysis* computes
//!   value ranges for registers and address ranges …; *loop bound
//!   analysis* determines upper bounds for the number of iterations of
//!   simple loops; *cache analysis* classifies memory references as
//!   cache misses or hits; *pipeline analysis* predicts the behavior of
//!   the program on the processor pipeline; *path analysis* determines a
//!   worst-case execution path of the program."
//! * [`StackAnalysis`] — StackAnalyzer's per-task worst-case stack bound
//!   (§2), feeding the OSEK whole-system analysis in `stamp-stack`.
//!
//! The CFG-building ↔ value-analysis loop for indirect jumps is
//! implemented here: unresolved `jalr` targets found by the value
//! analysis (jump tables in ROM) are fed back into CFG reconstruction
//! until the graph is closed, as in the real tool chain.
//!
//! Results are delivered as a structured [`WcetReport`] with an
//! aiT-style text rendering ([`WcetReport::render`]), machine-readable
//! JSON ([`WcetReport::to_json`]), and an annotated control-flow graph
//! in DOT format ([`WcetReport::to_dot`]) standing in for the aiSee
//! visualization.
//!
//! # Example
//!
//! ```
//! use stamp_isa::asm::assemble;
//! use stamp_core::WcetAnalysis;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     ".text\nmain: li r1, 10\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n",
//! )?;
//! let report = WcetAnalysis::new(&program).run()?;
//! assert!(report.wcet > 0);
//! println!("{}", report.render(&program));
//! # Ok(())
//! # }
//! ```

mod analyzer;
mod annot;
mod artifact;
mod batch;
mod error;
mod fingerprint;
mod json;
mod phase;
mod report;
mod stack_tool;
mod store_disk;

pub use analyzer::{AnalysisConfig, PhaseArtifacts, WcetAnalysis};
pub use annot::Annotations;
pub use artifact::{ArtifactStats, ArtifactStore, PhaseStat};
pub use batch::{
    run_batch, run_batch_deadline, run_batch_with, run_job_guarded, BatchError, BatchJob,
    BatchReport, BatchRequest, BatchTarget, BatchVariant, JobOutcome, JobResult, SampleParams,
};
pub use error::AnalysisError;
pub use fingerprint::{Fingerprint, Fp};
pub use json::{Json, JsonParseError};
pub use phase::{plan_job, PhaseId, PhaseRequest};
pub use report::{PhaseStats, WcetReport};
pub use stack_tool::{StackAnalysis, StackReport};
