//! # stamp-pipeline — pipeline analysis
//!
//! Implements the paper's pipeline phase: "pipeline analysis predicts the
//! behavior of the program on the processor pipeline", consuming the
//! cache classifications ("the results of cache analysis are used within
//! pipeline analysis, allowing the prediction of pipeline stalls due to
//! cache misses").
//!
//! The EVA32 pipeline's only *cross-instruction* state is the load-use
//! hazard window: whether the previously retired instruction was a load,
//! and into which register. Because this crosses basic-block boundaries,
//! the analysis tracks — exactly as aiT does — **sets of abstract
//! pipeline states** at block boundaries ([`PipeSet`]) and computes, per
//! `(block, context)`, a cycle bound valid for *every* incoming pipeline
//! state ([`PipelineAnalysis::time`]), kept by the node's last
//! evaluation, which sees its final input. Only nodes the solver never
//! reaches are walked afterwards, over all pipeline states.
//!
//! Taken-branch penalties are attributed to supergraph *edges*, so that
//! they are charged only on taken transitions, mirroring the hardware
//! model in `stamp-hw` cycle for cycle. Each edge's IPET objective
//! coefficient ([`PipelineAnalysis::edge_cost`]: target time plus
//! penalty) is computed once here; the path analysis maximizes those
//! coefficients and the path sampler sums them.

mod analysis;
mod state;

pub use analysis::PipelineAnalysis;
pub use state::{PipeSet, PipeState};
