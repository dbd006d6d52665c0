//! # stamp-stack — StackAnalyzer: worst-case stack usage
//!
//! Implements §2 of the paper. "By concentrating on the value of the
//! stack pointer during value analysis, the tool can figure out how the
//! stack increases and decreases along the various control-flow paths" —
//! yielding a per-task worst-case stack bound that neither under-estimates
//! (stack overflow) nor grossly over-estimates (wasted RAM).
//!
//! Two analysis modes are provided:
//!
//! * [`analyze_icfg`] — the precise mode: reads the stack extent the
//!   value analysis records during its own pass over the
//!   context-expanded supergraph (the minimum possible `sp` after any
//!   instruction, [`stamp_value::StackExtent`]). Nothing is re-walked
//!   here. Exact for non-recursive tasks.
//! * [`analyze_callgraph`] — the compositional mode: per-function frame
//!   effects plus a longest-path traversal of the call graph, with
//!   user-annotated recursion depths (recursion is rejected otherwise,
//!   as in the commercial tool).
//!
//! The whole-ECU analysis of ref \[3\] (OSEK/VDX systems) is in
//! [`OsekSystem`]: given per-task bounds and priorities it computes the
//! worst-case *system* stack over all admissible preemption chains,
//! which is what the single shared stack of an OSEK BCC1 system must
//! accommodate.

mod callgraph;
mod icfg_mode;
mod osek;

pub use callgraph::{analyze_callgraph, FunctionStack};
pub use icfg_mode::analyze_icfg;
pub use osek::{OsekSystem, Task};

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors from the stack analyses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StackError {
    /// The stack pointer could not be tracked at an instruction (e.g. it
    /// was computed from unknown data).
    UnknownStackPointer {
        /// Address of the offending instruction.
        addr: u32,
    },
    /// A recursive cycle without a depth annotation.
    Recursion {
        /// Name of a function in the cycle.
        function: String,
    },
    /// The program modifies `sp` by a non-constant amount.
    VariableAdjustment {
        /// Address of the offending instruction.
        addr: u32,
    },
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::UnknownStackPointer { addr } => {
                write!(f, "stack pointer unknown at {addr:#010x}")
            }
            StackError::Recursion { function } => {
                write!(f, "recursion through `{function}` needs a depth annotation")
            }
            StackError::VariableAdjustment { addr } => {
                write!(f, "non-constant stack adjustment at {addr:#010x}")
            }
        }
    }
}

impl Error for StackError {}

/// Options for the stack analyses.
#[derive(Clone, Debug, Default)]
pub struct StackOptions {
    /// Maximum recursion depth per function entry address (callgraph
    /// mode only).
    pub recursion_depths: BTreeMap<u32, u32>,
}

/// Result of a per-task stack analysis.
#[derive(Clone, Debug)]
pub struct StackResult {
    /// Worst-case stack usage of the task, in bytes.
    pub total: u32,
    /// Per-function breakdown (callgraph mode; the ICFG mode reports
    /// only the total).
    pub per_function: BTreeMap<String, FunctionStack>,
}
