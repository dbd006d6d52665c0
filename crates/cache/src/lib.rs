//! # stamp-cache — cache analysis by abstract interpretation
//!
//! Implements the paper's cache-analysis phase: "cache analysis
//! classifies memory references as cache misses or hits", using the
//! must/may/persistence abstract domains of Ferdinand's LRU cache
//! analysis (the basis of aiT's cache phase).
//!
//! * **Must cache** ([`MustCache`]): upper bounds on LRU ages; a line
//!   present here is cached in *every* execution → **always hit**.
//! * **May cache** ([`MayCache`]): lower bounds on ages over the union of
//!   executions; a line absent here is cached in *no* execution →
//!   **always miss**.
//! * **Persistence** ([`PersCache`]): saturating age bounds that never
//!   forget a loaded line; a line that stays below associativity is
//!   loaded at most once → **persistent** (first access may miss, all
//!   later ones hit).
//!
//! Instruction fetches are classified from the instruction addresses
//! alone; data accesses take their *address ranges from the value
//! analysis* — exactly the dependency the paper describes ("Cache
//! analysis uses the results of value analysis to predict the behavior
//! of the (data) cache").
//!
//! Each evaluation of a node classifies the node's fetches and loads in
//! the state just before each one, overwriting the node's earlier
//! record. The solver evaluates every reached node last on its final
//! input, so the records left after the fixpoint are the final
//! classifications, and nothing re-walks the fixpoint to collect them.
//!
//! Because the analysis runs per VIVU context, the first-iteration
//! contexts absorb the cold-cache misses and the steady-state contexts
//! typically classify as always-hit; this is how "miss once, then hit"
//! becomes visible to the pipeline analysis without explicit persistence
//! constraints in the ILP.
//!
//! # Example
//!
//! ```
//! use stamp_isa::asm::assemble;
//! use stamp_cfg::CfgBuilder;
//! use stamp_ai::{Icfg, VivuConfig};
//! use stamp_hw::HwConfig;
//! use stamp_value::{ValueAnalysis, ValueOptions};
//! use stamp_cache::{CacheAnalysis, Classification};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = assemble(".text\nmain: li r1, 4\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n")?;
//! let hw = HwConfig::default();
//! let cfg = CfgBuilder::new(&p).build()?;
//! let icfg = Icfg::build(&cfg, &VivuConfig::default())?;
//! let va = ValueAnalysis::run(&p, &hw, &cfg, &icfg, &ValueOptions::default());
//! let ca = CacheAnalysis::run(&hw, &cfg, &icfg, &va);
//! // In the steady-state loop context the fetch always hits.
//! let stats = ca.fetch_stats();
//! assert!(stats.hit > 0);
//! # Ok(())
//! # }
//! ```

mod absdom;
mod analysis;
mod compat;
#[cfg(test)]
mod refdom;

pub use absdom::{MayCache, MustCache, PersCache};
pub use analysis::{AccessClass, CacheAnalysis, CacheState, ClassStats, Classification};
#[doc(hidden)]
pub use compat::{LocalUarchMemo, UarchSummaryStats};
