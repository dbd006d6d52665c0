//! Inert names kept only because `stampbench/src/trace.rs` still calls
//! them; no analysis reads them.

use stamp_ai::Icfg;
use stamp_cfg::Cfg;
use stamp_hw::HwConfig;
use stamp_value::ValueAnalysis;

use crate::CacheAnalysis;

/// Exists only so `stampbench` builds; holds nothing.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct LocalUarchMemo;

/// Exists only so `stampbench` builds; never constructed.
#[doc(hidden)]
#[derive(Debug)]
pub struct UarchSummaryStats {
    pub reused: usize,
}

impl CacheAnalysis {
    /// Exists only so `stampbench` builds; always `None`, so
    /// callers fall back to [`CacheAnalysis::run`].
    #[doc(hidden)]
    pub fn run_summarized(
        _hw: &HwConfig,
        _cfg: &Cfg,
        _icfg: &Icfg,
        _va: &ValueAnalysis,
        _memo: &mut LocalUarchMemo,
    ) -> Option<(CacheAnalysis, UarchSummaryStats)> {
        None
    }
}
