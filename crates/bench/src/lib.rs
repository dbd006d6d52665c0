//! # stamp_bench — the evaluation harness
//!
//! Shared machinery for the experiment tables (`src/bin/experiments.rs`)
//! and the pinned corpus results ([`pins`]). Timing lives in the
//! repository benchmark (`BENCHMARK.json`, run by `stampbench/`).
//!
//! The experiment index lives in DESIGN.md: each table/figure E1–E10
//! reproduces one quantitative claim of the paper. Run
//!
//! ```sh
//! cargo run -p stamp_bench --release --bin experiments
//! ```
//!
//! to regenerate all of them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stamp_core::{AnalysisConfig, WcetAnalysis, WcetReport};
use stamp_hw::HwConfig;
use stamp_suite::Benchmark;

pub mod pins;

/// Runs the full WCET pipeline on a benchmark under `config`.
///
/// # Panics
///
/// Panics when the analysis fails — experiment tables treat failures as
/// reportable results and should use [`try_analyze`] instead.
pub fn analyze(bench: &Benchmark, config: AnalysisConfig) -> WcetReport {
    try_analyze(bench, config).unwrap_or_else(|e| panic!("{}: {e}", bench.name))
}

/// Runs the full WCET pipeline, returning analysis errors (used by the
/// ablation tables where weaker domains legitimately fail).
pub fn try_analyze(
    bench: &Benchmark,
    config: AnalysisConfig,
) -> Result<WcetReport, stamp_core::AnalysisError> {
    let program = bench.program();
    WcetAnalysis::new(&program).config(config).annotations(bench.annotations()).run()
}

/// Worst observed cycles/stack over `runs` random runs plus adversarial
/// patterns, with a fixed seed for reproducibility.
pub fn observed(bench: &Benchmark, hw: &HwConfig, runs: usize, seed: u64) -> (u64, u32) {
    let program = bench.program();
    let mut rng = StdRng::seed_from_u64(seed);
    bench.worst_observed(&program, hw, runs, &mut rng)
}

/// Formats a ratio as e.g. `1.27x`.
pub fn ratio(bound: u64, observed: u64) -> String {
    if observed == 0 {
        "-".to_string()
    } else {
        format!("{:.2}x", bound as f64 / observed as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_suite::benchmarks;

    #[test]
    fn harness_runs_one_benchmark() {
        let b = benchmarks().into_iter().find(|b| b.name == "fibcall").unwrap();
        let report = analyze(&b, AnalysisConfig::default());
        let (obs, _) = observed(&b, &HwConfig::default(), 3, 1);
        assert!(report.wcet >= obs);
        assert_eq!(ratio(10, 5), "2.00x");
        assert_eq!(ratio(10, 0), "-");
    }
}
