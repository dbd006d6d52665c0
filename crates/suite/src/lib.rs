//! # stamp-suite — the evaluation workload corpus and fuzz engine
//!
//! EVA32 benchmark tasks modeled on the Mälardalen WCET suite (the de
//! facto workload set for WCET tools, matching the "embedded control
//! software" the paper targets), plus the differential testing stack:
//! a scenario-rich random-program generator ([`generate`]), the shared
//! soundness [`oracle`], the [`fuzz`] campaign driver behind
//! `stamp fuzz`, and the [`shrink`] delta-debugging counterexample
//! minimizer. The corpus's analysis results are pinned in [`pins`].
//!
//! Every [`Benchmark`] carries the annotations it needs (bounds for
//! data-dependent loops, recursion depths) and an optional input region
//! that the experiment harness randomizes between simulator runs — the
//! analyses never see the inputs, exactly as in the paper's setting
//! ("results … valid for every program run and all inputs").
//!
//! # Example
//!
//! ```
//! use stamp_suite::benchmarks;
//!
//! let all = benchmarks();
//! assert!(all.len() >= 10);
//! let fib = all.iter().find(|b| b.name == "fibcall").unwrap();
//! let program = fib.program();
//! assert!(program.insn_count() > 0);
//! ```

pub mod fuzz;
mod gen;
pub mod manifest;
pub mod oracle;
pub mod pins;
pub mod plan;
mod programs;
pub mod shrink;

pub use gen::{generate, GenConfig};
pub use manifest::{corpus_matrix, corpus_request, parse_manifest, ManifestError};
pub use plan::{describe_config, plan, BatchPlan, JobPlan, PhasePlan};
pub use programs::benchmarks;

use rand::Rng;
use stamp_core::Annotations;
use stamp_hw::HwConfig;
use stamp_isa::asm::assemble;
use stamp_isa::Program;
use stamp_sim::{RunStatus, Simulator};

/// A benchmark task: source, annotations and input specification.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Short name (Mälardalen-style).
    pub name: &'static str,
    /// What the task computes and which analysis features it exercises.
    pub description: &'static str,
    /// EVA32 assembly source.
    pub source: &'static str,
    /// Loop-bound annotations `(header symbol, bound)` for loops the
    /// automatic analysis cannot bound.
    pub loop_annotations: &'static [(&'static str, u64)],
    /// Recursion-depth annotations `(function symbol, depth)`.
    pub recursion: &'static [(&'static str, u32)],
    /// Input region randomized between simulator runs:
    /// `(symbol, length in bytes)`.
    pub input: Option<(&'static str, u32)>,
    /// Simulator instruction budget.
    pub max_insns: u64,
    /// `false` for recursive tasks: only the stack analysis applies
    /// (the WCET analyses reject recursion, as aiT does without
    /// annotations).
    pub supports_wcet: bool,
}

impl Benchmark {
    /// Assembles the benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the source does not assemble (covered by tests).
    pub fn program(&self) -> Program {
        assemble(self.source)
            .unwrap_or_else(|e| panic!("benchmark {} does not assemble: {e}", self.name))
    }

    /// The benchmark's annotations.
    pub fn annotations(&self) -> Annotations {
        let mut a = Annotations::new();
        for &(sym, bound) in self.loop_annotations {
            a = a.loop_bound(sym, bound);
        }
        for &(sym, depth) in self.recursion {
            a = a.recursion_depth(sym, depth);
        }
        a
    }

    /// Runs the benchmark once on random inputs, returning observed
    /// cycles and maximum stack usage.
    ///
    /// # Panics
    ///
    /// Panics if the program faults or fails to halt within its budget —
    /// benchmarks are written to always terminate.
    pub fn simulate_once(
        &self,
        program: &Program,
        hw: &HwConfig,
        rng: &mut impl Rng,
    ) -> (u64, u32) {
        let mut sim = Simulator::new(program, hw);
        if let Some((sym, len)) = self.input {
            let addr = program
                .symbols
                .addr_of(sym)
                .unwrap_or_else(|| panic!("benchmark {} lacks symbol {sym}", self.name));
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            sim.write_ram(addr, &bytes);
        }
        let res = sim
            .run(self.max_insns)
            .unwrap_or_else(|e| panic!("benchmark {} faulted: {e}", self.name));
        assert_eq!(
            res.status,
            RunStatus::Halted,
            "benchmark {} did not halt within {} instructions",
            self.name,
            self.max_insns
        );
        (res.cycles, res.max_stack)
    }

    /// The worst observed cycles and stack over `runs` random-input
    /// simulations (the measurement baseline of experiment E1/E2).
    pub fn worst_observed(
        &self,
        program: &Program,
        hw: &HwConfig,
        runs: usize,
        rng: &mut impl Rng,
    ) -> (u64, u32) {
        let mut worst = (0u64, 0u32);
        let mut try_run = |bytes: Option<Vec<u8>>| {
            let mut sim = Simulator::new(program, hw);
            if let (Some((sym, _)), Some(bytes)) = (self.input, bytes) {
                let addr = program.symbols.addr_of(sym).expect("input symbol");
                sim.write_ram(addr, &bytes);
            }
            let res = sim.run(self.max_insns).expect("benchmark faulted");
            assert_eq!(res.status, RunStatus::Halted, "{} did not halt", self.name);
            worst.0 = worst.0.max(res.cycles);
            worst.1 = worst.1.max(res.max_stack);
        };
        match self.input {
            None => try_run(None),
            Some((_, len)) => {
                for _ in 0..runs.max(1) {
                    let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                    try_run(Some(bytes));
                }
                // Adversarial patterns: as the paper notes, "even repeated
                // measurements cannot guarantee that the maximum … is ever
                // observed"; these sharpen the baseline for sorts and
                // searches (descending input, missing keys, …).
                let words = (len / 4).max(1);
                let descending: Vec<u8> = (0..words)
                    .flat_map(|i| 0x7fff_ff00u32.wrapping_sub(i * 17).to_le_bytes())
                    .take(len as usize)
                    .collect();
                let ascending: Vec<u8> = (0..words)
                    .flat_map(|i| (i * 13 + 1).to_le_bytes())
                    .take(len as usize)
                    .collect();
                try_run(Some(descending));
                try_run(Some(ascending));
                try_run(Some(vec![0u8; len as usize]));
                try_run(Some(vec![0xffu8; len as usize]));
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_benchmark_assembles_and_halts() {
        let hw = HwConfig::default();
        let mut rng = StdRng::seed_from_u64(7);
        for b in benchmarks() {
            let p = b.program();
            let (cycles, _stack) = b.simulate_once(&p, &hw, &mut rng);
            assert!(cycles > 0, "{} ran for zero cycles", b.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = benchmarks().iter().map(|b| b.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn inputs_change_behaviour_where_expected() {
        // Benchmarks with data-dependent *trip counts* (insertsort, bs)
        // or arms of different latency (switchcase) must show timing
        // variation across inputs. (Others like bsort are genuinely
        // time-constant here: the swap arm's two extra stores cost
        // exactly the taken-branch penalty of the no-swap arm.)
        let hw = HwConfig::default();
        for name in ["insertsort", "bs", "switchcase"] {
            let b = benchmarks().into_iter().find(|b| b.name == name).unwrap();
            let p = b.program();
            let mut rng = StdRng::seed_from_u64(1);
            let (c1, _) = b.simulate_once(&p, &hw, &mut rng);
            let mut any_different = false;
            for seed in 2..12 {
                let mut rng = StdRng::seed_from_u64(seed);
                let (c, _) = b.simulate_once(&p, &hw, &mut rng);
                if c != c1 {
                    any_different = true;
                    break;
                }
            }
            assert!(any_different, "{name} seems input-independent");
        }
    }
}
