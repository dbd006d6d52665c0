//! The differential soundness oracle shared by the property tests and
//! the fuzz campaign (`stamp fuzz`).
//!
//! The paper's central claim is that the statically derived bounds are
//! *sound*: no execution, on any input, exceeds them. The repo holds
//! both sides of that claim — the abstract analyses and the
//! cycle-accurate simulator read the same [`HwConfig`] — so the claim
//! is directly testable. [`check`] runs one program through both sides
//! and compares:
//!
//! * **timing** — simulated cycles never exceed the WCET bound;
//! * **memory** — the simulated stack watermark never exceeds the
//!   stack bound;
//! * **values** — every concrete register at the halt site is contained
//!   in some abstract exit state of the halt block (joined over VIVU
//!   contexts);
//! * **termination** — the simulation halts within its instruction
//!   budget and without faulting (the analyses only accept programs
//!   they can prove terminating, so a hang or fault contradicts them);
//! * **sampling** — the probabilistic path sampler's observed maximum
//!   over `samples` seed-pinned iCFG walks never exceeds the ILP
//!   bound (every sampled path is a feasible point of the ILP, so its
//!   cost is bounded by the ILP optimum — see `stamp_sample`).
//!
//! Any discrepancy is a [`Violation`]; the fuzz campaign treats it as a
//! counterexample and hands it to the shrinker. A *failure of the
//! analysis itself* on a generated program is also a violation
//! ([`Violation::Analysis`]) — the generator guarantees analyzable
//! programs, so an analysis error means the generator contract or the
//! analyzer broke.
//!
//! [`FaultInjection`] deliberately mis-reports a bound or flags a
//! mnemonic so the campaign's detection and shrinking machinery can be
//! tested end to end against a harness that is *known* to be broken
//! (the fuzzing equivalent of mutation testing).

use rand::Rng;
use stamp_core::{AnalysisConfig, Annotations, ArtifactStore, PhaseArtifacts, WcetAnalysis};
use stamp_hw::HwConfig;
use stamp_isa::{Program, Reg};
use stamp_sim::{RunStatus, Simulator};
use stamp_value::ValueOptions;

/// Configuration of one oracle run.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// The hardware model, shared verbatim by analyses and simulator.
    pub hw: HwConfig,
    /// Value-analysis options under test.
    pub value: ValueOptions,
    /// Random-input simulation rounds (programs without an input region
    /// run exactly once — they are input-independent).
    pub rounds: usize,
    /// Append the adversarial input patterns (descending / ascending /
    /// all-zero / all-ones) after the random rounds. Sharpens the
    /// observed worst case for sorts and searches.
    pub adversarial: bool,
    /// Check concrete registers against abstract exit states at halt.
    pub check_values: bool,
    /// Run the WCET analysis (`false` for recursive, stack-only tasks).
    pub wcet: bool,
    /// Simulator instruction budget per round.
    pub max_insns: u64,
    /// Probabilistic path-sampling walks per program (seed-pinned to 0
    /// so the check is deterministic); `0` skips the sampling leg.
    pub samples: usize,
    /// Deliberate oracle corruption, for testing the detection and
    /// shrinking machinery itself. `None` in every real campaign.
    pub fault: Option<FaultInjection>,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            hw: HwConfig::default(),
            value: ValueOptions::default(),
            rounds: 3,
            adversarial: false,
            check_values: true,
            wcet: true,
            max_insns: 5_000_000,
            samples: 32,
            fault: None,
        }
    }
}

/// A deliberately broken oracle, used to validate the fuzz harness:
/// each variant makes the oracle report violations that the true
/// analyses never produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultInjection {
    /// Report only `percent`% of the true WCET bound, so sufficiently
    /// tight programs appear to overrun it.
    TightenWcet(u64),
    /// Report only `percent`% of the true stack bound.
    TightenStack(u64),
    /// Compare the sampler's observed maximum against only `percent`%
    /// of the true WCET bound, so the sampling leg reports a (fake)
    /// soundness violation. Independent of [`TightenWcet`], which only
    /// tightens the bound the *simulator* is compared against — the
    /// two legs are testable in isolation.
    ///
    /// [`TightenWcet`]: FaultInjection::TightenWcet
    TightenSample(u64),
    /// Report a violation whenever the program contains this mnemonic
    /// (a predicate fault with a crisp minimal reproducer, ideal for
    /// exercising the shrinker).
    FlagMnemonic(String),
}

/// A soundness violation: the simulator contradicted an analysis (or,
/// for [`Violation::Analysis`], an analysis failed on a program the
/// generator guarantees analyzable).
#[derive(Clone, Debug)]
pub enum Violation {
    /// An analysis stage failed outright.
    Analysis {
        /// Which stage (`"wcet"`, `"stack"`, `"input"`).
        stage: &'static str,
        /// The analysis error.
        message: String,
    },
    /// The simulator faulted (memory error, illegal instruction) on a
    /// program the analyses accepted as fault-free.
    SimFault {
        /// Input round of the fault.
        round: usize,
        /// The simulator error.
        message: String,
    },
    /// The simulation did not halt within its instruction budget,
    /// contradicting the termination argument behind the WCET bound.
    NoHalt {
        /// Input round.
        round: usize,
        /// The exhausted instruction budget.
        budget: u64,
    },
    /// Simulated cycles exceeded the WCET bound.
    WcetExceeded {
        /// Input round.
        round: usize,
        /// Simulated cycles.
        observed: u64,
        /// The (possibly fault-tightened) static bound.
        bound: u64,
    },
    /// The path sampler's observed maximum exceeded the WCET bound —
    /// a feasible ILP point costlier than the claimed ILP optimum.
    SampleExceeded {
        /// Completed sampled walks behind the observation.
        samples: usize,
        /// The costliest sampled path, in cycles.
        observed: u64,
        /// The (possibly fault-tightened) static bound.
        bound: u64,
    },
    /// Simulated stack watermark exceeded the stack bound.
    StackExceeded {
        /// Input round.
        round: usize,
        /// Simulated watermark in bytes.
        observed: u32,
        /// The (possibly fault-tightened) static bound.
        bound: u32,
    },
    /// A concrete register at halt lies outside every abstract exit
    /// state of the halt block.
    ValueEscape {
        /// Input round.
        round: usize,
        /// Register name.
        reg: String,
        /// The concrete value.
        value: u32,
    },
    /// A [`FaultInjection::FlagMnemonic`] predicate fired.
    Injected {
        /// The flagged mnemonic.
        mnemonic: String,
    },
}

impl Violation {
    /// Short machine-readable kind, stable across releases (used in
    /// fuzz reports and for "same failure" matching during shrinking).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Analysis { .. } => "analysis",
            Violation::SimFault { .. } => "sim-fault",
            Violation::NoHalt { .. } => "no-halt",
            Violation::WcetExceeded { .. } => "wcet",
            Violation::SampleExceeded { .. } => "sample",
            Violation::StackExceeded { .. } => "stack",
            Violation::ValueEscape { .. } => "value",
            Violation::Injected { .. } => "injected",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Analysis { stage, message } => {
                write!(f, "{stage} analysis failed: {message}")
            }
            Violation::SimFault { round, message } => {
                write!(f, "round {round}: simulator fault: {message}")
            }
            Violation::NoHalt { round, budget } => write!(
                f,
                "round {round}: no halt within {budget} instructions (analysis claims termination)"
            ),
            Violation::WcetExceeded { round, observed, bound } => write!(
                f,
                "round {round}: UNSOUND WCET — simulated {observed} cycles > bound {bound}"
            ),
            Violation::SampleExceeded { samples, observed, bound } => write!(
                f,
                "UNSOUND sampling — costliest of {samples} sampled paths is {observed} cycles \
                 > bound {bound}"
            ),
            Violation::StackExceeded { round, observed, bound } => write!(
                f,
                "round {round}: UNSOUND stack — simulated {observed} bytes > bound {bound}"
            ),
            Violation::ValueEscape { round, reg, value } => write!(
                f,
                "round {round}: UNSOUND value — register {reg} = {value:#x} outside every \
                 abstract exit state"
            ),
            Violation::Injected { mnemonic } => {
                write!(f, "injected fault: program contains `{mnemonic}`")
            }
        }
    }
}

/// What a passing oracle run observed — the raw material for tightness
/// assertions (`bound ≤ 2 × observed`) and throughput accounting.
#[derive(Clone, Copy, Debug)]
pub struct OracleReport {
    /// The WCET bound (`None` when the WCET analysis was skipped).
    pub wcet: Option<u64>,
    /// The stack bound in bytes.
    pub stack_bound: u32,
    /// Worst simulated cycles over all rounds.
    pub worst_cycles: u64,
    /// Worst simulated stack watermark over all rounds.
    pub worst_stack: u32,
    /// Total cycles simulated (all rounds).
    pub total_cycles: u64,
    /// Simulation rounds executed.
    pub rounds: usize,
    /// The sampler's observed maximum (`None` when the sampling leg
    /// was skipped or no walk completed).
    pub sampled_max: Option<u64>,
    /// Completed sampled walks.
    pub sampled_paths: usize,
}

/// `true` when any decoded instruction's mnemonic equals `mnemonic`.
fn contains_mnemonic(program: &Program, mnemonic: &str) -> bool {
    let (lo, hi) = program.text_range();
    (lo..hi).step_by(4).any(|addr| {
        program
            .decode_at(addr)
            .ok()
            .and_then(|insn| insn.to_string().split_whitespace().next().map(str::to_string))
            .is_some_and(|m| m == mnemonic)
    })
}

/// Runs the full differential oracle on one program: analyses first,
/// then `cfg.rounds` randomized simulations (plus adversarial patterns
/// when enabled), comparing every observation against the bounds.
///
/// `input` names the RAM region randomized between rounds (symbol and
/// length in bytes); `None` runs a single input-independent round.
/// Inputs are drawn from `rng`, so a seeded rng makes the whole check
/// deterministic — the property the fuzz campaign's byte-identical
/// reports rest on.
///
/// # Errors
///
/// The first [`Violation`] found, boxed (violations carry full context
/// and are large; passing runs stay cheap).
pub fn check(
    program: &Program,
    annotations: &Annotations,
    input: Option<(&str, u32)>,
    cfg: &OracleConfig,
    rng: &mut impl Rng,
) -> Result<OracleReport, Box<Violation>> {
    if let Some(FaultInjection::FlagMnemonic(m)) = &cfg.fault {
        if contains_mnemonic(program, m) {
            return Err(Box::new(Violation::Injected { mnemonic: m.clone() }));
        }
    }

    // ---- The static side: both bounds from one value analysis, plus
    // the full phase artifacts.
    let verdict = WcetAnalysis::new(program)
        .config(AnalysisConfig { hw: cfg.hw, value: cfg.value.clone(), ..Default::default() })
        .annotations(annotations.clone())
        .run_verdict(&ArtifactStore::disabled(), cfg.wcet);
    let (wcet_bound, artifacts) = verdict
        .wcet
        .transpose()
        .map_err(|e| Violation::Analysis { stage: "wcet", message: e.to_string() })?
        .map(|(report, artifacts)| (report.wcet, artifacts))
        .unzip();
    let stack_bound = verdict
        .stack
        .map_err(|e| Violation::Analysis { stage: "stack", message: e.to_string() })?
        .bound;

    let raw_wcet = wcet_bound;
    let wcet_bound = match (&cfg.fault, wcet_bound) {
        (Some(FaultInjection::TightenWcet(percent)), Some(b)) => Some(b * percent / 100),
        _ => wcet_bound,
    };
    let stack_bound = match &cfg.fault {
        Some(FaultInjection::TightenStack(percent)) => (stack_bound as u64 * percent / 100) as u32,
        _ => stack_bound,
    };

    // ---- The sampling leg: the sampler's observed maximum is a lower
    // bound on the true worst case, so it must stay under the ILP
    // optimum. Compared against the raw bound (tightened only by
    // `TightenSample`), so `TightenWcet` self-tests keep exercising
    // the *simulator* leg alone.
    let mut sampled_max = None;
    let mut sampled_paths = 0;
    if cfg.samples > 0 {
        if let (Some(arts), Some(bound)) = (&artifacts, raw_wcet) {
            let bound = match &cfg.fault {
                Some(FaultInjection::TightenSample(percent)) => bound * percent / 100,
                _ => bound,
            };
            let options = stamp_sample::SampleOptions {
                samples: cfg.samples,
                seed: 0,
                ..stamp_sample::SampleOptions::default()
            };
            let summary = stamp_sample::sample_paths(
                &arts.cfg, &arts.icfg, &arts.va, &arts.lb, &arts.pa, &options,
            );
            if let Some(observed) = summary.observed_max {
                if observed > bound {
                    return Err(Box::new(Violation::SampleExceeded {
                        samples: summary.completed,
                        observed,
                        bound,
                    }));
                }
            }
            sampled_max = summary.observed_max;
            sampled_paths = summary.completed;
        }
    }

    // ---- The input plan: random rounds, then adversarial patterns.
    let input_region = match input {
        None => None,
        Some((sym, len)) => {
            let addr = program.symbols.addr_of(sym).ok_or_else(|| Violation::Analysis {
                stage: "input",
                message: format!("input symbol `{sym}` not found"),
            })?;
            Some((addr, len))
        }
    };
    let inputs: Vec<Option<Vec<u8>>> = match input_region {
        None => vec![None],
        Some((_, len)) => {
            let mut plan: Vec<Option<Vec<u8>>> = (0..cfg.rounds.max(1))
                .map(|_| Some((0..len).map(|_| rng.gen()).collect()))
                .collect();
            if cfg.adversarial {
                let words = (len / 4).max(1);
                let descending: Vec<u8> = (0..words)
                    .flat_map(|i| 0x7fff_ff00u32.wrapping_sub(i * 17).to_le_bytes())
                    .take(len as usize)
                    .collect();
                let ascending: Vec<u8> = (0..words)
                    .flat_map(|i| (i * 13 + 1).to_le_bytes())
                    .take(len as usize)
                    .collect();
                plan.push(Some(descending));
                plan.push(Some(ascending));
                plan.push(Some(vec![0u8; len as usize]));
                plan.push(Some(vec![0xffu8; len as usize]));
            }
            plan
        }
    };

    // ---- The dynamic side: simulate and compare.
    let mut report = OracleReport {
        wcet: wcet_bound,
        stack_bound,
        worst_cycles: 0,
        worst_stack: 0,
        total_cycles: 0,
        rounds: inputs.len(),
        sampled_max,
        sampled_paths,
    };
    for (round, bytes) in inputs.into_iter().enumerate() {
        let mut sim = Simulator::new(program, &cfg.hw);
        if let (Some((addr, _)), Some(bytes)) = (input_region, &bytes) {
            sim.write_ram(addr, bytes);
        }
        let res = sim
            .run(cfg.max_insns)
            .map_err(|e| Violation::SimFault { round, message: e.to_string() })?;
        if res.status != RunStatus::Halted {
            return Err(Box::new(Violation::NoHalt { round, budget: cfg.max_insns }));
        }
        if let Some(bound) = wcet_bound {
            if res.cycles > bound {
                return Err(Box::new(Violation::WcetExceeded {
                    round,
                    observed: res.cycles,
                    bound,
                }));
            }
        }
        if res.max_stack > stack_bound {
            return Err(Box::new(Violation::StackExceeded {
                round,
                observed: res.max_stack,
                bound: stack_bound,
            }));
        }
        if cfg.check_values {
            if let Some(artifacts) = &artifacts {
                check_exit_values(&mut sim, artifacts, round)?;
            }
        }
        report.worst_cycles = report.worst_cycles.max(res.cycles);
        report.worst_stack = report.worst_stack.max(res.max_stack);
        report.total_cycles += res.cycles;
    }
    Ok(report)
}

/// The value-containment leg: every concrete register at the halt site
/// must lie inside the abstract exit state of *some* VIVU context of
/// the halt block. The simulator stops only on `halt`, which ends its
/// block, so these nodes are task exits, whose states the value
/// analysis keeps.
fn check_exit_values(
    sim: &mut Simulator,
    artifacts: &PhaseArtifacts,
    round: usize,
) -> Result<(), Box<Violation>> {
    let halt_block = artifacts.cfg.block_containing(sim.pc()).ok_or_else(|| {
        Box::new(Violation::ValueEscape { round, reg: "pc".to_string(), value: sim.pc() })
    })?;
    for r in Reg::all() {
        let concrete = sim.reg(r);
        let contained = artifacts
            .icfg
            .nodes_of_block(halt_block)
            .iter()
            .any(|&n| artifacts.va.exit_state(n).is_some_and(|s| s.reg(r).contains(concrete)));
        if !contained {
            return Err(Box::new(Violation::ValueEscape {
                round,
                reg: r.to_string(),
                value: concrete,
            }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stamp_isa::asm::assemble;

    fn generated(seed: u64, cfg: &GenConfig) -> Program {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = generate(&mut rng, cfg);
        assemble(&src).expect("generated code assembles")
    }

    #[test]
    fn clean_programs_pass_the_oracle() {
        let program = generated(1, &GenConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let report = check(
            &program,
            &Annotations::new(),
            Some(("scratch", 128)),
            &OracleConfig::default(),
            &mut rng,
        )
        .unwrap_or_else(|v| panic!("unexpected violation: {v}"));
        assert!(report.wcet.unwrap() >= report.worst_cycles);
        assert!(report.stack_bound >= report.worst_stack);
        assert_eq!(report.rounds, 3);
        assert!(report.sampled_paths > 0, "sampling leg must run by default");
        assert!(report.sampled_max.unwrap() <= report.wcet.unwrap());
    }

    #[test]
    fn tightened_sample_bound_is_detected_as_a_sample_violation() {
        let program = generated(2, &GenConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = OracleConfig {
            fault: Some(FaultInjection::TightenSample(1)),
            ..OracleConfig::default()
        };
        let v = check(&program, &Annotations::new(), Some(("scratch", 128)), &cfg, &mut rng)
            .expect_err("tightened sampling bound must be violated");
        assert_eq!(v.kind(), "sample", "{v}");
        assert!(v.to_string().contains("UNSOUND sampling"), "{v}");
    }

    #[test]
    fn sampling_leg_can_be_disabled() {
        let program = generated(2, &GenConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = OracleConfig {
            samples: 0,
            fault: Some(FaultInjection::TightenSample(1)),
            ..OracleConfig::default()
        };
        let report = check(&program, &Annotations::new(), Some(("scratch", 128)), &cfg, &mut rng)
            .unwrap_or_else(|v| panic!("unexpected violation: {v}"));
        assert_eq!(report.sampled_paths, 0);
        assert_eq!(report.sampled_max, None);
    }

    #[test]
    fn tightened_wcet_bound_is_detected() {
        // With the bound cut to 1% any non-trivial program overruns it.
        let program = generated(2, &GenConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let cfg =
            OracleConfig { fault: Some(FaultInjection::TightenWcet(1)), ..OracleConfig::default() };
        let v = check(&program, &Annotations::new(), Some(("scratch", 128)), &cfg, &mut rng)
            .expect_err("tightened bound must be violated");
        assert_eq!(v.kind(), "wcet", "{v}");
    }

    #[test]
    fn flagged_mnemonic_is_detected_and_named() {
        // Seed 1's default program contains a division (as almost all
        // do: each statement is a div with probability 1/10).
        let program = generated(1, &GenConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = OracleConfig {
            fault: Some(FaultInjection::FlagMnemonic("div".to_string())),
            ..OracleConfig::default()
        };
        let v = check(&program, &Annotations::new(), Some(("scratch", 128)), &cfg, &mut rng)
            .expect_err("flagged mnemonic must fire");
        assert_eq!(v.kind(), "injected");
        assert!(v.to_string().contains("div"), "{v}");
    }

    #[test]
    fn oracle_is_deterministic_for_a_fixed_rng_seed() {
        let program = generated(3, &GenConfig::rich());
        let run = || {
            let mut rng = StdRng::seed_from_u64(33);
            check(
                &program,
                &Annotations::new(),
                Some(("scratch", 256)),
                &OracleConfig::default(),
                &mut rng,
            )
            .map(|r| (r.worst_cycles, r.worst_stack, r.total_cycles))
            .map_err(|v| v.to_string())
        };
        assert_eq!(run(), run());
    }
}
