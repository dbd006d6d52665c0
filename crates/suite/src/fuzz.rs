//! The differential fuzz campaign behind `stamp fuzz`.
//!
//! A campaign fans `iterations` jobs across the [`stamp_exec::Pool`]:
//! each job derives its own seed from the campaign seed, draws a
//! program **shape** (legacy / deep-loops / call-chain / branchy /
//! rich — the scenario space of [`GenConfig`]), generates a program,
//! and runs the full differential [`oracle`] under the
//! job's (HwConfig × ValueOptions) variant. Violations are minimized
//! by the [`shrink`] delta debugger and persisted as
//! ready-to-commit reproducer files.
//!
//! # Determinism
//!
//! The campaign inherits the batch engine's headline invariant: the
//! deterministic report ([`FuzzReport::results_json`]) is
//! **byte-identical** across worker counts and runs. Everything in it
//! is a pure function of `(FuzzConfig, campaign seed)` — job seeds are
//! derived (never drawn from shared state), inputs come from per-job
//! rngs, the shrinker is deterministic, and results merge in job
//! order. Wall times, worker counts and reproducer paths live in the
//! timing layer ([`FuzzReport::to_json`]), exactly as in
//! `stamp batch`.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stamp_core::{Annotations, Json};
use stamp_exec::{Pool, PoolError};
use stamp_hw::HwConfig;
use stamp_isa::asm::assemble;
use stamp_value::ValueOptions;

use crate::oracle::{self, FaultInjection, OracleConfig};
use crate::shrink;
use crate::{generate, GenConfig};

/// One point of the hardware × analysis-options sweep.
#[derive(Clone, Debug)]
pub struct FuzzVariant {
    /// Short name used in job labels and reports.
    pub name: String,
    /// The hardware model, shared by analyses and simulator.
    pub hw: HwConfig,
    /// The value-analysis options under test.
    pub value: ValueOptions,
}

/// The built-in (HwConfig × ValueOptions) sweep: cache off / ideal /
/// small alongside the default, and widening-delay extremes — the
/// matrix the ISSUE's scenario coverage asks for. Jobs cycle through
/// these in order.
pub fn default_variants() -> Vec<FuzzVariant> {
    let v = |name: &str, hw: HwConfig, value: ValueOptions| FuzzVariant {
        name: name.to_string(),
        hw,
        value,
    };
    vec![
        v("default", HwConfig::default(), ValueOptions::default()),
        v("no-cache", HwConfig::no_cache(), ValueOptions::default()),
        v("ideal", HwConfig::ideal(), ValueOptions::default()),
        v("small-cache", HwConfig::with_cache_bytes(128), ValueOptions::default()),
        v(
            "widen-0",
            HwConfig::default(),
            ValueOptions { widen_delay: 0, ..ValueOptions::default() },
        ),
        v(
            "widen-6",
            HwConfig::no_cache(),
            ValueOptions { widen_delay: 6, ..ValueOptions::default() },
        ),
    ]
}

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of fuzz jobs (programs generated and checked).
    pub iterations: usize,
    /// Campaign seed; every job seed derives from it.
    pub seed: u64,
    /// Random-input simulation rounds per program.
    pub rounds: usize,
    /// Path-sampling walks per program for the oracle's sampling leg
    /// (observed-max ≤ ILP bound); `0` skips it.
    pub samples: usize,
    /// Minimize counterexamples with the delta debugger.
    pub shrink: bool,
    /// Evaluation budget per shrink (assemble + oracle runs).
    pub max_shrink_evals: usize,
    /// Deliberate oracle corruption (harness self-test); `None` in
    /// real campaigns.
    pub fault: Option<FaultInjection>,
    /// Where to persist reproducer files; `None` writes nothing.
    pub repro_dir: Option<PathBuf>,
    /// The (HwConfig × ValueOptions) sweep; jobs cycle through it.
    pub variants: Vec<FuzzVariant>,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            iterations: 256,
            seed: 0,
            rounds: 3,
            samples: 32,
            shrink: true,
            max_shrink_evals: 500,
            fault: None,
            repro_dir: None,
            variants: default_variants(),
        }
    }
}

/// A confirmed counterexample: the violation, the program that
/// produced it, and its minimized form.
#[derive(Clone, Debug)]
pub struct FuzzFinding {
    /// Job index within the campaign.
    pub job: usize,
    /// The job's derived seed (replays the exact program and inputs).
    pub seed: u64,
    /// Variant name.
    pub variant: String,
    /// Generator shape name.
    pub shape: String,
    /// Violation kind ([`crate::oracle::Violation::kind`]).
    pub kind: String,
    /// Human-readable violation description.
    pub message: String,
    /// Non-empty source lines of the original program.
    pub original_lines: usize,
    /// Non-empty source lines after shrinking (equals
    /// `original_lines` when shrinking is off or not applicable).
    pub shrunk_lines: usize,
    /// The minimized failing source.
    pub shrunk_source: String,
    /// Where the reproducer file was written (timing layer only — the
    /// path depends on `--repro-dir`, not on the failure).
    pub repro_path: Option<String>,
}

/// The merged campaign report: deterministic results plus the timing
/// envelope, in the established `results_json` / `to_json` split.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Campaign configuration echo (iterations, seed, rounds).
    pub iterations: usize,
    /// The campaign seed.
    pub seed: u64,
    /// Simulation rounds per program.
    pub rounds: usize,
    /// Variant names, in sweep order.
    pub variants: Vec<String>,
    /// Programs generated and checked (== `iterations`).
    pub programs: usize,
    /// Total generated source lines (non-empty).
    pub lines_total: u64,
    /// Total simulation rounds executed.
    pub sim_runs: u64,
    /// Total simulated cycles across all rounds.
    pub cycles_total: u64,
    /// Sum of all WCET bounds (a determinism checksum over the whole
    /// analysis side).
    pub wcet_sum: u64,
    /// Total completed path-sampling walks (the sampling leg's
    /// determinism checksum; every one passed observed-max ≤ bound).
    pub sampled_paths: u64,
    /// Largest stack bound seen.
    pub max_stack_bound: u32,
    /// Counterexamples, in job order.
    pub findings: Vec<FuzzFinding>,
    /// Worker threads used (timing layer).
    pub workers: usize,
    /// Cores the machine exposed (timing layer).
    pub cores: usize,
    /// Campaign wall time in milliseconds (timing layer).
    pub wall_ms: f64,
}

impl FuzzReport {
    /// Number of violations found.
    pub fn violations(&self) -> usize {
        self.findings.len()
    }

    /// Programs checked per second.
    pub fn throughput(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.programs as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }

    fn finding_json(f: &FuzzFinding) -> Json {
        Json::obj([
            ("job", Json::int(f.job as u64)),
            ("seed", Json::int(f.seed)),
            ("variant", Json::str(f.variant.clone())),
            ("shape", Json::str(f.shape.clone())),
            ("kind", Json::str(f.kind.clone())),
            ("message", Json::str(f.message.clone())),
            ("original_lines", Json::int(f.original_lines as u64)),
            ("shrunk_lines", Json::int(f.shrunk_lines as u64)),
            ("shrunk_source", Json::str(f.shrunk_source.clone())),
        ])
    }

    /// The deterministic core: byte-identical across runs and worker
    /// counts (no wall times, no worker count, no filesystem paths).
    pub fn results_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("stamp-fuzz/1")),
            ("iterations", Json::int(self.iterations as u64)),
            ("seed", Json::int(self.seed)),
            ("rounds", Json::int(self.rounds as u64)),
            ("variants", Json::Arr(self.variants.iter().map(|v| Json::str(v.clone())).collect())),
            ("programs", Json::int(self.programs as u64)),
            ("lines_total", Json::int(self.lines_total)),
            ("sim_runs", Json::int(self.sim_runs)),
            ("cycles_total", Json::int(self.cycles_total)),
            ("wcet_sum", Json::int(self.wcet_sum)),
            ("sampled_paths", Json::int(self.sampled_paths)),
            ("max_stack_bound", Json::int(self.max_stack_bound as u64)),
            ("violation_count", Json::int(self.findings.len() as u64)),
            ("violations", Json::Arr(self.findings.iter().map(Self::finding_json).collect())),
        ])
    }

    /// The full report: the deterministic results plus the timing layer
    /// (wall time, throughput, workers, reproducer paths).
    pub fn to_json(&self) -> Json {
        let violations: Vec<Json> = self
            .findings
            .iter()
            .map(|f| match Self::finding_json(f) {
                Json::Obj(mut o) => {
                    o.insert(
                        "repro_path".to_string(),
                        f.repro_path.clone().map(Json::str).unwrap_or(Json::Null),
                    );
                    Json::Obj(o)
                }
                _ => unreachable!("finding_json returns an object"),
            })
            .collect();
        match self.results_json() {
            Json::Obj(mut o) => {
                o.insert("violations".to_string(), Json::Arr(violations));
                o.insert("workers".to_string(), Json::int(self.workers as u64));
                o.insert("cores".to_string(), Json::int(self.cores as u64));
                o.insert("wall_ms".to_string(), Json::Num(self.wall_ms));
                o.insert("throughput_programs_per_s".to_string(), Json::Num(self.throughput()));
                Json::Obj(o)
            }
            _ => unreachable!("results_json returns an object"),
        }
    }
}

/// A campaign-level failure (worker panic — violations are results,
/// not errors).
#[derive(Debug)]
pub enum FuzzError {
    /// A fuzz job panicked (a bug in the harness, not a violation).
    JobPanicked {
        /// The failing job's label.
        job: String,
        /// The panic message.
        message: String,
    },
    /// A reproducer file could not be written.
    ReproIo {
        /// The failing path.
        path: String,
        /// The I/O error.
        message: String,
    },
}

impl std::fmt::Display for FuzzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuzzError::JobPanicked { job, message } => {
                write!(f, "fuzz job `{job}` panicked: {message}")
            }
            FuzzError::ReproIo { path, message } => {
                write!(f, "could not write reproducer {path}: {message}")
            }
        }
    }
}

impl std::error::Error for FuzzError {}

/// Derives job `i`'s seed from the campaign seed (odd-multiplier
/// mixing: distinct jobs always get distinct seeds).
fn job_seed(campaign_seed: u64, i: usize) -> u64 {
    campaign_seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d
}

/// Draws the job's generator shape. Names are stable (they appear in
/// reports); sizes jitter within each shape so a campaign covers a
/// spread of program sizes, not one point.
fn pick_shape(rng: &mut StdRng) -> (&'static str, GenConfig) {
    match rng.gen_range(0..5u32) {
        0 => ("legacy", GenConfig { constructs: rng.gen_range(4..=8), ..GenConfig::default() }),
        1 => (
            "deep-loops",
            GenConfig {
                constructs: rng.gen_range(3..=6),
                max_depth: 4,
                max_loop: 6,
                ..GenConfig::default()
            },
        ),
        2 => (
            "call-chain",
            GenConfig {
                constructs: rng.gen_range(4..=8),
                functions: 4,
                call_depth: 4,
                frame_traffic: true,
                calls_in_loops: true,
                ..GenConfig::default()
            },
        ),
        3 => (
            "branchy",
            GenConfig {
                constructs: rng.gen_range(4..=8),
                block_len: 8,
                varied_addressing: true,
                load_branches: true,
                scratch_words: 64,
                ..GenConfig::default()
            },
        ),
        _ => ("rich", GenConfig { constructs: rng.gen_range(5..=9), ..GenConfig::rich() }),
    }
}

/// One job's deterministic outcome.
struct JobOutcome {
    lines: u64,
    sim_runs: u64,
    cycles: u64,
    wcet: u64,
    stack_bound: u32,
    sampled_paths: u64,
    finding: Option<FuzzFinding>,
}

fn run_job(cfg: &FuzzConfig, index: usize) -> JobOutcome {
    let seed = job_seed(cfg.seed, index);
    let variant = &cfg.variants[index % cfg.variants.len()];
    let mut rng = StdRng::seed_from_u64(seed);
    let (shape, gen_cfg) = pick_shape(&mut rng);
    let src = generate(&mut rng, &gen_cfg);
    let lines = shrink::line_count(&src) as u64;
    let oracle_cfg = OracleConfig {
        hw: variant.hw,
        value: variant.value.clone(),
        rounds: cfg.rounds,
        samples: cfg.samples,
        fault: cfg.fault.clone(),
        ..OracleConfig::default()
    };
    let annotations = Annotations::new();
    let input = Some(("scratch", gen_cfg.scratch_bytes()));

    let mut outcome = JobOutcome {
        lines,
        sim_runs: 0,
        cycles: 0,
        wcet: 0,
        stack_bound: 0,
        sampled_paths: 0,
        finding: None,
    };
    // The oracle consumes `rng` exactly where generation left off, so
    // a job is replayable from (campaign seed, index) alone. The state
    // at this point is snapshotted for the shrinker: every candidate
    // must be judged against the *same* simulation inputs that exposed
    // the violation, not a reseeded stream.
    let oracle_rng = rng.clone();
    let violation = match assemble(&src) {
        Err(e) => {
            Box::new(oracle::Violation::Analysis { stage: "assemble", message: e.to_string() })
        }
        Ok(program) => match oracle::check(&program, &annotations, input, &oracle_cfg, &mut rng) {
            Ok(report) => {
                outcome.sim_runs = report.rounds as u64;
                outcome.cycles = report.total_cycles;
                outcome.wcet = report.wcet.unwrap_or(0);
                outcome.stack_bound = report.stack_bound;
                outcome.sampled_paths = report.sampled_paths as u64;
                return outcome;
            }
            Err(v) => v,
        },
    };

    // ---- Counterexample path: minimize, then record.
    let kind = violation.kind().to_string();
    let (shrunk_source, shrunk_lines) = if cfg.shrink && kind != "analysis" {
        // "Still failing" = assembles (the shrinker checks that) and
        // the oracle reports the same violation kind. Every candidate
        // replays the snapshotted rng state, so it sees byte-identical
        // simulation inputs to the run that found the violation — an
        // input-dependent failure stays reproducible throughout the
        // minimization, and the whole search is deterministic.
        let mut predicate = |_cand: &str, program: &stamp_isa::Program| {
            let mut rng = oracle_rng.clone();
            match oracle::check(program, &annotations, input, &oracle_cfg, &mut rng) {
                Ok(_) => false,
                Err(v) => v.kind() == kind,
            }
        };
        let (shrunk, stats) = shrink::shrink(&src, cfg.max_shrink_evals, &mut predicate);
        (shrunk, stats.shrunk_lines)
    } else {
        (src.clone(), lines as usize)
    };
    outcome.finding = Some(FuzzFinding {
        job: index,
        seed,
        variant: variant.name.clone(),
        shape: shape.to_string(),
        kind,
        message: violation.to_string(),
        original_lines: lines as usize,
        shrunk_lines,
        shrunk_source,
        repro_path: None,
    });
    outcome
}

/// The reproducer file for a finding: a ready-to-commit `.s` file
/// whose header comments carry everything needed to replay the
/// violation (campaign seed, job seed, variant, violation).
pub fn reproducer_file(campaign_seed: u64, f: &FuzzFinding) -> (String, String) {
    let name = format!("fuzz-seed{}-job{}-{}.s", campaign_seed, f.job, f.variant);
    let body = format!(
        "; stamp fuzz reproducer (minimized by delta debugging)\n\
         ; campaign seed: {campaign_seed}  job: {job}  job seed: {seed}\n\
         ; variant: {variant}  shape: {shape}\n\
         ; violation: {message}\n\
         ; replay: stamp fuzz --iterations {iters} --seed {campaign_seed}\n\
         {src}",
        job = f.job,
        seed = f.seed,
        variant = f.variant,
        shape = f.shape,
        message = f.message,
        iters = f.job + 1,
        src = f.shrunk_source,
    );
    (name, body)
}

/// Runs the campaign across `workers` threads. Violations land in the
/// report's findings (reproducers written to `cfg.repro_dir` when
/// set); only harness bugs (worker panics, reproducer I/O failures)
/// error the campaign.
///
/// # Errors
///
/// [`FuzzError::JobPanicked`] naming the lowest failing job, or
/// [`FuzzError::ReproIo`] when a reproducer cannot be persisted.
pub fn run_campaign(cfg: &FuzzConfig, workers: usize) -> Result<FuzzReport, FuzzError> {
    assert!(!cfg.variants.is_empty(), "fuzz campaign needs at least one variant");
    let t = std::time::Instant::now();
    let indices: Vec<usize> = (0..cfg.iterations).collect();
    let pool = Pool::new(workers);
    let outcomes = pool
        .map_labeled(
            &indices,
            |_, &i| format!("fuzz-{i}@{}", cfg.variants[i % cfg.variants.len()].name),
            |_, &i| run_job(cfg, i),
        )
        .map_err(|e| {
            let PoolError::JobPanicked { label, message, .. } = e;
            FuzzError::JobPanicked { job: label, message }
        })?;

    let mut report = FuzzReport {
        iterations: cfg.iterations,
        seed: cfg.seed,
        rounds: cfg.rounds,
        variants: cfg.variants.iter().map(|v| v.name.clone()).collect(),
        programs: outcomes.len(),
        lines_total: 0,
        sim_runs: 0,
        cycles_total: 0,
        wcet_sum: 0,
        sampled_paths: 0,
        max_stack_bound: 0,
        findings: Vec::new(),
        workers: pool.workers(),
        cores: stamp_exec::default_workers(),
        wall_ms: 0.0,
    };
    for o in outcomes {
        report.lines_total += o.lines;
        report.sim_runs += o.sim_runs;
        report.cycles_total += o.cycles;
        report.wcet_sum = report.wcet_sum.wrapping_add(o.wcet);
        report.sampled_paths += o.sampled_paths;
        report.max_stack_bound = report.max_stack_bound.max(o.stack_bound);
        if let Some(finding) = o.finding {
            report.findings.push(finding);
        }
    }

    // Persist reproducers after the merge (single-threaded, job order)
    // so partial campaigns never leave half-written files behind.
    if let Some(dir) = &cfg.repro_dir {
        if !report.findings.is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| FuzzError::ReproIo {
                path: dir.display().to_string(),
                message: e.to_string(),
            })?;
        }
        for f in &mut report.findings {
            let (name, body) = reproducer_file(cfg.seed, f);
            let path = dir.join(name);
            std::fs::write(&path, body).map_err(|e| FuzzError::ReproIo {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            f.repro_path = Some(path.display().to_string());
        }
    }

    report.wall_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(iterations: usize) -> FuzzConfig {
        FuzzConfig { iterations, rounds: 2, ..FuzzConfig::default() }
    }

    #[test]
    fn small_campaign_is_green_and_deterministic_across_workers() {
        let cfg = small(8);
        let serial = run_campaign(&cfg, 1).unwrap();
        let parallel = run_campaign(&cfg, 4).unwrap();
        assert_eq!(serial.violations(), 0, "{:?}", serial.findings.first());
        assert_eq!(
            serial.results_json().to_string(),
            parallel.results_json().to_string(),
            "fuzz results must be byte-identical across worker counts"
        );
        assert_eq!(serial.programs, 8);
        assert!(serial.sim_runs >= 16);
        assert!(serial.wcet_sum > 0);
        assert!(serial.sampled_paths > 0, "oracle sampling leg must run in campaigns");
        assert!(serial.results_json().to_string().contains("\"sampled_paths\":"));
    }

    #[test]
    fn job_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..64).map(|i| job_seed(7, i)).collect();
        let mut b = a.clone();
        b.sort_unstable();
        b.dedup();
        assert_eq!(b.len(), 64);
        assert_eq!(job_seed(7, 3), job_seed(7, 3));
        assert_ne!(job_seed(7, 3), job_seed(8, 3));
    }

    #[test]
    fn timing_layer_is_separate_from_results() {
        let report = run_campaign(&small(2), 2).unwrap();
        let det = report.results_json().to_string();
        assert!(!det.contains("wall_ms"), "{det}");
        assert!(!det.contains("workers"), "{det}");
        let full = report.to_json().to_string();
        assert!(full.contains("\"wall_ms\""));
        assert!(full.contains("\"throughput_programs_per_s\""));
    }

    #[test]
    fn injected_fault_produces_a_shrunk_finding() {
        let dir = std::env::temp_dir().join("stamp_fuzz_unit_repro");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = FuzzConfig {
            fault: Some(FaultInjection::FlagMnemonic("div".to_string())),
            repro_dir: Some(dir.clone()),
            ..small(4)
        };
        let report = run_campaign(&cfg, 2).unwrap();
        assert!(report.violations() > 0, "no generated program contained a div?");
        let f = &report.findings[0];
        assert_eq!(f.kind, "injected");
        assert!(f.shrunk_lines < f.original_lines, "{f:?}");
        let path = f.repro_path.as_ref().expect("reproducer written");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("; stamp fuzz reproducer"));
        assert!(text.contains("div"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
