//! Parallel batch analysis: a job matrix of (target × configuration
//! variant), executed across a `stamp_exec` worker pool, merged into one
//! deterministic report.
//!
//! Certification campaigns analyze whole task sets across many hardware
//! configurations, not one binary at a time. [`BatchRequest`] expresses
//! that matrix, [`run_batch`] saturates the machine with it, and
//! [`BatchReport`] carries the merged results.
//!
//! # Determinism
//!
//! The headline invariant, enforced by `tests/batch_determinism.rs` and
//! the CI `batch-smoke` job: a parallel run is **bit-identical** to the
//! serial run of the same request, job for job. Two design decisions
//! make that cheap to guarantee:
//!
//! 1. each job is a pure function of its input — it computes its phase
//!    artifacts or shares immutable ones published under the same
//!    input fingerprint;
//! 2. results are ordered by job index (the pool writes into per-job
//!    slots), never by completion time.
//!
//! Wall times are the one legitimately nondeterministic output; they
//! are segregated so [`BatchReport::results_json`] is byte-comparable
//! across runs while [`BatchReport::to_json`] adds the timing layer.

use std::time::{Duration, Instant};

use stamp_exec::{DeadlineOutcome, Pool, PoolError};

use crate::analyzer::{AnalysisConfig, WcetAnalysis};
use crate::annot::Annotations;
use crate::artifact::{ArtifactStats, ArtifactStore};
use crate::error::AnalysisError;
use crate::json::Json;
use crate::phase::{self, PhaseId, PhaseRun};

/// One unit of work: a target program under one configuration variant.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// The target's name (benchmark name or file stem).
    pub target: String,
    /// The configuration variant's name (`"default"` when unvaried).
    pub variant: String,
    /// EVA32 assembly source of the target.
    pub source: String,
    /// The analyzer configuration for this job.
    pub config: AnalysisConfig,
    /// Annotations (loop bounds, recursion depths).
    pub annotations: Annotations,
    /// Attempt the WCET analysis (`false` for recursive, stack-only
    /// tasks, which aiT rejects without annotations).
    pub wcet: bool,
    /// Probabilistic path sampling on top of the WCET analysis: draw
    /// the configured number of seed-pinned weighted walks through the
    /// finished phase artifacts and report the observed distribution
    /// (`None` skips sampling; ignored for stack-only jobs).
    pub sampling: Option<SampleParams>,
}

impl BatchJob {
    /// The job's display name: `target` alone for the default variant,
    /// `target@variant` otherwise.
    pub fn name(&self) -> String {
        if self.variant == "default" {
            self.target.clone()
        } else {
            format!("{}@{}", self.target, self.variant)
        }
    }
}

/// An ordered set of batch jobs. Order is significant: it is the result
/// order of the merged report.
#[derive(Clone, Debug, Default)]
pub struct BatchRequest {
    /// The jobs, in report order.
    pub jobs: Vec<BatchJob>,
}

impl BatchRequest {
    /// An empty request.
    pub fn new() -> BatchRequest {
        BatchRequest::default()
    }

    /// Builds the full job matrix `targets × variants`: every target
    /// analyzed under every configuration variant, targets outermost
    /// (all variants of one target are adjacent in the report).
    pub fn matrix(
        targets: impl IntoIterator<Item = BatchTarget>,
        variants: &[BatchVariant],
    ) -> BatchRequest {
        let mut jobs = Vec::new();
        for t in targets {
            for v in variants {
                jobs.push(BatchJob {
                    target: t.name.clone(),
                    variant: v.name.clone(),
                    source: t.source.clone(),
                    config: v.config.clone(),
                    annotations: t.annotations.clone(),
                    wcet: t.wcet,
                    sampling: v.sampling,
                });
            }
        }
        BatchRequest { jobs }
    }
}

/// A program to analyze (one axis of the job matrix).
#[derive(Clone, Debug)]
pub struct BatchTarget {
    /// Target name (used in job names and reports).
    pub name: String,
    /// EVA32 assembly source.
    pub source: String,
    /// Annotations that apply to this target under every variant.
    pub annotations: Annotations,
    /// Whether the WCET analysis applies (see [`BatchJob::wcet`]).
    pub wcet: bool,
}

/// A named analyzer configuration (the other axis of the job matrix).
#[derive(Clone, Debug)]
pub struct BatchVariant {
    /// Variant name (used in job names and reports).
    pub name: String,
    /// The configuration.
    pub config: AnalysisConfig,
    /// Probabilistic path sampling for every job of this variant (see
    /// [`BatchJob::sampling`]).
    pub sampling: Option<SampleParams>,
}

impl Default for BatchVariant {
    fn default() -> BatchVariant {
        BatchVariant {
            name: "default".to_string(),
            config: AnalysisConfig::default(),
            sampling: None,
        }
    }
}

/// Parameters of the probabilistic path-sampling pass a job runs after
/// a successful WCET analysis. The walk count and rng seed are the
/// whole deterministic identity of a sampling run — the remaining
/// sampler options ([`stamp_sample::SampleOptions`]) are derived from
/// the job's [`AnalysisConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleParams {
    /// Number of path walks to draw.
    pub samples: usize,
    /// Seed of the walk rng.
    pub seed: u64,
}

impl Default for SampleParams {
    fn default() -> SampleParams {
        SampleParams { samples: 64, seed: 0 }
    }
}

impl SampleParams {
    /// The sampler options for a job under `config`: the E4
    /// `use_infeasible` ablation switch must flip the sampler and the
    /// ILP together, or sampled paths leave the ILP's polytope.
    fn options(&self, config: &AnalysisConfig) -> stamp_sample::SampleOptions {
        stamp_sample::SampleOptions {
            samples: self.samples,
            seed: self.seed,
            use_infeasible: config.use_infeasible,
            ..stamp_sample::SampleOptions::default()
        }
    }
}

/// The outcome of one job. All fields except `wall_ms` are pure
/// functions of the job — they are the deterministic payload.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job's display name ([`BatchJob::name`]).
    pub name: String,
    /// Target name.
    pub target: String,
    /// Variant name.
    pub variant: String,
    /// WCET bound in cycles (`None` for stack-only jobs or failures).
    pub wcet: Option<u64>,
    /// Worst-case stack bound in bytes (`None` if the stack analysis
    /// failed).
    pub stack: Option<u32>,
    /// Total solver node evaluations (value + cache + pipeline).
    pub evaluations: u64,
    /// I-cache classifications `[always-hit, always-miss, persistent,
    /// not-classified]`.
    pub fetch: [usize; 4],
    /// D-cache classifications, same order.
    pub data: [usize; 4],
    /// The sampled WCET distribution, when the job requested sampling
    /// and the WCET analysis succeeded. Deterministic (seed-pinned
    /// walks over deterministic artifacts), so it lives in
    /// `results_json` like every other analysis result.
    pub sampling: Option<stamp_sample::SampleSummary>,
    /// The analysis error, if any part of the job failed.
    pub error: Option<String>,
    /// Wall time of this job in milliseconds (excluded from the
    /// deterministic rendering).
    pub wall_ms: f64,
    /// Per-phase artifact provenance of this job, in run order
    /// (`true` = reused from the shared store). Which job of a
    /// fingerprint group computes is a scheduling accident, so this is
    /// excluded from the deterministic rendering, like `wall_ms`.
    /// Records every phase the job ran once, failed ones included:
    /// assemble, the one CFG → context → value prefix (once per pass of
    /// the indirect-jump feedback loop), the WCET phases (loop bounds,
    /// pipeline and path always computed), then one `summary` entry per
    /// path segment summary. The stack bound is read from the prefix and
    /// makes no request.
    pub provenance: Vec<(PhaseId, bool)>,
}

impl JobResult {
    /// The result of `job` before anything has run: no bounds, no
    /// error, no provenance.
    fn empty(job: &BatchJob) -> JobResult {
        JobResult {
            name: job.name(),
            target: job.target.clone(),
            variant: job.variant.clone(),
            wcet: None,
            stack: None,
            evaluations: 0,
            fetch: [0; 4],
            data: [0; 4],
            sampling: None,
            error: None,
            wall_ms: 0.0,
            provenance: Vec::new(),
        }
    }

    /// `true` when the job produced every result it was asked for.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// The provenance map for the timing layer: per phase, `"computed"`
    /// if this job computed the artifact on any request, `"reused"`
    /// otherwise.
    fn provenance_json(&self) -> Json {
        let mut computed: std::collections::BTreeMap<String, bool> = Default::default();
        for &(phase, reused) in &self.provenance {
            *computed.entry(phase.name().to_string()).or_default() |= !reused;
        }
        let label = |c| Json::str(if c { "computed" } else { "reused" });
        Json::Obj(computed.into_iter().map(|(phase, c)| (phase, label(c))).collect())
    }

    /// The deterministic JSON rendering (no wall time). Public so the
    /// serve layer can embed the exact same object in its `ok`
    /// responses — byte-identity between served and batch results is a
    /// tested invariant, not a coincidence.
    pub fn result_json(&self) -> Json {
        let mut obj = Json::obj([
            ("name", Json::str(self.name.clone())),
            ("target", Json::str(self.target.clone())),
            ("variant", Json::str(self.variant.clone())),
            ("wcet", self.wcet.map(Json::int).unwrap_or(Json::Null)),
            ("stack", self.stack.map(|s| Json::int(s as u64)).unwrap_or(Json::Null)),
            ("evaluations", Json::int(self.evaluations)),
            ("fetch", Json::Arr(self.fetch.iter().map(|&v| Json::int(v as u64)).collect())),
            ("data", Json::Arr(self.data.iter().map(|&v| Json::int(v as u64)).collect())),
            ("error", self.error.as_ref().map(|e| Json::str(e.clone())).unwrap_or(Json::Null)),
        ]);
        // The sampling key appears only on jobs that sampled, so
        // non-sampling reports keep their exact pre-sampling shape.
        if let (Json::Obj(o), Some(s)) = (&mut obj, &self.sampling) {
            o.insert("sampling".to_string(), sampling_json(s));
        }
        obj
    }
}

/// The deterministic JSON rendering of a sampled WCET distribution.
fn sampling_json(s: &stamp_sample::SampleSummary) -> Json {
    let opt = |v: Option<u64>| v.map(Json::int).unwrap_or(Json::Null);
    Json::obj([
        ("samples", Json::int(s.samples as u64)),
        ("seed", Json::int(s.seed)),
        ("completed", Json::int(s.completed as u64)),
        ("dead_ends", Json::int(s.dead_ends as u64)),
        ("observed_max", opt(s.observed_max)),
        ("observed_min", opt(s.observed_min)),
        ("mean", opt(s.mean)),
        ("p50", opt(s.p50)),
        ("p90", opt(s.p90)),
        ("p99", opt(s.p99)),
        ("total_cycles", Json::int(s.total_cycles)),
    ])
}

/// The merged report of a batch run: per-job results in request order,
/// plus the run's timing envelope.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job results, ordered by job index (request order).
    pub results: Vec<JobResult>,
    /// Worker threads used.
    pub workers: usize,
    /// Cores the machine exposed to this process.
    pub cores: usize,
    /// Wall time of the whole batch in milliseconds.
    pub wall_ms: f64,
    /// Artifact-cache statistics of *this pass* (the delta over the
    /// store for this `run_batch_with` call; all-zero when the store is
    /// disabled). Part of the timing layer, never of `results_json`.
    pub artifacts: ArtifactStats,
}

impl BatchReport {
    /// Number of failed jobs.
    pub fn errors(&self) -> usize {
        self.results.iter().filter(|r| !r.is_ok()).count()
    }

    /// One line per sampled job whose observed maximum exceeds its WCET
    /// bound. Every sampled path is a feasible point of the job's ILP,
    /// so each line is a soundness counterexample (the CLI's exit 3).
    pub fn sampling_violations(&self) -> Vec<String> {
        self.results
            .iter()
            .filter_map(|r| {
                let observed = r.sampling.as_ref()?.observed_max?;
                let bound = r.wcet?;
                (observed > bound).then(|| {
                    format!(
                        "{}: sampled path of {observed} cycles exceeds the WCET bound {bound}",
                        r.name
                    )
                })
            })
            .collect()
    }

    /// Aggregate throughput in jobs per second.
    pub fn throughput(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.results.len() as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }

    /// The deterministic core of the report: per-job results only, no
    /// wall times, no worker count. Byte-identical across runs and
    /// across `--jobs` values — this is what the determinism tests and
    /// the CI pin gate compare.
    pub fn results_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("stamp-batch/1")),
            ("jobs", Json::Arr(self.results.iter().map(|r| r.result_json()).collect())),
        ])
    }

    /// The full merged report: the deterministic results plus the
    /// timing layer (per-job and aggregate wall times, throughput,
    /// worker count, artifact-cache statistics and per-job provenance).
    pub fn to_json(&self) -> Json {
        let jobs: Vec<Json> = self
            .results
            .iter()
            .map(|r| match r.result_json() {
                Json::Obj(mut o) => {
                    o.insert("wall_ms".to_string(), Json::Num(r.wall_ms));
                    o.insert("artifacts".to_string(), r.provenance_json());
                    Json::Obj(o)
                }
                _ => unreachable!("result_json returns an object"),
            })
            .collect();
        Json::obj([
            ("schema", Json::str("stamp-batch/1")),
            ("jobs", Json::Arr(jobs)),
            ("job_count", Json::int(self.results.len() as u64)),
            ("error_count", Json::int(self.errors() as u64)),
            ("workers", Json::int(self.workers as u64)),
            ("cores", Json::int(self.cores as u64)),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("throughput_jobs_per_s", Json::Num(self.throughput())),
            ("artifact_cache", self.artifacts.to_json()),
        ])
    }
}

/// A batch-level failure (anything job-level lands in
/// [`JobResult::error`] instead).
#[derive(Debug)]
pub enum BatchError {
    /// A job panicked (a bug in the analyzer, not an analysis error).
    JobPanicked {
        /// The failing job's display name.
        job: String,
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::JobPanicked { job, message } => {
                write!(f, "batch job `{job}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// Runs one job, start to finish, on the current thread, sharing phase
/// artifacts through `store`. Analysis failures are captured into the
/// result, not propagated: one unanalyzable task must not sink a
/// certification campaign's batch.
fn run_job(job: &BatchJob, store: &ArtifactStore) -> JobResult {
    let t = Instant::now();
    let mut result = JobResult::empty(job);
    let mut errors: Vec<String> = Vec::new();
    let mut summaries = (0, 0);

    let mut run = PhaseRun::new(store);
    let assembled = run.run(phase::source_fingerprint(&job.source), || {
        stamp_isa::asm::assemble(&job.source).map_err(AnalysisError::from)
    });
    match assembled {
        Err(e) => errors.push(format!("assemble: {e}")),
        Ok(program) => {
            let verdict = WcetAnalysis::new(&program)
                .config(job.config.clone())
                .annotations(job.annotations.clone())
                .verdict(&mut run, job.wcet);
            match verdict.stack {
                Ok(stack) => result.stack = Some(stack.bound),
                Err(e) => errors.push(format!("stack: {e}")),
            }
            match verdict.wcet {
                Some(Ok((report, artifacts))) => {
                    result.wcet = Some(report.wcet);
                    result.evaluations = report.evaluations;
                    let (f, d) = (report.fetch_stats, report.data_stats);
                    result.fetch = [f.hit, f.miss, f.persistent, f.unclassified];
                    result.data = [d.hit, d.miss, d.persistent, d.unclassified];
                    summaries = (report.summaries_computed, report.summaries_reused);
                    // Sampling rides on the finished phase DAG: no
                    // phase is recomputed, only walked.
                    if let Some(params) = &job.sampling {
                        result.sampling = Some(stamp_sample::sample_paths(
                            &artifacts.cfg,
                            &artifacts.icfg,
                            &artifacts.va,
                            &artifacts.lb,
                            &artifacts.pa,
                            &params.options(&job.config),
                        ));
                    }
                }
                Some(Err(e)) => errors.push(format!("wcet: {e}")),
                None => {}
            }
        }
    }
    result.provenance = run.phases.iter().map(|p| (p.phase, p.reused)).collect();
    // Segment-summary provenance, one entry per summary this job
    // touched — timing layer only, like the per-phase entries.
    let (computed, reused) = summaries;
    result.provenance.extend((0..computed).map(|_| (PhaseId::Summary, false)));
    result.provenance.extend((0..reused).map(|_| (PhaseId::Summary, true)));

    if !errors.is_empty() {
        result.error = Some(errors.join("; "));
    }
    result.wall_ms = t.elapsed().as_secs_f64() * 1e3;
    result
}

/// Runs every job of `request` across `workers` threads with a fresh
/// artifact store shared by all jobs, and merges the results into one
/// report ordered by job index. Equivalent to [`run_batch_with`] on a
/// new [`ArtifactStore`]; pass a disabled store to opt out of reuse, or
/// a long-lived store to carry artifacts across batch passes.
///
/// # Errors
///
/// [`BatchError::JobPanicked`] when a job panics — the error names the
/// job. Analysis-level failures (bad source, missing loop bounds)
/// never error the batch; they are recorded per job.
pub fn run_batch(request: &BatchRequest, workers: usize) -> Result<BatchReport, BatchError> {
    run_batch_with(request, workers, &ArtifactStore::new())
}

/// [`run_batch`] against a caller-supplied [`ArtifactStore`].
///
/// Concurrent jobs whose phase inputs fingerprint equal share the
/// artifact: the first claimant computes while the others wait on the
/// slot, and later jobs hit without waiting. The merged
/// [`BatchReport::results_json`] is **byte-identical** whatever store
/// is passed (enabled, disabled, cold or warm) — reuse shows up only in
/// wall times and in the timing layer's provenance and statistics.
///
/// # Errors
///
/// As [`run_batch`].
pub fn run_batch_with(
    request: &BatchRequest,
    workers: usize,
    store: &ArtifactStore,
) -> Result<BatchReport, BatchError> {
    run_batch_deadline(request, workers, store, None)
}

/// The result recorded for a job whose deadline expired. The error
/// string quotes the *configured* deadline, never the measured elapsed
/// time: it lands in `results_json`, which must stay deterministic.
fn deadline_result(job: &BatchJob, deadline: Duration) -> JobResult {
    JobResult {
        error: Some(format!("deadline of {} ms exceeded", deadline.as_millis())),
        wall_ms: deadline.as_secs_f64() * 1e3,
        ..JobResult::empty(job)
    }
}

/// [`run_batch_with`] with an optional per-job deadline (measured from
/// each job's start). An over-deadline job is cancelled cooperatively
/// at the next kernel checkpoint and recorded as a per-job error
/// (`deadline of N ms exceeded`) — it never wedges a worker or sinks
/// the rest of the matrix.
///
/// # Errors
///
/// As [`run_batch`] — deadlines are job-level outcomes, not batch
/// errors.
pub fn run_batch_deadline(
    request: &BatchRequest,
    workers: usize,
    store: &ArtifactStore,
    deadline: Option<Duration>,
) -> Result<BatchReport, BatchError> {
    let t = Instant::now();
    let before = store.stats();
    let pool = Pool::new(workers);
    let outcomes = pool
        .map_labeled_deadline(
            &request.jobs,
            |_, job| job.name(),
            deadline,
            |_, job| run_job(job, store),
        )
        .map_err(|e| {
            let PoolError::JobPanicked { label, message, .. } = e;
            BatchError::JobPanicked { job: label, message }
        })?;
    let results = outcomes
        .into_iter()
        .zip(&request.jobs)
        .map(|(outcome, job)| match outcome {
            DeadlineOutcome::Done(result) => result,
            DeadlineOutcome::DeadlineExceeded => {
                deadline_result(job, deadline.expect("a job only times out under a deadline"))
            }
        })
        .collect();
    Ok(BatchReport {
        results,
        workers: pool.workers(),
        cores: stamp_exec::default_workers(),
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        artifacts: store.stats().since(&before),
    })
}

/// The outcome of one guarded job: the serve layer's unit of work.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job ran to completion (possibly with a job-level analysis
    /// error recorded inside).
    Completed(Box<JobResult>),
    /// The job's cancellation budget expired before it finished.
    DeadlineExceeded,
    /// The job panicked; the daemon isolates this to one response.
    Panicked {
        /// The panic message.
        message: String,
    },
}

/// Runs one job on the current thread with panic isolation and an
/// optional cancellation budget (measured from now — callers that
/// promise a deadline from admission subtract the queue wait first).
/// This is the long-lived daemon's job runner: a panicking or runaway
/// job becomes a structured outcome, never a dead worker.
pub fn run_job_guarded(
    job: &BatchJob,
    store: &ArtifactStore,
    budget: Option<Duration>,
) -> JobOutcome {
    match stamp_exec::run_guarded(budget, || run_job(job, store)) {
        Ok(DeadlineOutcome::Done(result)) => JobOutcome::Completed(Box::new(result)),
        Ok(DeadlineOutcome::DeadlineExceeded) => JobOutcome::DeadlineExceeded,
        Err(message) => JobOutcome::Panicked { message },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOP_TASK: &str = "\
        .text
main:   addi sp, sp, -32
        li   r1, 10
loop:   addi r1, r1, -1
        bnez r1, loop
        addi sp, sp, 32
        halt
";

    fn target(name: &str, source: &str) -> BatchTarget {
        BatchTarget {
            name: name.to_string(),
            source: source.to_string(),
            annotations: Annotations::new(),
            wcet: true,
        }
    }

    #[test]
    fn matrix_builds_targets_times_variants_in_order() {
        let req = BatchRequest::matrix(
            [target("a", LOOP_TASK), target("b", LOOP_TASK)],
            &[
                BatchVariant::default(),
                BatchVariant {
                    name: "no-cache".to_string(),
                    config: AnalysisConfig {
                        hw: stamp_hw::HwConfig::no_cache(),
                        ..AnalysisConfig::default()
                    },
                    sampling: None,
                },
            ],
        );
        let names: Vec<String> = req.jobs.iter().map(|j| j.name()).collect();
        assert_eq!(names, ["a", "a@no-cache", "b", "b@no-cache"]);
    }

    #[test]
    fn batch_runs_and_results_are_deterministic_across_worker_counts() {
        let req = BatchRequest::matrix([target("t", LOOP_TASK)], &[BatchVariant::default()]);
        let serial = run_batch(&req, 1).unwrap();
        let parallel = run_batch(&req, 4).unwrap();
        assert_eq!(serial.results_json().to_string(), parallel.results_json().to_string());
        assert!(serial.results[0].wcet.is_some());
        assert_eq!(serial.results[0].stack, Some(32));
        assert_eq!(serial.errors(), 0);
    }

    #[test]
    fn sampling_violations_list_only_sampled_jobs_above_their_bound() {
        let summary = |observed_max| stamp_sample::SampleSummary {
            samples: 1,
            seed: 0,
            completed: 1,
            dead_ends: 0,
            observed_max: Some(observed_max),
            observed_min: Some(observed_max),
            mean: Some(observed_max),
            p50: Some(observed_max),
            p90: Some(observed_max),
            p99: Some(observed_max),
            total_cycles: observed_max,
        };
        let req = BatchRequest::matrix(
            [target("unsound", LOOP_TASK), target("sound", LOOP_TASK), target("plain", LOOP_TASK)],
            &[BatchVariant::default()],
        );
        let mut results: Vec<JobResult> = req.jobs.iter().map(JobResult::empty).collect();
        for r in &mut results {
            r.wcet = Some(100);
            r.stack = Some(32);
        }
        results[0].sampling = Some(summary(101));
        results[1].sampling = Some(summary(100));
        // A stack-only job has no bound to exceed.
        let mut stack_only = results[2].clone();
        stack_only.name = "stack-only".to_string();
        stack_only.wcet = None;
        stack_only.sampling = Some(summary(101));
        results.push(stack_only);
        let report = BatchReport {
            results,
            workers: 1,
            cores: 1,
            wall_ms: 0.0,
            artifacts: ArtifactStore::disabled().stats(),
        };
        assert_eq!(
            report.sampling_violations(),
            ["unsound: sampled path of 101 cycles exceeds the WCET bound 100"]
        );
    }

    #[test]
    fn sampling_jobs_report_a_distribution_under_the_wcet() {
        let variant = BatchVariant {
            name: "sampled".to_string(),
            config: AnalysisConfig::default(),
            sampling: Some(SampleParams { samples: 16, seed: 3 }),
        };
        let req = BatchRequest::matrix([target("t", LOOP_TASK)], &[variant]);
        let serial = run_batch(&req, 1).unwrap();
        let parallel = run_batch(&req, 4).unwrap();
        // The sampling summary is part of the deterministic core.
        assert_eq!(serial.results_json().to_string(), parallel.results_json().to_string());
        let r = &serial.results[0];
        let s = r.sampling.as_ref().expect("sampling ran");
        assert_eq!(s.samples, 16);
        assert_eq!(s.seed, 3);
        assert!(s.completed > 0);
        assert!(s.observed_max.unwrap() <= r.wcet.unwrap(), "sampled max must stay under WCET");
        let json = r.result_json().to_string();
        assert!(json.contains("\"sampling\":{"), "{json}");
        assert!(json.contains("\"observed_max\":"), "{json}");
        // Jobs without sampling keep the pre-sampling JSON shape.
        let plain = run_batch(
            &BatchRequest::matrix([target("t", LOOP_TASK)], &[BatchVariant::default()]),
            1,
        )
        .unwrap();
        assert!(!plain.results[0].result_json().to_string().contains("sampling"));
    }

    #[test]
    fn analysis_failure_is_captured_per_job_not_propagated() {
        let mut req = BatchRequest::matrix(
            [target("good", LOOP_TASK), target("bad-asm", ".text\nmain: frobnicate r1\n")],
            &[BatchVariant::default()],
        );
        // A task whose loop bound the analysis cannot derive.
        req.jobs.push(BatchJob {
            target: "unbounded".to_string(),
            variant: "default".to_string(),
            source: "\
        .text
main:   la   r1, v
        lw   r1, 0(r1)
loop:   srli r1, r1, 1
        bnez r1, loop
        halt
        .data
v:      .space 4
"
            .to_string(),
            config: AnalysisConfig::default(),
            annotations: Annotations::new(),
            wcet: true,
            sampling: None,
        });
        let report = run_batch(&req, 2).unwrap();
        assert_eq!(report.results.len(), 3);
        assert!(report.results[0].is_ok());
        assert!(report.results[1].error.as_deref().unwrap().contains("assemble"));
        assert!(report.results[2].error.as_deref().unwrap().contains("wcet"));
        assert_eq!(report.errors(), 2);
    }

    #[test]
    fn report_json_layers_timing_over_deterministic_core() {
        let req = BatchRequest::matrix([target("t", LOOP_TASK)], &[BatchVariant::default()]);
        let report = run_batch(&req, 1).unwrap();
        let det = report.results_json().to_string();
        assert!(!det.contains("wall_ms"), "{det}");
        let full = report.to_json().to_string();
        assert!(full.contains("\"wall_ms\""), "{full}");
        assert!(full.contains("\"throughput_jobs_per_s\""), "{full}");
        assert!(full.contains("\"cores\""), "{full}");
    }

    #[test]
    fn empty_request_yields_empty_report() {
        let report = run_batch(&BatchRequest::new(), 8).unwrap();
        assert!(report.results.is_empty());
        assert_eq!(report.errors(), 0);
    }

    #[test]
    fn zero_deadline_becomes_a_deterministic_per_job_error() {
        let req = BatchRequest::matrix([target("t", LOOP_TASK)], &[BatchVariant::default()]);
        let report =
            run_batch_deadline(&req, 1, &ArtifactStore::new(), Some(Duration::ZERO)).unwrap();
        assert_eq!(report.results[0].error.as_deref(), Some("deadline of 0 ms exceeded"));
        assert_eq!(report.results[0].name, "t");
        assert_eq!(report.errors(), 1);
        // The error string carries the configured deadline, not a
        // measured time, so it is stable across runs.
        let again =
            run_batch_deadline(&req, 4, &ArtifactStore::new(), Some(Duration::ZERO)).unwrap();
        assert_eq!(report.results_json().to_string(), again.results_json().to_string());
    }

    #[test]
    fn generous_deadline_leaves_results_byte_identical() {
        let req = BatchRequest::matrix([target("t", LOOP_TASK)], &[BatchVariant::default()]);
        let plain = run_batch(&req, 2).unwrap();
        let deadlined =
            run_batch_deadline(&req, 2, &ArtifactStore::new(), Some(Duration::from_secs(3600)))
                .unwrap();
        assert_eq!(plain.results_json().to_string(), deadlined.results_json().to_string());
    }

    #[test]
    fn guarded_job_reports_timeouts_and_completions() {
        let store = ArtifactStore::new();
        let job = &BatchRequest::matrix([target("t", LOOP_TASK)], &[BatchVariant::default()]).jobs
            [0]
        .clone();
        match run_job_guarded(job, &store, Some(Duration::ZERO)) {
            JobOutcome::DeadlineExceeded => {}
            other => panic!("expected a timeout, got {other:?}"),
        }
        // The store survives the cancelled job and serves the next one.
        match run_job_guarded(job, &store, None) {
            JobOutcome::Completed(r) => {
                assert!(r.is_ok(), "{:?}", r.error);
                assert_eq!(r.stack, Some(32));
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }
}
