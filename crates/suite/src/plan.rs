//! Batch planning: predict a request's phase-artifact reuse without
//! running it (`stamp batch --dry-run`).
//!
//! The mapping from manifest knobs to analysis phases lives in
//! `stamp_core::phase` (each phase fingerprints exactly the knobs it
//! reads); this module aggregates those per-job fingerprint chains
//! across a whole [`BatchRequest`] into a table of expected reuse —
//! which a certification campaign reads as "how much of this matrix is
//! actually new work".

use std::collections::BTreeSet;

use stamp_core::{plan_job, AnalysisConfig, BatchRequest, Fingerprint, PhaseId};
use stamp_hw::HwConfig;

/// One job of the plan.
#[derive(Clone, Debug)]
pub struct JobPlan {
    /// The job's display name (`target@variant`).
    pub name: String,
    /// Target name.
    pub target: String,
    /// Variant name.
    pub variant: String,
    /// Human-readable summary of the knobs this variant changes from
    /// the defaults (see [`describe_config`]).
    pub knobs: String,
    /// The assembler's message when the job cannot even be planned (it
    /// would fail the same way when run).
    pub error: Option<String>,
}

/// One phase row of the plan table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhasePlan {
    /// The phase.
    pub phase: PhaseId,
    /// Artifact requests the matrix will make to this phase.
    pub requests: usize,
    /// Distinct input fingerprints among those requests (= artifacts
    /// actually computed, assuming a cold store).
    pub unique: usize,
}

impl PhasePlan {
    /// Requests expected to be answered from the store.
    pub fn expected_hits(&self) -> usize {
        self.requests - self.unique
    }
}

/// The resolved plan of a batch request.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// Per-job rows, in request (report) order.
    pub jobs: Vec<JobPlan>,
    /// Per-phase reuse table, in pipeline order (phases with zero
    /// requests are omitted).
    pub phases: Vec<PhasePlan>,
}

impl BatchPlan {
    /// Total artifact requests across all phases.
    pub fn requests(&self) -> usize {
        self.phases.iter().map(|p| p.requests).sum()
    }

    /// Total distinct artifacts (cold-store computations).
    pub fn unique(&self) -> usize {
        self.phases.iter().map(|p| p.unique).sum()
    }

    /// Expected store hit rate on a cold run (0 for an empty plan).
    pub fn expected_hit_rate(&self) -> f64 {
        let requests = self.requests();
        if requests == 0 {
            0.0
        } else {
            (requests - self.unique()) as f64 / requests as f64
        }
    }
}

/// Plans `request`: resolves every job's phase fingerprint chain (the
/// analysis itself does not run; see `stamp_core::plan_job` for the
/// iteration-0 approximation) and tabulates expected reuse per phase.
pub fn plan(request: &BatchRequest) -> BatchPlan {
    let mut jobs = Vec::new();
    let mut requests: Vec<(PhaseId, Fingerprint)> = Vec::new();
    for job in &request.jobs {
        let error = match plan_job(job) {
            Ok(reqs) => {
                requests.extend(reqs.iter().map(|r| (r.phase, r.fingerprint)));
                None
            }
            Err(e) => Some(e),
        };
        jobs.push(JobPlan {
            name: job.name(),
            target: job.target.clone(),
            variant: job.variant.clone(),
            knobs: describe_config(&job.config),
            error,
        });
    }
    let phases = PhaseId::ALL
        .iter()
        .filter_map(|&phase| {
            let total = requests.iter().filter(|(p, _)| *p == phase).count();
            if total == 0 {
                return None;
            }
            let unique: BTreeSet<Fingerprint> =
                requests.iter().filter(|(p, _)| *p == phase).map(|(_, fp)| *fp).collect();
            Some(PhasePlan { phase, requests: total, unique: unique.len() })
        })
        .collect();
    BatchPlan { jobs, phases }
}

/// Summarizes the knobs a configuration changes from the defaults, in
/// manifest vocabulary (`hw=no-cache peel=0 …`); `"(defaults)"` when
/// nothing differs.
pub fn describe_config(config: &AnalysisConfig) -> String {
    let default = AnalysisConfig::default();
    let mut knobs = Vec::new();
    if config.hw != default.hw {
        if config.hw == HwConfig::no_cache() {
            knobs.push("hw=no-cache".to_string());
        } else if config.hw == HwConfig::ideal() {
            knobs.push("hw=ideal".to_string());
        } else if let Some(c) = config.hw.icache.filter(|_| config.hw.dcache == config.hw.icache) {
            knobs.push(format!("hw={{cache_bytes: {}}}", c.size_bytes()));
        } else {
            knobs.push("hw=custom".to_string());
        }
    }
    if config.vivu.peel != default.vivu.peel {
        knobs.push(format!("peel={}", config.vivu.peel));
    }
    if config.vivu.max_call_depth != default.vivu.max_call_depth {
        knobs.push(format!("max_call_depth={}", config.vivu.max_call_depth));
    }
    if config.vivu.max_contexts != default.vivu.max_contexts {
        knobs.push(format!("max_contexts={}", config.vivu.max_contexts));
    }
    if config.value.domain != default.value.domain {
        knobs.push(format!("domain={:?}", config.value.domain).to_lowercase());
    }
    if config.value.widen_delay != default.value.widen_delay {
        knobs.push(format!("widen_delay={}", config.value.widen_delay));
    }
    if config.use_infeasible != default.use_infeasible {
        knobs.push(format!("use_infeasible={}", config.use_infeasible));
    }
    if knobs.is_empty() {
        "(defaults)".to_string()
    } else {
        knobs.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{corpus_matrix, parse_manifest};
    use stamp_core::BatchVariant;

    #[test]
    fn hardware_sweep_plan_predicts_prefix_sharing() {
        let request = corpus_matrix(&[
            BatchVariant::default(),
            BatchVariant {
                name: "no-cache".into(),
                config: AnalysisConfig { hw: HwConfig::no_cache(), ..Default::default() },
                sampling: None,
            },
            BatchVariant {
                name: "ideal".into(),
                config: AnalysisConfig { hw: HwConfig::ideal(), ..Default::default() },
                sampling: None,
            },
        ]);
        let plan = plan(&request);
        assert_eq!(plan.jobs.len(), request.jobs.len());
        assert!(plan.jobs.iter().all(|j| j.error.is_none()));
        let targets = request.jobs.len() / 3;
        let row = |p: PhaseId| plan.phases.iter().find(|r| r.phase == p).copied().unwrap();
        // Assemble: one request per job, one unique source per target.
        assert_eq!(row(PhaseId::Assemble).requests, 3 * targets);
        assert_eq!(row(PhaseId::Assemble).unique, targets);
        // The prefix: one request per job, one artifact per target,
        // shared across the whole hardware sweep (value reads the memory
        // map only).
        for p in [PhaseId::Cfg, PhaseId::Context, PhaseId::Value] {
            assert_eq!((row(p).requests, row(p).unique), (3 * targets, targets), "{p:?}");
        }
        // Cache: one request per WCET job, one artifact for `default`
        // and one shared by the two cacheless variants.
        let wcet_targets = request.jobs.iter().filter(|j| j.wcet).count() / 3;
        assert_eq!(row(PhaseId::Cache).requests, 3 * wcet_targets);
        assert_eq!(row(PhaseId::Cache).unique, 2 * wcet_targets);
        // Loop bounds, pipeline and path are recomputed: no row.
        let phases: Vec<PhaseId> = plan.phases.iter().map(|r| r.phase).collect();
        use PhaseId::*;
        assert_eq!(phases, [Assemble, Cfg, Context, Value, Cache]);
        assert!(plan.expected_hit_rate() > 0.6, "got {:.3}", plan.expected_hit_rate());
    }

    #[test]
    fn unassemblable_targets_plan_as_errors() {
        let request = parse_manifest(
            r#"{"targets": [{"name": "bad", "source": ".text\nmain: frobnicate r1\n"}]}"#,
            std::path::Path::new("."),
        )
        .unwrap();
        let p = plan(&request);
        assert!(p.jobs[0].error.as_deref().unwrap().contains("assemble"));
        assert_eq!(p.requests(), 0);
    }

    #[test]
    fn describe_config_names_changed_knobs_only() {
        assert_eq!(describe_config(&AnalysisConfig::default()), "(defaults)");
        let mut c = AnalysisConfig { hw: HwConfig::no_cache(), ..Default::default() };
        c.vivu.peel = 0;
        c.use_infeasible = false;
        let s = describe_config(&c);
        assert_eq!(s, "hw=no-cache peel=0 use_infeasible=false");
        let cache = AnalysisConfig { hw: HwConfig::with_cache_bytes(4096), ..Default::default() };
        assert_eq!(describe_config(&cache), "hw={cache_bytes: 4096}");
    }
}
