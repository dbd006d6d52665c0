//! The artifact store's contract: cross-job phase reuse is *invisible*
//! in the deterministic batch results (byte-identical with the store
//! enabled, disabled, cold, warm, serial or parallel), while the timing
//! layer records real sharing — a hardware sweep computes one value
//! fixpoint per target, a warm pass computes nothing at all, and a
//! cached phase *error* replays exactly.

use std::collections::BTreeSet;
use std::path::Path;

use stamp::analyzer::{plan_job, run_batch_with, ArtifactStore, PhaseId as Phase};
use stamp::suite::parse_manifest;
use stamp::{BatchRequest, WcetAnalysis};

/// A matrix-shaped manifest small enough for debug-mode tests: three
/// targets (one stack-only recursive) under the full hardware sweep.
const MANIFEST: &str = r#"{
  "targets": [
    {"benchmark": "fibcall"},
    {"benchmark": "crc"},
    {"benchmark": "fac"}
  ],
  "variants": [
    {"name": "default"},
    {"name": "no-cache", "hw": "no-cache"},
    {"name": "ideal", "hw": "ideal"}
  ]
}"#;

fn request() -> BatchRequest {
    parse_manifest(MANIFEST, Path::new(".")).unwrap()
}

#[test]
fn cached_uncached_serial_and_parallel_results_are_byte_identical() {
    let request = request();
    let cached = run_batch_with(&request, 4, &ArtifactStore::new()).unwrap();
    let uncached = run_batch_with(&request, 4, &ArtifactStore::disabled()).unwrap();
    let serial = run_batch_with(&request, 1, &ArtifactStore::new()).unwrap();
    assert_eq!(
        cached.results_json().to_string(),
        uncached.results_json().to_string(),
        "artifact reuse must be invisible in results_json"
    );
    assert_eq!(cached.results_json().to_string(), serial.results_json().to_string());
    assert_eq!(cached.errors(), 0);
    // The cached run really did share: fewer misses than requests.
    assert!(cached.artifacts.hits() > 0, "{:?}", cached.artifacts);
    assert_eq!(uncached.artifacts.requests(), 0, "disabled store counts nothing");
}

#[test]
fn hardware_sweep_computes_one_value_fixpoint_per_target() {
    let request = request();
    let store = ArtifactStore::new();
    let report = run_batch_with(&request, 2, &store).unwrap();
    let stats = report.artifacts;
    // 2 WCET targets (fibcall, crc): one value artifact each, shared by
    // the stack bound and all three hardware variants. fac is recursive
    // — its context phase fails (cached once) and no value artifact
    // exists for it.
    assert_eq!(stats.phase("value").unwrap().misses, 2, "{stats:?}");
    assert_eq!(stats.phase("assemble").unwrap().misses, 3);
    assert_eq!(stats.phase("cfg").unwrap().misses, 3);
    // Cache analysis: per WCET target, one artifact for `default` and
    // one shared by `no-cache`/`ideal` (both cacheless).
    assert_eq!(stats.phase("cache").unwrap().misses, 4);
    // Pipeline and path never share across variants (timing differs).
    assert_eq!(stats.phase("pipeline").unwrap().misses, 6);
    assert_eq!(stats.phase("pipeline").unwrap().hits, 0);
    // Overall the cold matrix answers 28 of its 57 requests from the
    // store; the stack bounds read the shared value analyses and make
    // no requests.
    assert_eq!((stats.hits(), stats.misses()), (28, 29), "{stats:?}");
}

#[test]
fn warm_pass_reuses_everything_and_stays_identical() {
    let request = request();
    let store = ArtifactStore::new();
    let cold = run_batch_with(&request, 2, &store).unwrap();
    let warm = run_batch_with(&request, 2, &store).unwrap();
    assert_eq!(cold.results_json().to_string(), warm.results_json().to_string());
    assert_eq!(warm.artifacts.misses(), 0, "warm pass must be all hits: {:?}", warm.artifacts);
    assert!(warm.artifacts.hits() > 0);
    assert_eq!(warm.artifacts.hit_rate(), 1.0);
    assert!(
        warm.results.iter().all(|r| r.provenance.iter().all(|&(_, reused)| reused)),
        "no job of the warm pass computes anything"
    );
}

#[test]
fn provenance_lives_in_the_timing_layer_only() {
    let request = request();
    let report = run_batch_with(&request, 2, &ArtifactStore::new()).unwrap();
    let deterministic = report.results_json().to_string();
    assert!(!deterministic.contains("artifact"), "{deterministic}");
    let full = report.to_json().to_string();
    assert!(full.contains("\"artifact_cache\""), "{full}");
    assert!(full.contains("\"artifacts\""), "{full}");
    assert!(full.contains("\"reused\"") || full.contains("\"computed\""), "{full}");
    // Each job's timing-layer map names exactly the phases it requested.
    let full = report.to_json();
    for (r, job) in report.results.iter().zip(full.get("jobs").unwrap().as_arr().unwrap()) {
        let named: BTreeSet<&str> =
            job.get("artifacts").unwrap().as_obj().unwrap().keys().map(String::as_str).collect();
        let requested: BTreeSet<&str> = r.provenance.iter().map(|(p, _)| p.name()).collect();
        assert_eq!(named, requested, "{}", r.name);
        if r.is_ok() {
            assert!(!r.provenance.is_empty(), "job {} has provenance", r.name);
        }
    }
}

#[test]
fn phase_errors_are_cached_and_replay_identically() {
    // Two targets with the *same* unboundable source: the path phase
    // fails once, and the second job reuses the cached error. The
    // rendered error strings must match exactly.
    let manifest = r#"{
      "targets": [
        {"name": "u1", "source": ".text\nmain: la r1, v\nlw r1, 0(r1)\nloop: srli r1, r1, 1\nbnez r1, loop\nhalt\n.data\nv: .space 4\n"},
        {"name": "u2", "source": ".text\nmain: la r1, v\nlw r1, 0(r1)\nloop: srli r1, r1, 1\nbnez r1, loop\nhalt\n.data\nv: .space 4\n"}
      ]
    }"#;
    let request = parse_manifest(manifest, Path::new(".")).unwrap();
    let store = ArtifactStore::new();
    let report = run_batch_with(&request, 1, &store).unwrap();
    assert_eq!(report.errors(), 2);
    let (a, b) = (&report.results[0], &report.results[1]);
    assert_eq!(a.error, b.error, "cached error must replay verbatim");
    assert!(a.error.as_deref().unwrap().contains("wcet"), "{:?}", a.error);
    // The failing phase computed once, hit once.
    let stats = report.artifacts;
    let failing = stats.phase("path").unwrap();
    assert_eq!((failing.misses, failing.hits), (1, 1), "{stats:?}");
    // And the uncached run renders the same errors byte-for-byte.
    let uncached = run_batch_with(&request, 1, &ArtifactStore::disabled()).unwrap();
    assert_eq!(report.results_json().to_string(), uncached.results_json().to_string());
}

#[test]
fn cached_assembly_errors_report_reused_provenance() {
    use stamp::analyzer::PhaseId;
    let manifest = r#"{"targets": [
      {"name": "b1", "source": ".text\nmain: frobnicate r1\n"},
      {"name": "b2", "source": ".text\nmain: frobnicate r1\n"}]}"#;
    let request = parse_manifest(manifest, Path::new(".")).unwrap();
    let report = run_batch_with(&request, 1, &ArtifactStore::new()).unwrap();
    assert_eq!(report.errors(), 2);
    assert_eq!(report.results[0].error, report.results[1].error);
    // Serial run: the first job computes the (failing) assemble
    // artifact, the second reuses the cached error — and says so.
    assert_eq!(report.results[0].provenance, vec![(PhaseId::Assemble, false)]);
    assert_eq!(report.results[1].provenance, vec![(PhaseId::Assemble, true)]);
    let assemble = report.artifacts.phase("assemble").unwrap();
    assert_eq!((assemble.misses, assemble.hits), (1, 1));
}

#[test]
fn single_run_report_matches_between_run_and_run_with() {
    let b = stamp::suite::benchmarks().into_iter().find(|b| b.name == "crc").unwrap();
    let program = b.program();
    let plain = WcetAnalysis::new(&program).annotations(b.annotations()).run().unwrap();
    let store = ArtifactStore::new();
    let first = WcetAnalysis::new(&program).annotations(b.annotations()).run_with(&store).unwrap();
    let second = WcetAnalysis::new(&program).annotations(b.annotations()).run_with(&store).unwrap();
    for report in [&first, &second] {
        assert_eq!(report.wcet, plain.wcet);
        assert_eq!(report.evaluations, plain.evaluations);
        assert_eq!(report.fetch_stats, plain.fetch_stats);
        assert_eq!(report.data_stats, plain.data_stats);
        assert_eq!(report.loop_bounds, plain.loop_bounds);
        assert_eq!(report.block_profile, plain.block_profile);
        assert_eq!(report.worst_path, plain.worst_path);
        assert_eq!(report.ilp_size, plain.ilp_size);
        assert_eq!(report.precision, plain.precision);
    }
    assert!(first.phases.iter().all(|p| !p.reused), "cold store: everything computed");
    assert!(second.phases.iter().all(|p| p.reused), "second run: everything reused");
    assert!(plain.phases.iter().all(|p| !p.reused), "disabled store never reuses");
}

#[test]
fn recursive_stack_fallback_shares_through_the_store() {
    // `fac` is recursive: the context phase errors, the stack tool
    // falls back to call-graph mode, and a second run reuses the cached
    // context *error*. The bound itself is read from the prefix, never
    // stored.
    let b = stamp::suite::benchmarks().into_iter().find(|b| b.name == "fac").unwrap();
    let program = b.program();
    let store = ArtifactStore::new();
    let first =
        stamp::StackAnalysis::new(&program).annotations(b.annotations()).run_with(&store).unwrap();
    let second =
        stamp::StackAnalysis::new(&program).annotations(b.annotations()).run_with(&store).unwrap();
    assert_eq!(first.mode, "callgraph");
    assert_eq!(first.bound, second.bound);
    assert_eq!(first.per_function, second.per_function);
    assert_eq!(store.stats().phase("stack"), None, "the stack bound is not a phase");
    assert_eq!(store.stats().phase("value").unwrap().misses, 0, "no value analysis");
    let context = store.stats().phase("context").unwrap();
    assert_eq!((context.misses, context.hits), (1, 1), "the context error is cached too");
}

/// Collapses back-to-back repeats of the job's one `cfg → context →
/// value` pass — the extra passes of the CFG ↔ value feedback loop.
fn collapse_feedback_passes(phases: &[Phase]) -> Vec<Phase> {
    let pass = [Phase::Cfg, Phase::Context, Phase::Value];
    let mut out: Vec<Phase> = Vec::new();
    for &p in phases {
        out.push(p);
        let n = out.len();
        if n >= 6 && out[n - 6..n - 3] == pass && out[n - 3..] == pass {
            out.truncate(n - 3);
        }
    }
    out
}

#[test]
fn plan_job_predicts_the_phase_sequence_each_corpus_job_runs() {
    let request = stamp::suite::corpus_request();
    let report = run_batch_with(&request, 1, &ArtifactStore::new()).unwrap();
    let (mut jump_tables, mut recursive) = (0, 0);
    for (job, result) in request.jobs.iter().zip(&report.results) {
        let planned: Vec<Phase> = plan_job(job).unwrap().iter().map(|r| r.phase).collect();
        let ran: Vec<Phase> =
            result.provenance.iter().map(|&(p, _)| p).filter(|&p| p != Phase::Summary).collect();
        // One prefix chain: assemble, the prefix, the WCET tail.
        assert_eq!(planned.iter().filter(|&&p| p == Phase::Value).count(), 1, "{}", job.name());
        if job.source.contains("jalr") {
            // Documented: the feedback loop runs more prefix passes than
            // the iteration-0 prediction.
            jump_tables += 1;
            assert!(ran.len() > planned.len(), "{}: {ran:?}", job.name());
            assert_eq!(collapse_feedback_passes(&ran), planned, "{}", job.name());
        } else if !job.wcet {
            // Documented: context expansion fails on recursion, so the
            // run stops short of the plan's last request, `value`.
            recursive += 1;
            assert_eq!(planned.last(), Some(&Phase::Value), "{}", job.name());
            assert_eq!(ran, planned[..planned.len() - 1], "{}", job.name());
        } else {
            assert_eq!(ran, planned, "{}", job.name());
        }
    }
    assert_eq!((jump_tables, recursive), (1, 1), "switchcase and fac");
}

/// How often `phase` occurs in a phase sequence.
fn count(phases: impl IntoIterator<Item = Phase>, phase: Phase) -> usize {
    phases.into_iter().filter(|&p| p == phase).count()
}

#[test]
fn variant_jobs_make_one_value_request_per_feedback_pass() {
    // `peel` and `widen_delay` reach the value fingerprint, so the
    // stack bound and the WCET phases share the job's one prefix only
    // if the stack reads the job's own value analysis.
    let manifest = r#"{
      "targets": [{"benchmark": "fibcall"}, {"benchmark": "crc"}, {"benchmark": "switchcase"}],
      "variants": [{"name": "peel0", "peel": 0}, {"name": "widen0", "widen_delay": 0}]
    }"#;
    let request = parse_manifest(manifest, Path::new(".")).unwrap();
    for store in [ArtifactStore::new(), ArtifactStore::disabled()] {
        let report = run_batch_with(&request, 1, &store).unwrap();
        assert_eq!(report.errors(), 0);
        for r in &report.results {
            let ran = || r.provenance.iter().map(|&(p, _)| p);
            let passes = count(ran(), Phase::Cfg);
            assert_eq!(count(ran(), Phase::Value), passes, "{}", r.name);
            // The jump table resolves on the second pass.
            assert_eq!(passes, if r.target == "switchcase" { 2 } else { 1 }, "{}", r.name);
        }
    }
    // The oracle's entry: one pass per prefix iteration as well.
    let b = stamp::suite::benchmarks().into_iter().find(|b| b.name == "switchcase").unwrap();
    let mut config = stamp::AnalysisConfig::default();
    config.vivu.peel = 0;
    let program = b.program();
    let verdict = WcetAnalysis::new(&program)
        .config(config)
        .annotations(b.annotations())
        .run_verdict(&ArtifactStore::disabled(), true);
    let (report, _) = verdict.wcet.expect("asked for").expect("bounded");
    let ran = || report.phases.iter().map(|p| p.phase);
    assert_eq!((count(ran(), Phase::Cfg), count(ran(), Phase::Value)), (2, 2));
    assert_eq!(verdict.stack.expect("bounded").bound, 0);
}

#[test]
fn a_prefix_that_cannot_close_the_cfg_fails_both_bounds() {
    // Under the constant domain the jump table's index stays unknown:
    // the job's own value analysis cannot close switchcase's CFG, so
    // its stack bound fails with its WCET.
    let manifest = r#"{"targets": [{"benchmark": "switchcase"}],
      "variants": [{"name": "const", "domain": "const"}]}"#;
    let request = parse_manifest(manifest, Path::new(".")).unwrap();
    let unresolved = "unresolved indirect jumps at 0x00000030; add indirect-target annotations";
    for store in [ArtifactStore::new(), ArtifactStore::disabled()] {
        let report = run_batch_with(&request, 1, &store).unwrap();
        let r = &report.results[0];
        assert_eq!((r.stack, r.wcet), (None, None));
        assert_eq!(
            r.error.as_deref(),
            Some(format!("stack: {unresolved}; wcet: {unresolved}").as_str())
        );
    }
}
