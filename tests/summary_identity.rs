//! The procedure-summary solver's contract: segment decomposition is
//! *exact* — batch results are byte-identical between the summarized
//! and the monolithic path solver at every worker count — while the
//! timing layer records real summary reuse, including across processes
//! through the durable store.

use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stamp::analyzer::{run_batch, ArtifactStore, PhaseId};
use stamp::suite::pins::SCALING_EVALS;
use stamp::suite::{corpus_matrix, generate, parse_manifest, GenConfig};
use stamp::{assemble, BatchVariant, WcetAnalysis};

/// The tentpole identity: the whole corpus, analyzed with the
/// per-segment summary solver, must render byte-for-byte the same
/// deterministic results as the monolithic whole-iCFG ILP — at one,
/// two and eight workers.
#[test]
fn summarized_corpus_results_match_monolithic_at_every_worker_count() {
    let request = corpus_matrix(&[BatchVariant::default()]);
    let mut monolithic_request = corpus_matrix(&[BatchVariant::default()]);
    for job in &mut monolithic_request.jobs {
        job.config.summaries = false;
    }
    let monolithic = run_batch(&monolithic_request, 1).unwrap();
    assert_eq!(monolithic.errors(), 0);
    for workers in [1usize, 2, 8] {
        let summarized = run_batch(&request, workers).unwrap();
        assert_eq!(
            summarized.results_json().to_string(),
            monolithic.results_json().to_string(),
            "summarized vs monolithic results differ at {workers} workers"
        );
    }
}

/// The E6 scaling series (the sizes pinned in `SCALING_EVALS`), drawn
/// from one `0xE6`-seeded rng in size order exactly as the
/// `corpus_pins` test draws it, checked at the sizes `keep` selects:
/// the summarized and the monolithic solver must agree on the WCET
/// bound and the ILP size. Every program is generated, so a selected
/// size is the same program whatever the selection.
fn assert_e6_series_exact(keep: impl Fn(usize) -> bool) {
    let mut rng = StdRng::seed_from_u64(0xE6);
    for &(constructs, _) in SCALING_EVALS {
        let cfg = GenConfig { constructs, functions: 2, ..GenConfig::default() };
        let src = generate(&mut rng, &cfg);
        if !keep(constructs) {
            continue;
        }
        let program = assemble(&src).expect("generated");
        let summarized = WcetAnalysis::new(&program).run().expect("summarized analysis");
        let monolithic =
            WcetAnalysis::new(&program).summaries(false).run().expect("monolithic analysis");
        assert_eq!(summarized.wcet, monolithic.wcet, "e6/{constructs}: WCET bounds differ");
        assert_eq!(summarized.ilp_size, monolithic.ilp_size, "e6/{constructs}: ILP sizes differ");
    }
}

/// Segment decomposition is exact on the E6 series up to 128 constructs.
#[test]
fn summarized_e6_series_matches_monolithic() {
    assert_e6_series_exact(|constructs| constructs <= 128);
}

/// The large end of the E6 series, where the monolithic solve takes
/// seconds even in release (~1.4 s at 256 and ~21 s at 640 constructs).
/// Run with `cargo test --release --test summary_identity --
/// --include-ignored`.
#[test]
#[ignore = "monolithic solve takes ~20 s in release; run with --include-ignored"]
fn summarized_e6_series_matches_monolithic_at_large_sizes() {
    assert_e6_series_exact(|constructs| constructs > 128);
}

/// The `summaries` config switch selects the solver per job (it is not a
/// manifest key: the monolithic solve is a Rust-level test oracle), the
/// bounds agree, and only the summarized variant reports summary
/// provenance.
#[test]
fn summaries_config_switches_the_solver_per_job() {
    let manifest = r#"{
      "targets": [
        {"benchmark": "fibcall"},
        {"benchmark": "crc"}
      ],
      "variants": [
        {"name": "default"},
        {"name": "inlined"}
      ]
    }"#;
    let mut request = parse_manifest(manifest, Path::new(".")).unwrap();
    for job in &mut request.jobs {
        assert!(job.config.summaries, "{}: summaries are on by default", job.name());
        job.config.summaries = job.variant == "default";
    }
    let report = run_batch(&request, 2).unwrap();
    assert_eq!(report.errors(), 0);
    for target in ["fibcall", "crc"] {
        let of = |variant: &str| {
            report
                .results
                .iter()
                .find(|r| r.target == target && r.variant == variant)
                .unwrap_or_else(|| panic!("{target}@{variant}"))
        };
        let (summarized, inlined) = (of("default"), of("inlined"));
        assert_eq!(summarized.wcet, inlined.wcet, "{target}: bounds must agree");
        assert!(
            inlined.provenance.iter().all(|(p, _)| *p != PhaseId::Summary),
            "{target}: the monolithic solve must not report summary provenance"
        );
    }
}

/// A call-heavy task whose supergraph decomposes at every return: the
/// memo solves fewer segments than it serves, and the counts surface
/// in the report's timing layer.
const CALLS: &str = "\
    .text
    main: call f
          call f
          call f
          halt
    f:    div r1, r2, r3
          ret
";

/// Summaries persist through the durable store and are recalled by a
/// later *process* (a fresh in-memory store over the primed log), the
/// path phase itself being recomputed on every run — here the second
/// run flips `use_infeasible`, which leaves every segment's canonical
/// form (and so its summary) unchanged.
#[test]
fn warm_store_serves_summaries_across_processes() {
    let dir = std::env::temp_dir().join(format!("stamp-summary-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let program = assemble(CALLS).unwrap();

    let (store, warnings) = ArtifactStore::with_disk(&dir).unwrap();
    assert!(warnings.is_empty(), "{warnings:?}");
    let first = WcetAnalysis::new(&program).run_with(&store).unwrap();
    assert!(first.summaries_computed > 0, "no decomposition happened");
    assert!(first.summaries_reused > 0, "isomorphic call segments must be served from the memo");

    let (store2, warnings) = ArtifactStore::with_disk(&dir).unwrap();
    assert!(warnings.is_empty(), "{warnings:?}");
    let second = WcetAnalysis::new(&program).use_infeasible(false).run_with(&store2).unwrap();
    assert_eq!(second.wcet, first.wcet, "a branch-free task has no infeasible edges");
    assert_eq!(second.summaries_computed, 0, "every summary must come from the store");
    assert!(second.summaries_reused > 0);
    let summary = store2.stats().phase("summary").unwrap();
    assert!(summary.hits_disk > 0, "summaries must be answered from disk: {summary:?}");
    assert_eq!(summary.misses, 0, "{summary:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The render layer reports the summary counts; the deterministic JSON
/// stays witness-free.
#[test]
fn summary_counts_live_in_the_timing_layer_only() {
    let program = assemble(CALLS).unwrap();
    let report = WcetAnalysis::new(&program).run().unwrap();
    assert!(report.summaries_computed > 0);
    let rendered = report.render(&program);
    assert!(rendered.contains("procedure summaries"), "{rendered}");
    let json = report.to_json().to_string();
    assert!(!json.contains("summar"), "deterministic JSON must not carry provenance: {json}");
}
