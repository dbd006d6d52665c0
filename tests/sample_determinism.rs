//! The sampling backend's contract: seed-pinned byte-identity across
//! worker counts and store states, the nearest-rank percentile edge
//! cases, the soundness invariant (observed-max ≤ ILP WCET) on the
//! whole pinned corpus, reuse of a plain batch's phase artifacts, and
//! the fuzz oracle's sampling leg catching an injected fault.

use std::process::Command;

use stamp::analyzer::{run_batch_with, ArtifactStore, BatchRequest, SampleParams};
use stamp::run_batch;
use stamp::sample::percentile;
use stamp::suite::fuzz::{run_campaign, FuzzConfig};
use stamp::suite::oracle::FaultInjection;
use stamp::suite::{corpus_request, parse_manifest};

fn stamp_cli(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stamp")).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn write_file(name: &str, contents: &str) -> String {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, contents).expect("writable temp dir");
    path.to_string_lossy().into_owned()
}

/// A manifest that drives sampling from the *variant* vocabulary (the
/// CLI's `--samples`/`--seed` path is exercised separately below).
const MANIFEST: &str = r#"{
  "targets": [
    {"benchmark": "fibcall"},
    {"benchmark": "crc"},
    {"benchmark": "fac"}
  ],
  "variants": [
    {"name": "sampled", "sampling": {"samples": 12, "seed": 4}},
    {"name": "plain"}
  ]
}"#;

/// The headline invariant, CLI edition: a `stamp sample` run is
/// byte-identical across worker counts at a fixed seed.
#[test]
fn cli_sampling_reports_are_byte_identical_across_worker_counts() {
    let mut outputs = Vec::new();
    for jobs in ["1", "2", "8"] {
        let (code, stdout, stderr) = stamp_cli(&[
            "sample",
            "--corpus",
            "--samples",
            "16",
            "--seed",
            "9",
            "--jobs",
            jobs,
            "--no-timing",
        ]);
        assert_eq!(code, Some(0), "--jobs {jobs}: {stderr}");
        outputs.push(stdout);
    }
    assert_eq!(outputs[0], outputs[1], "serial vs 2 workers");
    assert_eq!(outputs[0], outputs[2], "serial vs 8 workers");
    assert!(outputs[0].contains("\"sampling\":{"), "{}", outputs[0]);
    assert!(outputs[0].contains("\"observed_max\":"), "{}", outputs[0]);
    assert!(outputs[0].contains("\"seed\":9"), "{}", outputs[0]);
}

/// Manifest-driven sampling (the `sampling` variant key) agrees with
/// the in-process API byte for byte, and only the sampled variant's
/// jobs carry a `sampling` object.
#[test]
fn manifest_sampling_matches_the_in_process_api() {
    let manifest = write_file("sample_det_manifest.json", MANIFEST);
    let (code, stdout, stderr) = stamp_cli(&["batch", &manifest, "--jobs", "4", "--no-timing"]);
    assert_eq!(code, Some(0), "{stderr}");

    let request = parse_manifest(MANIFEST, std::path::Path::new(".")).unwrap();
    let api = run_batch(&request, 2).unwrap();
    assert_eq!(format!("{}\n", api.results_json()), stdout);

    for r in &api.results {
        let sampled_variant = r.name.ends_with("@sampled");
        // `fac` is recursive, hence stack-only: never sampled.
        let expect = sampled_variant && r.wcet.is_some();
        assert_eq!(r.sampling.is_some(), expect, "{}", r.name);
        if let Some(s) = &r.sampling {
            assert_eq!((s.samples, s.seed), (12, 4), "{}", r.name);
        }
    }
}

/// The pinned corpus with every WCET job walking 64 seed-0 paths.
fn corpus_sampling_request() -> BatchRequest {
    let mut request = corpus_request();
    for job in &mut request.jobs {
        if job.wcet {
            job.sampling = Some(SampleParams { samples: 64, seed: 0 });
        }
    }
    request
}

/// The soundness invariant on the full pinned corpus: every completed
/// walk costs at most the job's ILP WCET bound, and the distribution
/// statistics are internally consistent.
#[test]
fn corpus_observed_max_never_exceeds_the_ilp_bound() {
    let request = corpus_sampling_request();
    let report = run_batch(&request, 4).unwrap();
    assert_eq!(report.errors(), 0);
    let mut sampled = 0;
    for r in &report.results {
        let Some(s) = &r.sampling else { continue };
        sampled += 1;
        let wcet = r.wcet.expect("sampled jobs have a WCET bound");
        let max = s.observed_max.expect("corpus programs complete walks");
        assert!(max <= wcet, "{}: observed {max} > bound {wcet}", r.name);
        let min = s.observed_min.unwrap();
        for (stat, v) in [("mean", s.mean), ("p50", s.p50), ("p90", s.p90), ("p99", s.p99)] {
            let v = v.unwrap();
            assert!(min <= v && v <= max, "{}: {stat} {v} outside [{min}, {max}]", r.name);
        }
        assert_eq!(s.completed + s.dead_ends, s.samples, "{}", r.name);
    }
    assert!(sampled >= 10, "corpus should sample most benchmarks, got {sampled}");
}

/// Sampling on top of a store primed by a *plain* (non-sampling) batch
/// reuses that batch's phase artifacts and only adds the walks: the
/// warm 4-worker report is byte-identical to a serial cold-store run,
/// at least half of its phase requests hit the store, and every
/// observed-max stays within its job's WCET bound.
#[test]
fn sampling_reuses_a_plain_batch_store_without_changing_results() {
    let request = corpus_sampling_request();
    let store = ArtifactStore::new();
    run_batch_with(&corpus_request(), 4, &store).unwrap();

    let warm = run_batch_with(&request, 4, &store).unwrap();
    assert_eq!(warm.errors(), 0);
    let cold = run_batch(&request, 1).unwrap();
    assert_eq!(
        warm.results_json().to_string(),
        cold.results_json().to_string(),
        "warm 4-worker sampling differs from serial cold-store sampling"
    );
    let hit_rate = warm.artifacts.hit_rate();
    assert!(hit_rate >= 0.5, "artifact-warm hit rate {:.0}% below 50%", hit_rate * 100.0);
    for r in &warm.results {
        if let (Some(s), Some(wcet)) = (&r.sampling, r.wcet) {
            let max = s.observed_max.expect("corpus programs complete walks");
            assert!(max <= wcet, "{}: observed {max} > bound {wcet}", r.name);
        }
    }
}

/// Nearest-rank percentile edges: empty, singleton, exact ranks, and
/// out-of-range pct clamping.
#[test]
fn percentile_handles_empty_singleton_and_rank_edges() {
    assert_eq!(percentile(&[], 0), None);
    assert_eq!(percentile(&[], 50), None);
    assert_eq!(percentile(&[], 100), None);

    for pct in [0, 1, 50, 99, 100] {
        assert_eq!(percentile(&[7], pct), Some(7), "singleton at pct {pct}");
    }

    let v = [10, 20, 30, 40];
    assert_eq!(percentile(&v, 0), Some(10), "tiny pct clamps to the first element");
    assert_eq!(percentile(&v, 25), Some(10));
    assert_eq!(percentile(&v, 50), Some(20));
    assert_eq!(percentile(&v, 75), Some(30));
    assert_eq!(percentile(&v, 90), Some(40));
    assert_eq!(percentile(&v, 100), Some(40));
    // pct beyond 100 clamps to the maximum, not past the slice.
    assert_eq!(percentile(&v, 250), Some(40));

    let ten: Vec<u64> = (1..=10).collect();
    assert_eq!(percentile(&ten, 50), Some(5));
    assert_eq!(percentile(&ten, 90), Some(9));
    assert_eq!(percentile(&ten, 99), Some(10));
}

/// Harness self-test: an injected sampling fault (the oracle compares
/// observed-max against 1% of the true bound) must surface as findings
/// of kind `sample` — proof the campaign would catch a real sampler
/// soundness bug.
#[test]
fn injected_sampling_fault_is_caught_by_the_fuzz_campaign() {
    let cfg = FuzzConfig {
        iterations: 6,
        seed: 3,
        rounds: 2,
        samples: 16,
        shrink: false,
        fault: Some(FaultInjection::TightenSample(1)),
        ..FuzzConfig::default()
    };
    let report = run_campaign(&cfg, 2).expect("campaign runs");
    assert!(report.violations() > 0, "tightened sampling bound must be violated");
    for f in &report.findings {
        assert_eq!(f.kind, "sample", "{}", f.message);
        assert!(f.message.contains("UNSOUND sampling"), "{}", f.message);
    }
    // The same campaign with the sampling leg disabled is green: the
    // fault lives entirely in that leg.
    let green = run_campaign(&FuzzConfig { samples: 0, ..cfg }, 2).expect("campaign runs");
    assert_eq!(green.violations(), 0);
    assert_eq!(green.sampled_paths, 0);
    assert!(green.results_json().to_string().contains("\"sampled_paths\":0"));
}
