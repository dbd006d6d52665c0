//! End-to-end tests of the durable artifact store (`stamp batch
//! --store DIR`): a warm process is answered from disk byte-identically,
//! corrupted or truncated logs are repaired in place, `--no-artifact-cache`
//! ignores the flag, and a changed program reuses exactly the phases
//! whose fingerprints held.

use std::path::PathBuf;
use std::process::Command;

use stamp::analyzer::Json;

fn stamp(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stamp")).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A per-test scratch path (removed up front so reruns start clean).
fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("stamp-persist-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

/// The `NN` of `(NN% warm)` in a batch stderr summary.
fn warm_percent(stderr: &str) -> f64 {
    let tail = stderr.rfind("% warm)").expect("summary has a disk section");
    let head = stderr[..tail].rfind('(').expect("opening paren") + 1;
    stderr[head..tail].parse().expect("a percentage")
}

#[test]
fn warm_process_is_byte_identical_and_served_from_disk() {
    let store = scratch("warm-store");
    let store = store.to_str().unwrap();
    let cold = scratch("warm-cold.json");
    let warm = scratch("warm-warm.json");
    let plain = scratch("warm-plain.json");

    let run = |out: &PathBuf, extra: &[&str]| {
        let mut args = vec!["batch", "--corpus", "--no-timing", "--out", out.to_str().unwrap()];
        args.extend_from_slice(extra);
        stamp(&args)
    };

    let (code, _, stderr) = run(&cold, &["--store", store]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("disk store:"), "{stderr}");
    assert_eq!(warm_percent(&stderr), 0.0, "a cold store has nothing to serve: {stderr}");

    // A second *process* on the same directory: the in-memory store
    // starts empty, so ≥50% of its fills must come from disk.
    let (code, _, stderr) = run(&warm, &["--store", store]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(warm_percent(&stderr) >= 50.0, "warm disk-hit rate: {stderr}");

    let (code, _, stderr) = run(&plain, &[]);
    assert_eq!(code, Some(0), "{stderr}");

    let cold = std::fs::read(&cold).unwrap();
    let warm_bytes = std::fs::read(&warm).unwrap();
    let plain = std::fs::read(&plain).unwrap();
    assert_eq!(cold, warm_bytes, "warm results must be byte-identical to cold");
    assert_eq!(cold, plain, "stored results must be byte-identical to storeless");
}

#[test]
fn corrupted_and_truncated_logs_recover_without_wrong_results() {
    let store_dir = scratch("corrupt-store");
    let store = store_dir.to_str().unwrap();
    let cold = scratch("corrupt-cold.json");
    let rerun = scratch("corrupt-rerun.json");

    let (code, _, stderr) = stamp(&[
        "batch",
        "--corpus",
        "--no-timing",
        "--out",
        cold.to_str().unwrap(),
        "--store",
        store,
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let log = store_dir.join("artifacts.log");
    let pristine = std::fs::read(&log).unwrap();
    assert!(pristine.len() > 64, "the corpus run persisted artifacts");

    // Flip one byte mid-log: everything from the damaged record on is
    // dropped with a warning and recomputed — never a crash, never a
    // wrong result.
    let mut bytes = pristine.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&log, &bytes).unwrap();
    let (code, _, stderr) = stamp(&[
        "batch",
        "--corpus",
        "--no-timing",
        "--out",
        rerun.to_str().unwrap(),
        "--store",
        store,
    ]);
    assert_eq!(code, Some(0), "corruption must not fail the run: {stderr}");
    assert!(stderr.contains("corrupt or truncated record"), "{stderr}");
    assert_eq!(std::fs::read(&cold).unwrap(), std::fs::read(&rerun).unwrap());

    // Truncate the (repaired, rewritten) log mid-record: same story.
    let repaired = std::fs::read(&log).unwrap();
    std::fs::write(&log, &repaired[..repaired.len() - 5]).unwrap();
    let (code, _, stderr) = stamp(&[
        "batch",
        "--corpus",
        "--no-timing",
        "--out",
        rerun.to_str().unwrap(),
        "--store",
        store,
    ]);
    assert_eq!(code, Some(0), "truncation must not fail the run: {stderr}");
    assert!(stderr.contains("corrupt or truncated record"), "{stderr}");
    assert_eq!(std::fs::read(&cold).unwrap(), std::fs::read(&rerun).unwrap());
}

#[test]
fn no_artifact_cache_ignores_the_store_flag() {
    let store_dir = scratch("ignored-store");
    let store = store_dir.to_str().unwrap();
    let out = scratch("ignored-out.json");
    let baseline = scratch("ignored-baseline.json");

    let (code, _, stderr) = stamp(&[
        "batch",
        "--corpus",
        "--no-timing",
        "--no-artifact-cache",
        "--out",
        out.to_str().unwrap(),
        "--store",
        store,
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("ignoring --store"), "{stderr}");
    assert!(!store_dir.exists(), "no store directory is created when the cache is off");

    let (code, _, stderr) =
        stamp(&["batch", "--corpus", "--no-timing", "--out", baseline.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(std::fs::read(&out).unwrap(), std::fs::read(&baseline).unwrap());
}

#[test]
fn changed_program_reuses_exactly_the_phases_whose_fingerprints_held() {
    let store = scratch("incremental-store");
    let task = scratch("incremental-task.s");
    let manifest = scratch("incremental-manifest.json");
    let out1 = scratch("incremental-1.json");
    let out2 = scratch("incremental-2.json");

    // A loop the analysis cannot bound on its own: the trip count
    // comes from the manifest annotation, which feeds only the
    // loop-bound fingerprint (and everything downstream of it).
    std::fs::write(
        &task,
        "        .text\n\
         main:   la   r2, count\n\
         lw   r1, 0(r2)\n\
         loop:   addi r1, r1, -1\n\
         bnez r1, loop\n\
         halt\n\
         .data\n\
         count:  .word 10\n",
    )
    .unwrap();
    let manifest_text = |bound: u64| {
        format!(
            r#"{{"targets": [{{"file": "{}", "loop_bounds": {{"loop": {bound}}}}}]}}"#,
            task.file_name().unwrap().to_str().unwrap()
        )
    };

    std::fs::write(&manifest, manifest_text(10)).unwrap();
    let (code, _, stderr) = stamp(&[
        "batch",
        manifest.to_str().unwrap(),
        "--out",
        out1.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");

    // Same program, different loop bound, fresh process: only the
    // loop-bound analysis and the path analysis depend on the bound.
    std::fs::write(&manifest, manifest_text(40)).unwrap();
    let (code, _, stderr) = stamp(&[
        "batch",
        manifest.to_str().unwrap(),
        "--out",
        out2.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");

    let job = |path: &PathBuf| {
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        doc.get("jobs").unwrap().as_arr().unwrap()[0].clone()
    };
    let (job1, job2) = (job(&out1), job(&out2));
    assert_ne!(
        job1.get("wcet").unwrap().as_u64(),
        job2.get("wcet").unwrap().as_u64(),
        "the changed bound changes the WCET"
    );
    let provenance = job2.get("artifacts").unwrap().as_obj().unwrap();
    let of = |phase: &str| {
        provenance
            .get(phase)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("phase {phase} missing from provenance {provenance:?}"))
    };
    for held in ["assemble", "cfg", "context", "value", "cache", "pipeline"] {
        assert_eq!(of(held), "reused", "{held} fingerprint held across the bound change");
    }
    for changed in ["loopbound", "path"] {
        assert_eq!(of(changed), "computed", "{changed} depends on the bound");
    }
}
