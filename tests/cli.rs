//! End-to-end tests of the `stamp` command-line tool.

use std::process::Command;

fn stamp(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = stamp_coded(args);
    (code == Some(0), stdout, stderr)
}

/// Like [`stamp`] but exposing the exit code: 0 success, 1 analysis
/// failed, 2 bad arguments.
fn stamp_coded(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stamp")).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn write_task(name: &str, src: &str) -> String {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, src).expect("writable temp dir");
    path.to_string_lossy().into_owned()
}

const TASK: &str = "\
        .text
main:   addi sp, sp, -32
        li   r1, 10
loop:   addi r1, r1, -1
        bnez r1, loop
        addi sp, sp, 32
        halt
";

#[test]
fn wcet_command_reports_bound() {
    let path = write_task("cli_wcet.s", TASK);
    let (ok, stdout, stderr) = stamp(&["wcet", &path]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("WCET bound:"), "{stdout}");
    assert!(stdout.contains("loop bounds"), "{stdout}");
}

#[test]
fn wcet_json_and_dot_outputs() {
    let path = write_task("cli_json.s", TASK);
    let dot = std::env::temp_dir().join("cli_out.dot");
    let (ok, stdout, stderr) = stamp(&["wcet", &path, "--json", "--dot", &dot.to_string_lossy()]);
    assert!(ok, "{stderr}");
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"wcet\":"), "{stdout}");
    let dot_text = std::fs::read_to_string(&dot).expect("dot written");
    assert!(dot_text.starts_with("digraph cfg {"));
}

#[test]
fn stack_command_reports_bound() {
    let path = write_task("cli_stack.s", TASK);
    let (ok, stdout, stderr) = stamp(&["stack", &path]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("32 bytes"), "{stdout}");
}

#[test]
fn run_command_simulates() {
    let path = write_task("cli_run.s", TASK);
    let (ok, stdout, stderr) = stamp(&["run", &path]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Halted"), "{stdout}");
    assert!(stdout.contains("cycles:"), "{stdout}");
}

#[test]
fn disasm_command_lists_instructions() {
    let path = write_task("cli_disasm.s", TASK);
    let (ok, stdout, stderr) = stamp(&["disasm", &path]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("main:"), "{stdout}");
    assert!(stdout.contains("addi sp, sp, -32"), "{stdout}");
    assert!(stdout.contains("halt"), "{stdout}");
}

#[test]
fn loop_bound_flag_feeds_annotation() {
    // A data-dependent loop that needs an annotation.
    let src = "\
        .text
main:   la   r1, v
        lw   r1, 0(r1)
loop:   srli r1, r1, 1
        bnez r1, loop
        halt
        .data
v:      .space 4
";
    let path = write_task("cli_annot.s", src);
    let (ok, _, stderr) = stamp(&["wcet", &path]);
    assert!(!ok, "should fail without annotation");
    assert!(stderr.contains("loop bound") || stderr.contains("annotation"), "{stderr}");
    let (ok, stdout, stderr) = stamp(&["wcet", &path, "--loop-bound", "loop=33"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("≤ 33 iterations"), "{stdout}");
}

#[test]
fn bad_usage_is_reported_with_exit_code_2() {
    let (code, _, stderr) = stamp_coded(&[]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage"), "{stderr}");
    let (code, _, stderr) = stamp_coded(&["frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command"), "{stderr}");
    let (code, _, stderr) = stamp_coded(&["wcet", "/nonexistent/file.s"]);
    assert_eq!(code, Some(2), "unreadable input is an argument problem");
    assert!(stderr.contains("file.s"), "{stderr}");
    let (code, _, stderr) = stamp_coded(&["wcet", "--loop-bound", "nonsense"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("SYM=N"), "{stderr}");
}

#[test]
fn analysis_failure_exits_1_where_bad_arguments_exit_2() {
    // Same task, two failure classes: without the loop-bound annotation
    // the *analysis* fails (exit 1); with a malformed flag the
    // *invocation* fails (exit 2).
    let src = "\
        .text
main:   la   r1, v
        lw   r1, 0(r1)
loop:   srli r1, r1, 1
        bnez r1, loop
        halt
        .data
v:      .space 4
";
    let path = write_task("cli_exit_codes.s", src);
    let (code, _, stderr) = stamp_coded(&["wcet", &path]);
    assert_eq!(code, Some(1), "{stderr}");
    let (code, _, _) = stamp_coded(&["wcet", &path, "--frobnicate"]);
    assert_eq!(code, Some(2));
    // An existing file that is not valid assembly is an analysis
    // failure, not an argument problem.
    let bad = write_task("cli_exit_codes_bad.s", ".text\nmain: frobnicate r1\n");
    let (code, _, stderr) = stamp_coded(&["wcet", &bad]);
    assert_eq!(code, Some(1), "{stderr}");
}

#[test]
fn usage_text_documents_exit_codes_and_every_flag() {
    let (code, stdout, _) = stamp_coded(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("exit codes"), "{stdout}");
    assert!(stdout.contains("analysis failed"), "{stdout}");
    assert!(stdout.contains("bad arguments"), "{stdout}");
    assert!(stdout.contains("soundness violation"), "{stdout}");
    assert!(stdout.contains("stamp batch"), "{stdout}");
    assert!(stdout.contains("stamp serve"), "{stdout}");
    assert!(stdout.contains("stamp fuzz"), "{stdout}");
    for flag in [
        "--no-cache",
        "--ideal",
        "--loop-bound",
        "--json",
        "--dot",
        "--entry",
        "--recursion",
        "--corpus",
        "--jobs",
        "--out",
        "--no-timing",
        "--check-pins",
        "--no-artifact-cache",
        "--repeat",
        "--dry-run",
        "--store",
        "--deadline-ms",
        "--samples",
        "--socket",
        "--queue",
        "--per-client",
        "--default-deadline-ms",
        "--max-insns",
        "--iterations",
        "--seed",
        "--rounds",
        "--no-shrink",
        "--max-shrink-evals",
        "--repro-dir",
        "--inject-fault",
    ] {
        assert!(stdout.contains(flag), "--help must document {flag}: {stdout}");
    }
}

/// Every documented flag, exercised once with its expected exit code —
/// the executable contract of the `--help` text.
#[test]
fn exit_code_table_covers_every_documented_flag() {
    let task = write_task("cli_table.s", TASK);
    let manifest =
        write_task("cli_table_manifest.json", r#"{"targets": [{"benchmark": "fibcall"}]}"#);
    let out = std::env::temp_dir().join("cli_table_out.json");
    let out = out.to_string_lossy();
    let dot = std::env::temp_dir().join("cli_table_out.dot");
    let dot = dot.to_string_lossy();
    let repro = std::env::temp_dir().join("cli_table_repro");
    let repro = repro.to_string_lossy();
    let cases: &[(&[&str], i32)] = &[
        // wcet
        (&["wcet", &task, "--no-cache"], 0),
        (&["wcet", &task, "--ideal"], 0),
        (&["wcet", &task, "--loop-bound", "loop=10"], 0),
        (&["wcet", &task, "--loop-bound", "nonsense"], 2),
        (&["wcet", &task, "--json"], 0),
        (&["wcet", &task, "--dot", &dot], 0),
        (&["wcet", &task, "--dot"], 2),
        // stack
        (&["stack", &task, "--entry", "main"], 0),
        (&["stack", &task, "--entry", "no_such_symbol"], 1),
        (&["stack", &task, "--recursion", "main=2"], 0),
        (&["stack", &task, "--recursion", "main"], 2),
        // batch
        (&["batch", &manifest, "--jobs", "2"], 0),
        (&["batch", &manifest, "--jobs", "x"], 2),
        (&["batch", &manifest, "--out", &out], 0),
        (&["batch", &manifest, "--no-timing"], 0),
        (&["batch", &manifest, "--no-artifact-cache"], 0),
        (&["batch", &manifest, "--repeat", "2"], 0),
        (&["batch", &manifest, "--repeat", "0"], 2),
        (&["batch", &manifest, "--repeat", "x"], 2),
        (&["batch", &manifest, "--dry-run"], 0),
        (&["batch", &manifest, "--check-pins"], 2),
        (&["batch", "--corpus", "--dry-run"], 0),
        // a generous deadline passes every job; a zero deadline turns
        // each job into a per-job analysis error (exit 1, not a hang)
        (&["batch", &manifest, "--deadline-ms", "60000"], 0),
        (&["batch", &manifest, "--deadline-ms", "0"], 1),
        (&["batch", &manifest, "--deadline-ms", "x"], 2),
        (&["batch", &manifest, "--deadline-ms"], 2),
        (&["batch", &manifest, "--samples", "x"], 2),
        (&["batch", &manifest, "--seed", "x"], 2),
        // sample: batch with sampling on
        (&["sample", &manifest, "--samples", "4", "--seed", "1", "--no-timing"], 0),
        (&["sample", &manifest, "--samples", "x"], 2),
        // serve: bad invocations exit 2 without starting the daemon
        // (healthy daemon lifecycles are covered in tests/serve_daemon.rs)
        (&["serve", "--queue", "x"], 2),
        (&["serve", "--queue", "0"], 2),
        (&["serve", "--per-client", "x"], 2),
        (&["serve", "--default-deadline-ms", "x"], 2),
        (&["serve", "--socket"], 2),
        (&["serve", "--frobnicate"], 2),
        // fuzz: a green micro-campaign exits 0; bad numbers and unknown
        // fault kinds are usage errors (2); an injected-fault campaign
        // finds violations and exits 3 — the soundness exit code.
        (&["fuzz", "--iterations", "4", "--seed", "1", "--rounds", "1", "--out", &out], 0),
        (&["fuzz", "--iterations", "x"], 2),
        (&["fuzz", "--seed", "x"], 2),
        (&["fuzz", "--rounds", "x"], 2),
        (&["fuzz", "--jobs", "x"], 2),
        (&["fuzz", "--max-shrink-evals", "x"], 2),
        (&["fuzz", "--inject-fault", "frobnicate"], 2),
        (&["fuzz", "--inject-fault"], 2),
        (
            &[
                "fuzz",
                "--iterations",
                "2",
                "--seed",
                "3",
                "--rounds",
                "1",
                "--inject-fault",
                "contains-div",
                "--no-shrink",
                "--repro-dir",
                &repro,
                "--out",
                &out,
            ],
            3,
        ),
        // run
        (&["run", &task, "--max-insns", "1000"], 0),
        (&["run", &task, "--max-insns", "x"], 2),
        // unknown flags are always usage errors
        (&["batch", &manifest, "--frobnicate"], 2),
    ];
    for (args, expected) in cases {
        let (code, _, stderr) = stamp_coded(args);
        assert_eq!(code, Some(*expected), "stamp {}: {stderr}", args.join(" "));
    }
}

#[test]
fn stack_on_recursive_task_with_unresolved_computed_jump_exits_1() {
    // The call-graph fallback cannot resolve computed jumps, so it
    // refuses instead of bounding the partial call graph.
    let src = "\
        .text
main:   li   r1, 3
        call rec
        la   r11, jtab
        lw   r5, 0(r11)
        jalr r0, r5, 0
big:    addi sp, sp, -512
        addi sp, sp, 512
        halt
rec:    addi sp, sp, -8
        sw   lr, 4(sp)
        beqz r1, rbase
        addi r1, r1, -1
        call rec
rbase:  lw   lr, 4(sp)
        addi sp, sp, 8
        ret
        .rodata
jtab:   .word big
";
    let path = write_task("cli_stack_recursive_jump.s", src);
    let (code, stdout, stderr) = stamp_coded(&["stack", &path, "--recursion", "rec=4"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stderr.contains("unresolved indirect jumps"), "{stderr}");
}

#[test]
fn batch_dry_run_plans_without_running() {
    let manifest = write_task(
        "cli_dry_run.json",
        r#"{
          "targets": [{"benchmark": "fibcall"}, {"benchmark": "crc"}],
          "variants": [{"name": "default"}, {"name": "lean", "hw": "no-cache", "peel": 0}]
        }"#,
    );
    let (code, stdout, stderr) = stamp_coded(&["batch", &manifest, "--dry-run"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("batch plan: 4 jobs"), "{stdout}");
    assert!(stdout.contains("crc@lean"), "{stdout}");
    assert!(stdout.contains("hw=no-cache peel=0"), "{stdout}");
    assert!(stdout.contains("expected phase-artifact reuse"), "{stdout}");
    assert!(stdout.contains("value"), "{stdout}");
    assert!(!stdout.contains("\"wcet\""), "dry-run must not emit results: {stdout}");
    // Manifest problems keep exit code 2, exactly as for a real run.
    let bad = write_task("cli_dry_run_bad.json", r#"{"targets": []}"#);
    let (code, _, stderr) = stamp_coded(&["batch", &bad, "--dry-run"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("no targets"), "{stderr}");
}

#[test]
fn batch_artifact_cache_flags_do_not_change_results() {
    let manifest = write_task(
        "cli_cache_flags.json",
        r#"{"targets": [{"benchmark": "fibcall"}, {"benchmark": "crc"}],
            "variants": [{"name": "default"}, {"name": "no-cache", "hw": "no-cache"}]}"#,
    );
    let (code, cached, stderr) = stamp_coded(&["batch", &manifest, "--no-timing"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("artifact cache:"), "cache stats on stderr: {stderr}");
    let (code, uncached, stderr) =
        stamp_coded(&["batch", &manifest, "--no-timing", "--no-artifact-cache"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stderr.contains("artifact cache:"), "no stats when disabled: {stderr}");
    assert_eq!(cached, uncached, "the artifact cache must be invisible in results");
    // A warm second pass (--repeat) is byte-identical too.
    let (code, warm, stderr) = stamp_coded(&["batch", &manifest, "--no-timing", "--repeat", "2"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(cached, warm);
    assert!(stderr.contains("pass 2/2"), "{stderr}");
    assert!(stderr.contains("100% reuse"), "warm pass reuses everything: {stderr}");
}

#[test]
fn fuzz_reports_are_byte_identical_across_jobs() {
    let out1 = std::env::temp_dir().join("cli_fuzz_j1.json");
    let out2 = std::env::temp_dir().join("cli_fuzz_j2.json");
    let args = |jobs: &'static str, out: String| {
        vec![
            "fuzz".to_string(),
            "--iterations".to_string(),
            "6".to_string(),
            "--seed".to_string(),
            "5".to_string(),
            "--rounds".to_string(),
            "1".to_string(),
            "--no-timing".to_string(),
            "--jobs".to_string(),
            jobs.to_string(),
            "--out".to_string(),
            out,
        ]
    };
    for (jobs, out) in [("1", &out1), ("2", &out2)] {
        let argv: Vec<String> = args(jobs, out.to_string_lossy().into_owned());
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        let (code, _, stderr) = stamp_coded(&argv);
        assert_eq!(code, Some(0), "{stderr}");
        assert!(stderr.contains("0 violation(s)"), "{stderr}");
    }
    let a = std::fs::read_to_string(&out1).unwrap();
    let b = std::fs::read_to_string(&out2).unwrap();
    assert_eq!(a, b, "fuzz --no-timing reports must be byte-identical across --jobs");
    assert!(a.contains("\"schema\":\"stamp-fuzz/1\""), "{a}");
    assert!(!a.contains("wall_ms"), "deterministic report must omit timing: {a}");
}

#[test]
fn fuzz_injected_fault_writes_minimized_reproducer_and_exits_3() {
    let repro = std::env::temp_dir().join("cli_fuzz_repro");
    let _ = std::fs::remove_dir_all(&repro);
    let repro_s = repro.to_string_lossy().into_owned();
    let (code, _, stderr) = stamp_coded(&[
        "fuzz",
        "--iterations",
        "2",
        "--seed",
        "3",
        "--rounds",
        "1",
        "--inject-fault",
        "contains-div",
        "--repro-dir",
        &repro_s,
        "--out",
        &std::env::temp_dir().join("cli_fuzz_inj.json").to_string_lossy(),
    ]);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("VIOLATION"), "{stderr}");
    assert!(stderr.contains("reproducer"), "{stderr}");
    let files: Vec<_> = std::fs::read_dir(&repro).unwrap().collect();
    assert!(!files.is_empty(), "reproducer files written");
    let text = std::fs::read_to_string(files[0].as_ref().unwrap().path()).unwrap();
    assert!(text.starts_with("; stamp fuzz reproducer"), "{text}");
    assert!(text.contains("div"), "{text}");
    let _ = std::fs::remove_dir_all(&repro);
}

#[test]
fn batch_deadline_turns_slow_jobs_into_per_job_errors() {
    let manifest = write_task(
        "cli_deadline.json",
        r#"{"targets": [{"benchmark": "fibcall"}, {"benchmark": "crc"}]}"#,
    );
    let (code, stdout, stderr) =
        stamp_coded(&["batch", &manifest, "--no-timing", "--deadline-ms", "0"]);
    assert_eq!(code, Some(1), "over-deadline jobs take the failed-job exit path: {stderr}");
    assert!(stdout.contains("deadline of 0 ms exceeded"), "{stdout}");
    assert!(stderr.contains("2 batch job(s) failed"), "{stderr}");
    // The deadline never rewrites results that make it: a generous
    // budget is byte-identical to no budget at all.
    let (code, with, stderr) =
        stamp_coded(&["batch", &manifest, "--no-timing", "--deadline-ms", "60000"]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, without, stderr) = stamp_coded(&["batch", &manifest, "--no-timing"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(with, without);
}

#[test]
fn batch_corpus_smoke_runs_serially() {
    // The full corpus gate runs in release CI (`batch-smoke`); here a
    // two-job serial run keeps the debug-mode test quick.
    let manifest = write_task(
        "cli_batch_smoke.json",
        r#"{"targets": [{"benchmark": "fibcall"}, {"benchmark": "crc"}]}"#,
    );
    let (code, stdout, stderr) = stamp_coded(&["batch", &manifest, "--jobs", "1"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("\"wcet\":242"), "{stdout}");
    assert!(stdout.contains("\"throughput_jobs_per_s\""), "{stdout}");
}
