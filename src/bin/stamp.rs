//! The `stamp` command-line tool: WCET and stack analysis of EVA32
//! assembly files, plus batch analysis, disassembly and simulation.
//!
//! ```text
//! stamp wcet   task.s [--no-cache|--ideal] [--loop-bound SYM=N]... [--json] [--dot out.dot]
//! stamp stack  task.s [--entry SYM] [--recursion SYM=N]...
//! stamp batch  manifest.json | --corpus  [--jobs N] [--out FILE] [--no-timing] [--check-pins]
//!              [--no-artifact-cache] [--repeat N] [--dry-run] [--store DIR] [--deadline-ms N]
//!              [--samples N] [--seed N]
//! stamp sample manifest.json | --corpus  [batch flags]   (batch with sampling on)
//! stamp serve  [--socket PATH] [--store DIR] [--queue N] [--per-client N] [--jobs N]
//!              [--default-deadline-ms N]
//! stamp fuzz   [--iterations N] [--seed N] [--jobs N] [--rounds N] [--samples N] [--out FILE]
//!              [--no-timing] [--no-shrink] [--repro-dir DIR] [--inject-fault KIND]
//! stamp disasm task.s
//! stamp run    task.s [--max-insns N]
//! ```

use std::process::ExitCode;

use stamp::analyzer::{ArtifactStore, SampleParams};
use stamp::{assemble, Annotations, HwConfig, Simulator, StackAnalysis, WcetAnalysis};

/// A CLI failure, split by exit-code class: `Usage` errors (exit 2) are
/// problems with the invocation — unknown flags, missing or unreadable
/// inputs, malformed manifests; `Analysis` errors (exit 1) are problems
/// with the task — assembly errors, missing loop bounds, pin drift,
/// failed batch jobs; `Violation` (exit 3) is a soundness
/// counterexample found by `stamp fuzz` or by a sampled batch job — the
/// one exit code that means "the analyzer, not the invocation or the
/// task, is wrong".
enum CliError {
    Usage(String),
    Analysis(String),
    Violation(String),
}

use CliError::{Analysis, Usage, Violation};

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            Analysis(_) => 1,
            Usage(_) => 2,
            Violation(_) => 3,
        }
    }

    fn message(&self) -> &str {
        match self {
            Analysis(m) | Usage(m) | Violation(m) => m,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stamp: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

fn usage() -> String {
    "usage:\n  \
     stamp wcet   <task.s> [--no-cache|--ideal] [--loop-bound SYM=N]... [--json] [--dot FILE]\n  \
     stamp stack  <task.s> [--entry SYM] [--recursion SYM=N]...\n  \
     stamp batch  <manifest.json> | --corpus  [--jobs N] [--out FILE] [--no-timing] [--check-pins]\n               \
     [--no-artifact-cache] [--repeat N] [--dry-run] [--store DIR] [--deadline-ms N]\n               \
     [--samples N] [--seed N]\n  \
     stamp sample <manifest.json> | --corpus  [batch flags]   (batch with sampling on)\n  \
     stamp serve  [--socket PATH] [--store DIR] [--queue N] [--per-client N] [--jobs N]\n               \
     [--default-deadline-ms N]\n  \
     stamp fuzz   [--iterations N] [--seed N] [--jobs N] [--rounds N] [--samples N] [--out FILE]\n               \
     [--no-timing] [--no-shrink] [--max-shrink-evals N] [--repro-dir DIR] [--inject-fault KIND]\n  \
     stamp disasm <task.s>\n  \
     stamp run    <task.s> [--max-insns N]\n\
     batch flags:\n  \
     --no-artifact-cache  disable cross-job phase-artifact reuse (results are byte-identical)\n  \
     --repeat N           run the request N times against one artifact store (warm-cache passes)\n  \
     --dry-run            print the job matrix and expected per-phase artifact reuse; run nothing\n  \
     --store DIR          persist phase artifacts in DIR and reuse them across processes\n                       \
     (results stay byte-identical; corrupt or truncated stores are\n                       \
     repaired in place; ignored under --no-artifact-cache)\n  \
     --deadline-ms N      per-job wall-clock budget; an over-deadline job becomes a per-job\n                       \
     error (`deadline of N ms exceeded`) and the batch exits 1\n  \
     --samples N          path sampling: every WCET job also makes N loop-bound-weighted walks\n                       \
     of its iCFG and reports an observed-max / mean / percentile\n                       \
     distribution under the sound ILP bound (default 64), overriding any\n                       \
     manifest `sampling` block\n  \
     --seed N             sampling seed (default 0); results are a pure function of\n                       \
     (manifest, --samples, --seed) — byte-identical across --jobs values\n  \
     a sampled maximum above a job's WCET bound (from these flags or a manifest `sampling`\n  \
     block) is a soundness counterexample: the offending jobs are listed and the exit code is 3\n\
     stamp sample ARGS is stamp batch ARGS with sampling on (--samples 64 --seed 0 by default)\n\
     serve flags (a long-lived daemon; one JSON request per line, one JSON response per line):\n  \
     --socket PATH        listen on a unix socket instead of stdin/stdout\n  \
     --store DIR          keep the warm artifact store durable in DIR (write faults degrade\n                       \
     to in-memory with one warning; the daemon keeps serving)\n  \
     --queue N            admission-queue capacity; a full queue answers `overloaded` (default 64)\n  \
     --per-client N       max queued+running jobs per client, 0 = unlimited (default 0)\n  \
     --default-deadline-ms N  deadline for requests that do not carry `deadline_ms`\n                       \
     (measured from admission; expiry answers `timeout`)\n                       \
     SIGTERM or EOF drains admitted jobs, flushes the store, exits 0\n\
     fuzz flags:\n  \
     --iterations N       fuzz jobs to run (default 256); each is a fresh generated program\n  \
     --seed N             campaign seed (default 0); reports are a pure function of it\n  \
     --rounds N           random-input simulation rounds per program (default 3)\n  \
     --samples N          path-sampling walks per program for the oracle's observed-max ≤ bound\n                       \
     leg (default 32; 0 disables it)\n  \
     --no-shrink          keep counterexamples unminimized\n  \
     --max-shrink-evals N delta-debugging budget per counterexample (default 500)\n  \
     --repro-dir DIR      where reproducers are written (default proptest-regressions/fuzz)\n  \
     --inject-fault KIND  deliberately corrupt the oracle to test the harness:\n                       \
     tight-wcet | tight-stack | tight-sample | contains-div\n\
     exit codes:\n  \
     0  success\n  \
     1  analysis failed (assembly error, missing annotation, failed batch job, pin drift)\n  \
     2  bad arguments (unknown flag or command, unreadable input, malformed manifest,\n        \
     unusable --store directory, bad --samples/--seed value)\n  \
     3  soundness violation (stamp fuzz found a counterexample, or a sampled batch job\n        \
     observed a path costlier than its WCET bound)"
        .to_string()
}

fn run(args: &[String]) -> Result<(), CliError> {
    let (cmd, rest) = args.split_first().ok_or_else(|| Usage(usage()))?;
    match cmd.as_str() {
        "wcet" => wcet(rest),
        "stack" => stack(rest),
        "batch" | "sample" => batch(cmd, rest),
        "serve" => serve(rest),
        "fuzz" => fuzz(rest),
        "disasm" => disasm(rest),
        "run" => simulate(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(Usage(format!("unknown command `{other}`\n{}", usage()))),
    }
}

fn load(path: &str) -> Result<stamp::Program, CliError> {
    let src = std::fs::read_to_string(path).map_err(|e| Usage(format!("{path}: {e}")))?;
    assemble(&src).map_err(|e| Analysis(format!("{path}: {e}")))
}

/// Parses `SYM=N`.
fn sym_eq_n(s: &str) -> Result<(String, u64), CliError> {
    let (sym, n) = s.split_once('=').ok_or_else(|| Usage(format!("expected SYM=N, got `{s}`")))?;
    let n: u64 = n.parse().map_err(|_| Usage(format!("bad count in `{s}`")))?;
    Ok((sym.to_string(), n))
}

/// The value following `flag` (e.g. the `FILE` of `--out FILE`).
fn value(flag: &str, what: &str, v: Option<&String>) -> Result<String, CliError> {
    v.cloned().ok_or_else(|| Usage(format!("{flag} needs {what}")))
}

/// The number following `flag`; a missing or malformed one is a usage
/// error.
fn number<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, CliError> {
    v.ok_or_else(|| Usage(format!("{flag} needs a number")))?
        .parse()
        .map_err(|_| Usage(format!("bad {flag} value")))
}

fn wcet(args: &[String]) -> Result<(), CliError> {
    let mut file = None;
    let mut hw = HwConfig::default();
    let mut ann = Annotations::new();
    let mut json = false;
    let mut dot: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-cache" => hw = HwConfig::no_cache(),
            "--ideal" => hw = HwConfig::ideal(),
            "--json" => json = true,
            "--dot" => dot = Some(value(a, "a file", it.next())?),
            "--loop-bound" => {
                let (sym, n) = sym_eq_n(&value(a, "SYM=N", it.next())?)?;
                ann = ann.loop_bound(sym, n);
            }
            f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
            other => return Err(Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let program = load(&file.ok_or_else(|| Usage(usage()))?)?;
    let report = WcetAnalysis::new(&program)
        .hw(hw)
        .annotations(ann)
        .run()
        .map_err(|e| Analysis(e.to_string()))?;
    if json {
        println!("{}", report.to_json());
    } else {
        println!("{}", report.render(&program));
    }
    if let Some(path) = dot {
        std::fs::write(&path, report.to_dot()).map_err(|e| Usage(format!("{path}: {e}")))?;
        eprintln!("wrote annotated CFG to {path}");
    }
    Ok(())
}

fn stack(args: &[String]) -> Result<(), CliError> {
    let mut file = None;
    let mut entry: Option<String> = None;
    let mut ann = Annotations::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--entry" => entry = Some(value(a, "a symbol", it.next())?),
            "--recursion" => {
                let (sym, n) = sym_eq_n(&value(a, "SYM=N", it.next())?)?;
                ann = ann.recursion_depth(sym, n as u32);
            }
            f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
            other => return Err(Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let program = load(&file.ok_or_else(|| Usage(usage()))?)?;
    let analysis = StackAnalysis::new(&program).annotations(ann);
    let report = match &entry {
        Some(sym) => analysis.run_task(sym),
        None => analysis.run(),
    }
    .map_err(|e| Analysis(e.to_string()))?;
    println!(
        "worst-case stack usage{}: {} bytes ({} mode)",
        entry.map(|e| format!(" of task `{e}`")).unwrap_or_default(),
        report.bound,
        report.mode
    );
    for (name, f) in &report.per_function {
        println!("  {name:<20} local {:>5}  with callees {:>5}", f.local, f.usage);
    }
    Ok(())
}

/// `stamp batch` and `stamp sample`: run a whole job matrix (a JSON
/// manifest or the built-in EVA32 corpus) across a worker pool and emit
/// one merged machine-readable report. `stamp sample` is `stamp batch`
/// with path sampling forced on.
///
/// `--samples`/`--seed` make every WCET job also walk the iCFG —
/// loop-bound-weighted, seed-pinned — through the same cache/pipeline
/// cost model the ILP priced, and report the observed-max / mean /
/// percentile WCET distribution next to the sound bound. Every sampled
/// path is a feasible ILP point, so `observed-max > WCET`, from these
/// flags or from a manifest `sampling` block, is a soundness
/// counterexample (exit 3).
fn batch(cmd: &str, args: &[String]) -> Result<(), CliError> {
    let mut manifest: Option<String> = None;
    let mut corpus = false;
    let mut jobs = stamp::exec::default_workers();
    let mut out: Option<String> = None;
    let mut no_timing = false;
    let mut check_pins = false;
    let mut artifact_cache = true;
    let mut repeat: usize = 1;
    let mut dry_run = false;
    let mut store_dir: Option<String> = None;
    let mut deadline: Option<std::time::Duration> = None;
    let mut sampling = (cmd == "sample").then(SampleParams::default);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--corpus" => corpus = true,
            "--check-pins" => check_pins = true,
            "--no-timing" => no_timing = true,
            "--no-artifact-cache" => artifact_cache = false,
            "--dry-run" => dry_run = true,
            "--store" => store_dir = Some(value(a, "a directory", it.next())?),
            "--deadline-ms" => {
                deadline = Some(std::time::Duration::from_millis(number(a, it.next())?));
            }
            "--jobs" => jobs = number(a, it.next())?,
            "--repeat" => {
                repeat = number(a, it.next())?;
                if repeat == 0 {
                    return Err(Usage("--repeat must be at least 1".into()));
                }
            }
            "--samples" => {
                sampling.get_or_insert_with(SampleParams::default).samples = number(a, it.next())?;
            }
            "--seed" => {
                sampling.get_or_insert_with(SampleParams::default).seed = number(a, it.next())?
            }
            "--out" => out = Some(value(a, "a file", it.next())?),
            f if !f.starts_with('-') && manifest.is_none() => manifest = Some(f.to_string()),
            other => return Err(Usage(format!("unexpected argument `{other}`"))),
        }
    }

    let mut request = load_request(cmd, &manifest, corpus)?;
    if check_pins && !corpus {
        return Err(Usage("--check-pins requires --corpus (pins cover the corpus)".into()));
    }
    // The CLI's sampling knobs apply uniformly: every WCET job samples
    // with them, overriding any per-variant manifest `sampling` block.
    if let Some(params) = sampling {
        for job in request.jobs.iter_mut().filter(|j| j.wcet) {
            job.sampling = Some(params);
        }
    }
    if dry_run {
        print_batch_plan(&request);
        return Ok(());
    }

    let store = if artifact_cache {
        open_store(cmd, store_dir.as_deref())?
    } else {
        // `--store` is a cache backend; with the cache off there is
        // nothing to persist, so the flag is documented as ignored.
        if store_dir.is_some() {
            eprintln!("{cmd}: --no-artifact-cache is set; ignoring --store");
        }
        ArtifactStore::disabled()
    };
    let mut report = stamp::analyzer::run_batch_deadline(&request, jobs, &store, deadline)
        .map_err(|e| Analysis(e.to_string()))?;
    for pass in 2..=repeat {
        eprintln!("{}", batch_pass_summary(cmd, &report, &store, pass - 1, repeat));
        report = stamp::analyzer::run_batch_deadline(&request, jobs, &store, deadline)
            .map_err(|e| Analysis(e.to_string()))?;
    }
    // A disk fault during any pass degrades the store to in-memory-only;
    // surface its single warning rather than failing the batch.
    if let Some(w) = store.take_disk_warning() {
        eprintln!("{cmd}: store: {w}");
    }

    write_report(out.as_deref(), if no_timing { report.results_json() } else { report.to_json() })?;
    eprintln!("{}", batch_pass_summary(cmd, &report, &store, repeat, repeat));
    let sampled: Vec<_> =
        report.results.iter().filter_map(|r| Some((r, r.sampling.as_ref()?))).collect();
    if !sampled.is_empty() {
        let walks: usize = sampled.iter().map(|(_, s)| s.completed).sum();
        // Tightness: how close the sampled observed-max comes to the
        // sound bound, at its worst across the matrix (sampling is a
        // lower bound, so ≤ 100% unless the analyzer is broken).
        let tightness = sampled
            .iter()
            .filter_map(|(r, s)| Some(s.observed_max? as f64 / r.wcet? as f64 * 100.0))
            .fold(f64::NAN, f64::max);
        eprintln!(
            "{cmd}: {} sampled jobs, {walks} completed walks, worst observed/WCET {tightness:.0}%",
            sampled.len()
        );
    }

    let violations = report.sampling_violations();
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("{cmd}: UNSOUND {v}");
        }
        return Err(Violation(format!(
            "{} job(s) sampled a path above the WCET bound",
            violations.len()
        )));
    }
    let drift = if check_pins { stamp::suite::pins::check_corpus(&report.results) } else { vec![] };
    if !drift.is_empty() {
        for d in &drift {
            eprintln!("{cmd}: DRIFT {d}");
        }
        return Err(Analysis(format!("{} job(s) diverged from pins", drift.len())));
    }
    if report.errors() > 0 {
        return Err(Analysis(format!("{} {cmd} job(s) failed", report.errors())));
    }
    Ok(())
}

/// Resolves a job matrix for `stamp batch` / `stamp sample`: a JSON
/// manifest file or (with `--corpus`) the built-in EVA32 corpus.
fn load_request(
    cmd: &str,
    manifest: &Option<String>,
    corpus: bool,
) -> Result<stamp::BatchRequest, CliError> {
    match (manifest, corpus) {
        (Some(_), true) | (None, false) => {
            Err(Usage(format!("{cmd} needs a manifest file or --corpus (not both)\n{}", usage())))
        }
        (None, true) => Ok(stamp::suite::corpus_request()),
        (Some(path), false) => {
            let text = std::fs::read_to_string(path).map_err(|e| Usage(format!("{path}: {e}")))?;
            let base = std::path::Path::new(path)
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
                .unwrap_or(std::path::Path::new("."));
            stamp::suite::parse_manifest(&text, base).map_err(|e| Usage(e.to_string()))
        }
    }
}

/// Opens `cmd`'s artifact store: durable in `dir` when `--store` was
/// given (a damaged log is repaired with a warning), in memory otherwise.
fn open_store(cmd: &str, dir: Option<&str>) -> Result<ArtifactStore, CliError> {
    let Some(dir) = dir else { return Ok(ArtifactStore::new()) };
    let (store, warnings) = ArtifactStore::with_disk(std::path::Path::new(dir))
        .map_err(|e| Usage(format!("--store {dir}: {e}")))?;
    for w in &warnings {
        eprintln!("{cmd}: store: {w}");
    }
    Ok(store)
}

/// Writes a JSON report, newline-terminated, to `--out FILE` or stdout.
fn write_report(out: Option<&str>, json: stamp::analyzer::Json) -> Result<(), CliError> {
    let rendered = format!("{json}\n");
    match out {
        Some(path) => std::fs::write(path, rendered).map_err(|e| Usage(format!("{path}: {e}"))),
        None => {
            print!("{rendered}");
            Ok(())
        }
    }
}

/// `stamp serve`: the fault-tolerant long-lived analysis daemon. One
/// warm artifact store (optionally disk-backed) lives across requests;
/// a bounded queue rejects overload, per-request deadlines cancel
/// runaway fixpoints, a panicking job yields one `job_panicked`
/// response, and SIGTERM/EOF drains gracefully. See `stamp_serve` for
/// the protocol.
fn serve(args: &[String]) -> Result<(), CliError> {
    use stamp::serve::{serve_stdio, serve_unix, Engine, EngineConfig};

    let mut socket: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut config = EngineConfig { workers: stamp::exec::default_workers(), ..Default::default() };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(value(a, "a path", it.next())?),
            "--store" => store_dir = Some(value(a, "a directory", it.next())?),
            "--queue" => {
                config.queue = number(a, it.next())?;
                if config.queue == 0 {
                    return Err(Usage("--queue must be at least 1".into()));
                }
            }
            "--per-client" => config.per_client = number(a, it.next())?,
            "--jobs" => config.workers = number(a, it.next())?,
            "--default-deadline-ms" => {
                config.default_deadline =
                    Some(std::time::Duration::from_millis(number(a, it.next())?));
            }
            other => return Err(Usage(format!("unexpected argument `{other}`"))),
        }
    }

    let engine = Engine::new(open_store("serve", store_dir.as_deref())?, config);
    let code = match &socket {
        Some(path) => serve_unix(&engine, std::path::Path::new(path))
            .map_err(|e| Usage(format!("--socket {path}: {e}")))?,
        None => serve_stdio(&engine),
    };
    if code == 0 {
        Ok(())
    } else {
        Err(Analysis(format!("serve exited with code {code}")))
    }
}

/// `stamp fuzz`: a differential soundness campaign — thousands of
/// generated programs, each analyzed and simulated under a
/// (HwConfig × ValueOptions) sweep, every observation checked against
/// the static bounds. Counterexamples are delta-debugged to minimal
/// reproducers and persisted; finding any exits 3.
fn fuzz(args: &[String]) -> Result<(), CliError> {
    use stamp::suite::fuzz::{run_campaign, FuzzConfig};
    use stamp::suite::oracle::FaultInjection;

    let mut cfg = FuzzConfig::default();
    let mut jobs = stamp::exec::default_workers();
    let mut out: Option<String> = None;
    let mut no_timing = false;
    let mut repro_dir = std::path::PathBuf::from("proptest-regressions/fuzz");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iterations" => cfg.iterations = number(a, it.next())?,
            "--seed" => cfg.seed = number(a, it.next())?,
            "--rounds" => cfg.rounds = number(a, it.next())?,
            "--samples" => cfg.samples = number(a, it.next())?,
            "--jobs" => jobs = number(a, it.next())?,
            "--max-shrink-evals" => cfg.max_shrink_evals = number(a, it.next())?,
            "--no-shrink" => cfg.shrink = false,
            "--no-timing" => no_timing = true,
            "--out" => out = Some(value(a, "a file", it.next())?),
            "--repro-dir" => repro_dir = value(a, "a directory", it.next())?.into(),
            "--inject-fault" => {
                cfg.fault = Some(match value(a, "a kind", it.next())?.as_str() {
                    "tight-wcet" => FaultInjection::TightenWcet(50),
                    "tight-stack" => FaultInjection::TightenStack(50),
                    "tight-sample" => FaultInjection::TightenSample(1),
                    "contains-div" => FaultInjection::FlagMnemonic("div".to_string()),
                    other => {
                        return Err(Usage(format!(
                            "unknown fault `{other}` (tight-wcet | tight-stack | tight-sample | \
                             contains-div)"
                        )))
                    }
                });
            }
            other => return Err(Usage(format!("unexpected argument `{other}`"))),
        }
    }
    cfg.repro_dir = Some(repro_dir);

    let report = run_campaign(&cfg, jobs).map_err(|e| Analysis(e.to_string()))?;

    write_report(out.as_deref(), if no_timing { report.results_json() } else { report.to_json() })?;
    eprintln!(
        "fuzz: {} programs × {} variants on {} workers ({} cores) in {:.1} ms — {:.0} programs/s, \
         {} simulation rounds, {} violation(s)",
        report.programs,
        report.variants.len(),
        report.workers,
        report.cores,
        report.wall_ms,
        report.throughput(),
        report.sim_runs,
        report.violations(),
    );
    if report.violations() > 0 {
        for f in &report.findings {
            eprintln!(
                "fuzz: VIOLATION job {} seed {} variant {} ({}): {} [{} -> {} lines{}]",
                f.job,
                f.seed,
                f.variant,
                f.shape,
                f.message,
                f.original_lines,
                f.shrunk_lines,
                f.repro_path.as_deref().map(|p| format!("; reproducer {p}")).unwrap_or_default(),
            );
        }
        return Err(Violation(format!(
            "{} soundness violation(s) — reproducers written",
            report.violations()
        )));
    }
    Ok(())
}

/// The one-line stderr summary of a batch pass, including the
/// artifact-cache statistics when caching was on and the durable-store
/// statistics when `--store` was given.
fn batch_pass_summary(
    cmd: &str,
    report: &stamp::BatchReport,
    store: &ArtifactStore,
    pass: usize,
    passes: usize,
) -> String {
    let mut line = format!(
        "{cmd}{}: {} jobs on {} workers ({} cores) in {:.1} ms — {:.0} jobs/s, {} failed",
        if passes > 1 { format!(" pass {pass}/{passes}") } else { String::new() },
        report.results.len(),
        report.workers,
        report.cores,
        report.wall_ms,
        report.throughput(),
        report.errors(),
    );
    if report.artifacts.enabled {
        line.push_str(&format!(
            "; artifact cache: {} hits / {} misses ({:.0}% reuse)",
            report.artifacts.hits() + report.artifacts.hits_disk(),
            report.artifacts.misses(),
            report.artifacts.hit_rate() * 100.0,
        ));
        if store.disk_path().is_some() {
            line.push_str(&format!(
                "; disk store: {} disk hits ({:.0}% warm), {} artifacts on disk",
                report.artifacts.hits_disk(),
                report.artifacts.disk_hit_rate() * 100.0,
                store.disk_artifact_count(),
            ));
        }
    }
    line
}

/// `stamp batch --dry-run`: the resolved job matrix plus the expected
/// per-phase artifact reuse, without running any analysis.
fn print_batch_plan(request: &stamp::BatchRequest) {
    let plan = stamp::suite::plan(request);
    println!("batch plan: {} jobs", plan.jobs.len());
    println!("  {:<28} {:<16} {:<12} knobs", "job", "target", "variant");
    for j in &plan.jobs {
        println!(
            "  {:<28} {:<16} {:<12} {}{}",
            j.name,
            j.target,
            j.variant,
            j.knobs,
            j.error.as_ref().map(|e| format!("  [will fail: {e}]")).unwrap_or_default(),
        );
    }
    println!("\nexpected phase-artifact reuse (cold store):");
    println!("  {:<12} {:>8} {:>8} {:>14}", "phase", "requests", "unique", "expected hits");
    for p in &plan.phases {
        println!(
            "  {:<12} {:>8} {:>8} {:>14}",
            p.phase.name(),
            p.requests,
            p.unique,
            p.expected_hits()
        );
    }
    println!(
        "  {:<12} {:>8} {:>8} {:>14}  ({:.0}% expected reuse)",
        "total",
        plan.requests(),
        plan.unique(),
        plan.requests() - plan.unique(),
        plan.expected_hit_rate() * 100.0,
    );
    println!(
        "\n(estimate: indirect-jump feedback iterations and recursive-task \
         fallbacks resolve at run time)"
    );
}

fn disasm(args: &[String]) -> Result<(), CliError> {
    let file = args.first().ok_or_else(|| Usage(usage()))?;
    let program = load(file)?;
    let (lo, hi) = program.text_range();
    println!("; entry: {} ({:#010x})", program.symbols.format_addr(program.entry), program.entry);
    for addr in (lo..hi).step_by(4) {
        if let Some(name) = program.symbols.name_at(addr) {
            println!("{name}:");
        }
        match program.decode_at(addr) {
            Ok(insn) => println!("  {addr:#010x}:  {insn}"),
            Err(e) => println!("  {addr:#010x}:  <not code: {e}>"),
        }
    }
    for s in &program.sections {
        if !s.kind.is_rom() || s.name == ".text" {
            continue;
        }
        println!("\n; section {} at {:#010x} ({} bytes)", s.name, s.base, s.size);
    }
    Ok(())
}

fn simulate(args: &[String]) -> Result<(), CliError> {
    let mut file = None;
    let mut max_insns: u64 = 10_000_000;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-insns" => max_insns = number(a, it.next())?,
            f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
            other => return Err(Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let program = load(&file.ok_or_else(|| Usage(usage()))?)?;
    let hw = HwConfig::default();
    let mut sim = Simulator::new(&program, &hw);
    let res = sim.run(max_insns).map_err(|e| Analysis(e.to_string()))?;
    println!("status:        {:?}", res.status);
    println!("cycles:        {}", res.cycles);
    println!("instructions:  {}", res.retired);
    println!("max stack:     {} bytes", res.max_stack);
    println!(
        "I-cache:       {} hits / {} misses    D-cache: {} hits / {} misses",
        res.i_hits, res.i_misses, res.d_hits, res.d_misses
    );
    Ok(())
}
