//! Regenerates every experiment table/figure E1–E10 of the paper's
//! evaluation (see DESIGN.md for the index), as Markdown on stdout.
//!
//! ```sh
//! cargo run --release --bin experiments
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use stamp::ai::VivuConfig;
use stamp::suite::{benchmarks, generate, Benchmark, GenConfig};
use stamp::value::{DomainKind, ValueOptions};
use stamp::{
    assemble, AnalysisConfig, AnalysisError, HwConfig, OsekSystem, StackAnalysis, Task,
    WcetAnalysis, WcetReport,
};

fn main() {
    let hw = HwConfig::default();
    e1_wcet_vs_observed(&hw);
    e2_stack_vs_observed(&hw);
    e3_value_precision();
    e4_infeasible_paths();
    e5_cache_classification(&hw);
    e6_scaling();
    e7_domain_ablation();
    e8_osek();
    e9_cache_sweep();
    e10_vivu_ablation();
}

fn header(id: &str, claim: &str) {
    println!("\n## {id} — {claim}\n");
}

/// Runs the full WCET pipeline on a benchmark under `config`; the
/// ablation tables, where weaker domains legitimately fail, report the
/// error instead.
fn try_analyze(bench: &Benchmark, config: AnalysisConfig) -> Result<WcetReport, AnalysisError> {
    let program = bench.program();
    WcetAnalysis::new(&program).config(config).annotations(bench.annotations()).run()
}

/// [`try_analyze`] for tables where every analysis must succeed.
fn analyze(bench: &Benchmark, config: AnalysisConfig) -> WcetReport {
    try_analyze(bench, config).unwrap_or_else(|e| panic!("{}: {e}", bench.name))
}

/// Worst observed cycles/stack over `runs` random runs plus adversarial
/// patterns, with a fixed seed for reproducibility.
fn observed(bench: &Benchmark, hw: &HwConfig, runs: usize, seed: u64) -> (u64, u32) {
    let program = bench.program();
    bench.worst_observed(&program, hw, runs, &mut StdRng::seed_from_u64(seed))
}

/// Formats a ratio as e.g. `1.27x`.
fn ratio(bound: u64, observed: u64) -> String {
    if observed == 0 {
        "-".to_string()
    } else {
        format!("{:.2}x", bound as f64 / observed as f64)
    }
}

/// E1: WCET bound vs worst observed execution.
fn e1_wcet_vs_observed(hw: &HwConfig) {
    header(
        "E1",
        "WCET bounds vs. simulated worst case (\"tight upper bounds … in reasonable time\")",
    );
    println!("| benchmark | WCET bound | worst observed | ratio | analysis time |");
    println!("|---|---:|---:|---:|---:|");
    for b in benchmarks().iter().filter(|b| b.supports_wcet) {
        let report = analyze(b, AnalysisConfig::default());
        let (obs, _) = observed(b, hw, 50, 0xE1);
        println!(
            "| {} | {} | {} | {} | {:.1} ms |",
            b.name,
            report.wcet,
            obs,
            ratio(report.wcet, obs),
            report.analysis_seconds() * 1e3
        );
    }
}

/// E2: stack bound vs observed watermark.
fn e2_stack_vs_observed(hw: &HwConfig) {
    header("E2", "stack bounds vs. simulated watermark (StackAnalyzer, §2)");
    println!("| benchmark | stack bound | observed | exact? | mode |");
    println!("|---|---:|---:|---|---|");
    for b in benchmarks() {
        let program = b.program();
        let report = StackAnalysis::new(&program)
            .hw(*hw)
            .annotations(b.annotations())
            .run()
            .expect("stack analysis");
        let (_, obs) = observed(&b, hw, 20, 0xE2);
        println!(
            "| {} | {} | {} | {} | {} |",
            b.name,
            report.bound,
            obs,
            if report.bound == obs { "yes" } else { "no" },
            report.mode
        );
    }
}

/// E3: value-analysis address precision.
fn e3_value_precision() {
    header(
        "E3",
        "address precision (\"only a few indirect accesses cannot be determined exactly\")",
    );
    println!("| benchmark | exact | bounded | unknown | % determined |");
    println!("|---|---:|---:|---:|---:|");
    let mut tot = (0usize, 0usize, 0usize);
    for b in benchmarks().iter().filter(|b| b.supports_wcet) {
        let r = analyze(b, AnalysisConfig::default());
        let p = r.precision;
        tot = (tot.0 + p.exact, tot.1 + p.bounded, tot.2 + p.unknown);
        let pct = 100.0 * (p.exact + p.bounded) as f64 / p.total().max(1) as f64;
        println!("| {} | {} | {} | {} | {pct:.0}% |", b.name, p.exact, p.bounded, p.unknown);
    }
    let total = tot.0 + tot.1 + tot.2;
    println!(
        "| **all** | {} | {} | {} | {:.0}% |",
        tot.0,
        tot.1,
        tot.2,
        100.0 * (tot.0 + tot.1) as f64 / total.max(1) as f64
    );
}

/// E4: infeasible-path pruning.
fn e4_infeasible_paths() {
    header(
        "E4",
        "constant conditions and infeasible paths (\"need not be determined in the first place\")",
    );
    println!("| benchmark | constant conds | infeasible edges | WCET (pruned) | WCET (no pruning) | saved |");
    println!("|---|---:|---:|---:|---:|---:|");
    for name in ["statemate", "insertsort", "switchcase", "crc", "matmult"] {
        let b = benchmarks().into_iter().find(|b| b.name == name).unwrap();
        let pruned = analyze(&b, AnalysisConfig::default());
        let cfg = AnalysisConfig { use_infeasible: false, ..AnalysisConfig::default() };
        let loose = analyze(&b, cfg);
        let saved = 100.0 * (loose.wcet as f64 - pruned.wcet as f64) / loose.wcet as f64;
        println!(
            "| {} | {} | {} | {} | {} | {saved:.0}% |",
            name, pruned.constant_branches, pruned.infeasible_edges, pruned.wcet, loose.wcet
        );
    }
}

/// E5: cache classification rates and the all-miss comparison.
fn e5_cache_classification(hw: &HwConfig) {
    header("E5", "cache classification (AH/AM/PS/NC) and WCET vs. the all-miss assumption");
    println!("| benchmark | fetch AH | fetch AM | fetch PS | fetch NC | data AH | data AM | data PS | data NC | WCET | WCET all-miss |");
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for b in benchmarks().iter().filter(|b| b.supports_wcet) {
        let r = analyze(b, AnalysisConfig::default());
        // All-miss: analyze against a cache-less model. Because the flat
        // penalty covers both hit and miss costs of the real hardware,
        // this is exactly the sound bound one gets without cache analysis.
        let allmiss_cfg = AnalysisConfig {
            hw: HwConfig { icache: None, dcache: None, ..*hw },
            ..AnalysisConfig::default()
        };
        let allmiss = analyze(b, allmiss_cfg);
        let (f, d) = (r.fetch_stats, r.data_stats);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            b.name,
            f.hit,
            f.miss,
            f.persistent,
            f.unclassified,
            d.hit,
            d.miss,
            d.persistent,
            d.unclassified,
            r.wcet,
            allmiss.wcet
        );
    }
}

/// E6: analysis time vs. program size (figure series).
fn e6_scaling() {
    header("E6", "analysis time vs. program size (\"efficient method\", figure series)");
    println!("| instructions | supergraph nodes | solver evaluations | analysis time |");
    println!("|---:|---:|---:|---:|");
    let mut rng = StdRng::seed_from_u64(0xE6);
    for constructs in [2usize, 4, 8, 16, 32, 64] {
        let cfg = GenConfig { constructs, functions: 2, ..GenConfig::default() };
        let src = generate(&mut rng, &cfg);
        let program = assemble(&src).expect("generated");
        let report = WcetAnalysis::new(&program).run().expect("analysis");
        println!(
            "| {} | {} | {} | {:.1} ms |",
            report.insns,
            report.nodes,
            report.evaluations,
            report.analysis_seconds() * 1e3
        );
    }
}

/// E7: value-domain hierarchy ablation.
fn e7_domain_ablation() {
    header("E7", "domain hierarchy (constants ⊂ intervals ⊂ strided intervals, §1)");
    println!("| benchmark | const-prop WCET | interval WCET | strided WCET |");
    println!("|---|---:|---:|---:|");
    for name in ["fibcall", "crc", "cnt", "fir", "insertsort", "arraysum"] {
        let b = benchmarks().into_iter().find(|b| b.name == name).unwrap();
        let mut row = format!("| {name} |");
        for domain in [DomainKind::Const, DomainKind::Interval, DomainKind::Strided] {
            let cfg = AnalysisConfig {
                value: ValueOptions { domain, ..ValueOptions::default() },
                ..AnalysisConfig::default()
            };
            match try_analyze(&b, cfg) {
                Ok(r) => row.push_str(&format!(" {} |", r.wcet)),
                Err(_) => row.push_str(" fails (no loop bound) |"),
            }
        }
        println!("{row}");
    }
}

/// E8: OSEK whole-system stack.
fn e8_osek() {
    header("E8", "whole-ECU stack over preemption chains (ref [3])");
    let image = r#"
        .text
main:   halt
t_bg:   addi sp, sp, -192
        addi sp, sp, 192
        ret
t_ctl:  addi sp, sp, -96
        sw   lr, 0(sp)
        call helper
        lw   lr, 0(sp)
        addi sp, sp, 96
        ret
t_comm: addi sp, sp, -120
        addi sp, sp, 120
        ret
t_alarm: addi sp, sp, -40
        addi sp, sp, 40
        ret
helper: addi sp, sp, -64
        addi sp, sp, 64
        ret
"#;
    let program = assemble(image).expect("assembles");
    let mut tasks = Vec::new();
    println!("| task | priority | preemptable | stack bound |");
    println!("|---|---:|---|---:|");
    for (entry, prio, preempt) in
        [("t_bg", 1, true), ("t_ctl", 2, true), ("t_comm", 3, false), ("t_alarm", 4, true)]
    {
        let bound = StackAnalysis::new(&program).run_task(entry).expect("task").bound;
        println!("| {entry} | {prio} | {} | {bound} |", if preempt { "yes" } else { "no" });
        tasks.push(if preempt {
            Task::new(entry, prio, bound)
        } else {
            Task::non_preemptable(entry, prio, bound)
        });
    }
    let sys = OsekSystem::new(tasks);
    println!();
    println!("naive reservation (Σ tasks): **{} bytes**", sys.naive_bound());
    println!("preemption-chain bound:      **{} bytes**", sys.system_bound());
    println!(
        "saving: **{} bytes ({:.0}%)**",
        sys.naive_bound() - sys.system_bound(),
        100.0 * (sys.naive_bound() - sys.system_bound()) as f64 / sys.naive_bound() as f64
    );
}

/// E9: WCET vs cache size (figure series).
fn e9_cache_sweep() {
    header("E9", "WCET bound vs. cache size (\"most cost-efficient hardware\", §4; figure series)");
    println!("| cache bytes | matmult | fir | bsort |");
    println!("|---:|---:|---:|---:|");
    for bytes in [64u32, 128, 256, 512, 1024, 4096] {
        let mut row = format!("| {bytes} |");
        for name in ["matmult", "fir", "bsort"] {
            let b = benchmarks().into_iter().find(|b| b.name == name).unwrap();
            let cfg = AnalysisConfig {
                hw: HwConfig::with_cache_bytes(bytes),
                ..AnalysisConfig::default()
            };
            let r = analyze(&b, cfg);
            row.push_str(&format!(" {} |", r.wcet));
        }
        println!("{row}");
    }
    // The uncached endpoint for reference.
    let mut row = String::from("| none |");
    for name in ["matmult", "fir", "bsort"] {
        let b = benchmarks().into_iter().find(|b| b.name == name).unwrap();
        let cfg = AnalysisConfig { hw: HwConfig::no_cache(), ..AnalysisConfig::default() };
        row.push_str(&format!(" {} |", analyze(&b, cfg).wcet));
    }
    println!("{row}");
}

/// E10: VIVU context ablation.
fn e10_vivu_ablation() {
    header("E10", "VIVU contexts (virtual unrolling) ablation");
    println!("| benchmark | contexts off (peel 0) | full VIVU (peel 1) | nodes off/on |");
    println!("|---|---:|---:|---|");
    for name in ["fibcall", "insertsort", "bsort", "matmult", "crc"] {
        let b = benchmarks().into_iter().find(|b| b.name == name).unwrap();
        let full = analyze(&b, AnalysisConfig::default());
        let cfg = AnalysisConfig { vivu: VivuConfig::no_unrolling(), ..AnalysisConfig::default() };
        let flat = analyze(&b, cfg);
        println!("| {} | {} | {} | {}/{} |", name, flat.wcet, full.wcet, flat.nodes, full.nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_one_benchmark() {
        let b = benchmarks().into_iter().find(|b| b.name == "fibcall").unwrap();
        let report = analyze(&b, AnalysisConfig::default());
        let (obs, _) = observed(&b, &HwConfig::default(), 3, 1);
        assert!(report.wcet >= obs);
        assert_eq!(ratio(10, 5), "2.00x");
        assert_eq!(ratio(10, 0), "-");
    }
}
