//! Regression pins for the whole corpus: WCET and stack bounds, solver
//! `evaluations` and cache classification counts must match the values
//! recorded with the pre-refactor kernel exactly. Guards against
//! accidental precision or termination changes from worklist reordering,
//! state-sharing bugs, or cache-set representation drift.
//!
//! On drift, each test prints the measured values as the source of its
//! pin table, so an intended change is fixed by pasting them into
//! `crates/suite/src/pins.rs`.

use stamp_core::{AnalysisConfig, StackAnalysis, WcetAnalysis};
use stamp_suite::pins::{CorpusPin, CORPUS, SCALING_EVALS};
use stamp_suite::{benchmarks, Benchmark};

#[test]
fn every_corpus_benchmark_is_pinned() {
    let names: Vec<&str> = benchmarks().iter().map(|b| b.name).collect();
    for b in &names {
        assert!(CORPUS.iter().any(|p| p.name == *b), "benchmark {b} has no pin");
    }
    for p in CORPUS {
        assert!(names.contains(&p.name), "pin {} has no benchmark", p.name);
    }
}

/// Measures one benchmark in pin form.
fn measure(b: &Benchmark) -> CorpusPin {
    let program = b.program();
    let stack = StackAnalysis::new(&program)
        .annotations(b.annotations())
        .run()
        .expect("stack analysis")
        .bound;
    if !b.supports_wcet {
        return CorpusPin {
            name: b.name,
            wcet: None,
            stack,
            evaluations: 0,
            fetch: [0; 4],
            data: [0; 4],
        };
    }
    let r = WcetAnalysis::new(&program)
        .config(AnalysisConfig::default())
        .annotations(b.annotations())
        .run()
        .expect("wcet analysis");
    let (f, d) = (&r.fetch_stats, &r.data_stats);
    CorpusPin {
        name: b.name,
        wcet: Some(r.wcet),
        stack,
        evaluations: r.evaluations,
        fetch: [f.hit, f.miss, f.persistent, f.unclassified],
        data: [d.hit, d.miss, d.persistent, d.unclassified],
    }
}

#[test]
fn corpus_results_match_pins_bit_for_bit() {
    let measured: Vec<CorpusPin> = benchmarks().iter().map(measure).collect();
    let drifted: Vec<&str> = measured
        .iter()
        .filter(|m| CORPUS.iter().find(|p| p.name == m.name) != Some(*m))
        .map(|m| m.name)
        .collect();
    if !drifted.is_empty() {
        let table: String = measured
            .iter()
            .map(|p| {
                format!(
                    "    CorpusPin {{ name: {:?}, wcet: {:?}, stack: {}, evaluations: {}, \
                     fetch: {:?}, data: {:?} }},\n",
                    p.name, p.wcet, p.stack, p.evaluations, p.fetch, p.data
                )
            })
            .collect();
        panic!(
            "drift from pinned kernel results in {drifted:?}. If intended, replace the \
             body of `CORPUS` in crates/suite/src/pins.rs with:\n{table}"
        );
    }
}

#[test]
fn scaling_series_evaluations_match_pins() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stamp_isa::asm::assemble;
    use stamp_suite::{generate, GenConfig};

    let mut rng = StdRng::seed_from_u64(0xE6);
    let measured: Vec<(usize, u64)> = SCALING_EVALS
        .iter()
        .map(|&(constructs, _)| {
            let cfg = GenConfig { constructs, functions: 2, ..GenConfig::default() };
            let src = generate(&mut rng, &cfg);
            let program = assemble(&src).expect("generated");
            let report = WcetAnalysis::new(&program).run().expect("analysis");
            (constructs, report.evaluations)
        })
        .collect();
    if measured != SCALING_EVALS {
        let table: String = measured.iter().map(|(c, e)| format!("    ({c}, {e}),\n")).collect();
        panic!(
            "E6 scaling series: solver evaluations drifted. If intended, replace the body \
             of `SCALING_EVALS` in crates/suite/src/pins.rs with:\n{table}"
        );
    }
}
