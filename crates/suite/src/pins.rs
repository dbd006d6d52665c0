//! Pinned analysis results for the whole corpus.
//!
//! These values were recorded with the **pre-refactor** kernel (commit
//! 848c9d7, `BTreeSet` worklist, per-edge `State::clone`, `BTreeMap`
//! cache sets) and gate every later kernel change: the solver rework of
//! the allocation-lean kernel must reproduce them **bit-identically** —
//! same WCET and stack bounds, same cache classification counts, same
//! solver `evaluations` — or the worklist reordering changed analysis
//! semantics rather than just its speed.
//!
//! Checked by the `corpus_pins` regression test and by `stamp batch
//! --corpus --check-pins` (the CI `batch-smoke` job). On drift, `cargo
//! test -p stamp_suite --test corpus_pins` prints the measured values
//! in the table format below; paste them in — but only after convincing
//! yourself the drift is an intended precision change, not an accident.

use stamp_core::JobResult;

/// Pinned per-benchmark analysis invariants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorpusPin {
    /// Benchmark name ([`crate::benchmarks`]).
    pub name: &'static str,
    /// WCET bound in cycles; `None` for stack-only (recursive) tasks.
    pub wcet: Option<u64>,
    /// Stack bound in bytes.
    pub stack: u32,
    /// Total solver node evaluations (value + cache + pipeline), 0 for
    /// stack-only tasks.
    pub evaluations: u64,
    /// I-cache classifications `[always-hit, always-miss, persistent,
    /// not-classified]`.
    pub fetch: [usize; 4],
    /// D-cache classifications, same order.
    pub data: [usize; 4],
}

/// The pinned corpus results (see module docs for provenance).
#[rustfmt::skip] // table: one pin per line, matching the corpus_pins drift output
pub const CORPUS: &[CorpusPin] = &[
    CorpusPin { name: "fibcall", wcet: Some(242), stack: 0, evaluations: 20, fetch: [11, 3, 0, 0], data: [0, 0, 0, 0] },
    CorpusPin { name: "insertsort", wcet: Some(1090), stack: 0, evaluations: 75, fetch: [42, 6, 1, 0], data: [1, 1, 3, 0] },
    CorpusPin { name: "bsort", wcet: Some(1468), stack: 0, evaluations: 96, fetch: [42, 5, 0, 0], data: [3, 1, 4, 0] },
    CorpusPin { name: "matmult", wcet: Some(4680), stack: 0, evaluations: 142, fetch: [212, 10, 0, 0], data: [2, 2, 12, 0] },
    CorpusPin { name: "crc", wcet: Some(443), stack: 0, evaluations: 15, fetch: [22, 5, 0, 0], data: [1, 2, 1, 0] },
    CorpusPin { name: "fir", wcet: Some(1824), stack: 0, evaluations: 58, fetch: [79, 7, 0, 0], data: [1, 2, 5, 0] },
    CorpusPin { name: "bs", wcet: Some(299), stack: 0, evaluations: 64, fetch: [28, 7, 1, 0], data: [0, 2, 0, 1] },
    CorpusPin { name: "cnt", wcet: Some(286), stack: 0, evaluations: 55, fetch: [20, 4, 0, 0], data: [0, 1, 1, 0] },
    CorpusPin { name: "switchcase", wcet: Some(279), stack: 0, evaluations: 66, fetch: [30, 8, 3, 0], data: [2, 2, 0, 0] },
    CorpusPin { name: "prime", wcet: Some(385), stack: 0, evaluations: 57, fetch: [14, 3, 0, 0], data: [0, 0, 0, 0] },
    CorpusPin { name: "statemate", wcet: Some(284), stack: 0, evaluations: 43, fetch: [22, 6, 0, 0], data: [0, 1, 1, 0] },
    CorpusPin { name: "nested", wcet: Some(134), stack: 112, evaluations: 34, fetch: [18, 6, 0, 0], data: [0, 2, 0, 0] },
    CorpusPin { name: "arraysum", wcet: Some(3243), stack: 0, evaluations: 18, fetch: [16, 3, 0, 0], data: [0, 1, 1, 0] },
    CorpusPin { name: "fdct", wcet: Some(195), stack: 0, evaluations: 16, fetch: [31, 7, 0, 0], data: [4, 1, 3, 0] },
    CorpusPin { name: "ns", wcet: Some(1735), stack: 0, evaluations: 184, fetch: [127, 8, 1, 0], data: [1, 1, 6, 0] },
    CorpusPin { name: "memcpy", wcet: Some(308), stack: 0, evaluations: 19, fetch: [17, 4, 0, 0], data: [0, 1, 1, 1] },
    CorpusPin { name: "fac", wcet: None, stack: 88, evaluations: 0, fetch: [0, 0, 0, 0], data: [0, 0, 0, 0] },
];

/// Pinned solver evaluations of the E6 scaling series
/// `(constructs, evaluations)`.
pub const SCALING_EVALS: &[(usize, u64)] = &[
    (2, 84),
    (4, 42),
    (8, 133),
    (16, 124),
    (32, 538),
    (64, 824),
    (128, 2042),
    (256, 4423),
    (640, 10418),
];

/// Whether a batch job's result reproduces `pin` exactly. A failed
/// stack analysis measures as `None` and so drifts against any pin.
fn matches(r: &JobResult, pin: &CorpusPin) -> bool {
    r.wcet == pin.wcet
        && r.stack == Some(pin.stack)
        && r.evaluations == pin.evaluations
        && r.fetch == pin.fetch
        && r.data == pin.data
}

/// Compares corpus batch results against [`CORPUS`], returning one
/// human-readable drift line per divergence (empty means green). The
/// comparison behind `stamp batch --check-pins`.
pub fn check_corpus(results: &[JobResult]) -> Vec<String> {
    let mut drift = Vec::new();
    for pin in CORPUS {
        match results.iter().find(|r| r.name == pin.name) {
            None => drift.push(format!("{}: pinned but not measured", pin.name)),
            Some(r) if !matches(r, pin) => drift.push(format!(
                "{}: pinned {pin:?} != measured {{ wcet: {:?}, stack: {:?}, evaluations: {}, \
                 fetch: {:?}, data: {:?} }}",
                pin.name, r.wcet, r.stack, r.evaluations, r.fetch, r.data
            )),
            _ => {}
        }
    }
    for r in results {
        if !CORPUS.iter().any(|p| p.name == r.name) {
            drift.push(format!("{}: no pin recorded", r.name));
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(pin: &CorpusPin) -> JobResult {
        JobResult {
            name: pin.name.to_string(),
            target: pin.name.to_string(),
            variant: "default".to_string(),
            wcet: pin.wcet,
            stack: Some(pin.stack),
            evaluations: pin.evaluations,
            fetch: pin.fetch,
            data: pin.data,
            sampling: None,
            error: None,
            wall_ms: 0.0,
            provenance: Vec::new(),
        }
    }

    #[test]
    fn check_corpus_names_each_drifted_benchmark() {
        let mut results: Vec<JobResult> = CORPUS.iter().map(measured).collect();
        assert!(check_corpus(&results).is_empty());
        results[1].wcet = results[1].wcet.map(|w| w + 1);
        results.retain(|r| r.name != "fac");
        results.push(JobResult { name: "extra".to_string(), ..measured(&CORPUS[0]) });
        let drift = check_corpus(&results);
        assert_eq!(drift.len(), 3, "{drift:?}");
        assert!(drift[0].starts_with("insertsort: pinned CorpusPin"), "{}", drift[0]);
        assert!(drift[0].contains("measured { wcet: Some(1091)"), "{}", drift[0]);
        assert_eq!(drift[1], "fac: pinned but not measured");
        assert_eq!(drift[2], "extra: no pin recorded");
    }
}
