//! # stamp-sample — probabilistic path sampling
//!
//! The second path-analysis backend, beside the ILP of `stamp-path`:
//! instead of *maximizing* over all feasible paths, draw N random paths
//! through the interprocedural supergraph, cost each one with the same
//! pipeline/cache model the ILP objective uses, and report the observed
//! distribution (max, mean, percentiles) of whole-program execution
//! times *under* the sound ILP bound.
//!
//! # Weighting
//!
//! A walk starts at the supergraph entry and repeatedly draws one
//! outgoing edge until it reaches a task exit (or gets stuck). Edges
//! are drawn with loop-bound-derived weights: a loop back edge is
//! weighted by the iterations its loop instance may still execute
//! (`(bound − 1) · entries − backs`, the slack of the ILP's loop
//! constraint), every other edge by 1 — so loops are sampled near
//! their bounds and the distribution concentrates toward the worst
//! case instead of exiting every loop after ~one iteration.
//!
//! # Soundness (why `observed_max ≤ WCET` always)
//!
//! Every sampled path is, by construction, a feasible point of the
//! ILP that produced the WCET bound, because the walk reads the same
//! IPET data the ILP is built from:
//!
//! * it is one source→sink flow, so flow conservation holds;
//! * a back edge is only taken while `backs + 1 ≤ (bound−1) · entries`
//!   for its loop instance, where the bound is that instance's
//!   [`FlowRule::Bounded`] in [`LoopBoundAnalysis::rules`] — the rule
//!   the ILP's loop row is written from;
//! * edges the ILP pins to zero are never traversed: value-analysis
//!   infeasible edges (when `use_infeasible` is on, matching
//!   [`PathOptions::use_infeasible`]) and the edges of loop instances
//!   without a bound ([`FlowRule::NeverEntered`]; on
//!   [`FlowRule::Unbounded`] the ILP refuses to solve);
//! * its cost is the ILP objective evaluated at that point: entry node
//!   time, plus [`PipelineAnalysis::edge_cost`] per traversed edge,
//!   plus the same `ps_extra_cycles()` term.
//!
//! The WCET is the maximum of the objective over all feasible points,
//! so each sampled cost — and hence the observed maximum — is `≤ WCET`.
//! The differential fuzzer checks exactly this invariant on every
//! generated program.
//!
//! [`PathOptions::use_infeasible`]: https://docs.rs/stamp_path

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stamp_ai::{IEdgeId, Icfg, NodeId};
use stamp_cfg::Cfg;
use stamp_loopbound::{FlowRule, LoopBoundAnalysis};
use stamp_pipeline::PipelineAnalysis;
use stamp_value::ValueAnalysis;

/// Options for [`sample_paths`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleOptions {
    /// Number of path walks to draw.
    pub samples: usize,
    /// Seed of the walk rng. Same seed, same artifacts → bit-identical
    /// [`SampleSummary`], whatever the worker count.
    pub seed: u64,
    /// Avoid value-analysis-infeasible edges, matching the ILP's
    /// `use_infeasible` (the E4 ablation switch must flip both sides).
    pub use_infeasible: bool,
    /// Safety cap on steps per walk; a capped walk counts as a dead
    /// end. Loop budgets already force termination — this only guards
    /// against pathological inputs.
    pub max_steps: usize,
}

impl Default for SampleOptions {
    fn default() -> SampleOptions {
        SampleOptions { samples: 64, seed: 0, use_infeasible: true, max_steps: 1 << 20 }
    }
}

/// The observed WCET distribution of one sampling run. A pure function
/// of (artifacts, options) — everything here is deterministic and may
/// appear in `results_json`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleSummary {
    /// Walks requested ([`SampleOptions::samples`]).
    pub samples: usize,
    /// The seed the walks were drawn with.
    pub seed: u64,
    /// Walks that reached a task exit (the statistics population).
    pub completed: usize,
    /// Walks that got stuck before an exit or hit the step cap;
    /// excluded from the statistics.
    pub dead_ends: usize,
    /// Largest sampled path cost in cycles (`None` with no completed
    /// walks). The soundness invariant: `observed_max ≤ ILP WCET`.
    pub observed_max: Option<u64>,
    /// Smallest sampled path cost.
    pub observed_min: Option<u64>,
    /// Integer mean of the sampled costs (`total_cycles / completed`).
    pub mean: Option<u64>,
    /// Nearest-rank 50th percentile of the sampled costs.
    pub p50: Option<u64>,
    /// Nearest-rank 90th percentile.
    pub p90: Option<u64>,
    /// Nearest-rank 99th percentile.
    pub p99: Option<u64>,
    /// Sum of all completed walk costs (the mean's exact numerator).
    pub total_cycles: u64,
}

/// Nearest-rank percentile of an ascending-sorted slice: the value at
/// rank `⌈pct/100 · n⌉` (1-based), clamped to the first element for
/// tiny `pct`. `None` on an empty slice; the sole element on a
/// singleton, whatever `pct`.
pub fn percentile(sorted: &[u64], pct: u32) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (pct.min(100) as usize * n).div_ceil(100).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Samples `options.samples` random entry→exit paths and summarizes
/// their cost distribution. Reuses the already-computed analysis
/// artifacts — no phase is re-run.
pub fn sample_paths(
    _cfg: &Cfg,
    icfg: &Icfg,
    va: &ValueAnalysis,
    lb: &LoopBoundAnalysis,
    pa: &PipelineAnalysis,
    options: &SampleOptions,
) -> SampleSummary {
    let n_edges = icfg.edges().len();

    // ---- Per-edge walk tables: Some((instance index, is_back)) when
    // the edge targets a loop-header node, and whether the ILP pins the
    // edge to zero as infeasible.
    let instances = icfg.loop_instances();
    let rules = lb.rules();
    // The instance the task starts in: the walk's start is one entry.
    let at_start = instances.iter().position(|inst| icfg.entered_at_start(inst));
    let mut edge_loop: Vec<Option<(usize, bool)>> = vec![None; n_edges];
    for (idx, inst) in instances.iter().enumerate() {
        for &e in &inst.entries {
            edge_loop[e.index()] = Some((idx, false));
        }
        for &e in &inst.backs {
            edge_loop[e.index()] = Some((idx, true));
        }
    }
    let mut pinned = vec![false; n_edges];
    if options.use_infeasible {
        for &e in va.infeasible_edges() {
            pinned[e.index()] = true;
        }
    }

    let mut is_exit = vec![false; icfg.nodes().len()];
    for &x in icfg.exits() {
        is_exit[x.index()] = true;
    }

    // ---- The walks.
    let entry_time = pa.time(icfg.entry()).unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut costs: Vec<u64> = Vec::with_capacity(options.samples);
    let mut dead_ends = 0usize;
    // (entries, backs) per loop instance, reset per walk.
    let mut counters: Vec<(u64, u64)> = vec![(0, 0); instances.len()];
    // Eligible successors of the current node: (edge, target, weight).
    // Reused across steps.
    let mut eligible: Vec<(IEdgeId, NodeId, u64)> = Vec::new();

    for _ in 0..options.samples {
        counters.iter_mut().for_each(|c| *c = (0, 0));
        if let Some(inst) = at_start {
            counters[inst].0 = 1;
        }
        let mut cur = icfg.entry();
        let mut cost = entry_time;
        let mut steps = 0usize;
        let completed = loop {
            if is_exit[cur.index()] {
                // Task exits (halt blocks, the entry function's return
                // in the root context) have no successors — the walk is
                // one complete source→sink flow.
                break true;
            }
            eligible.clear();
            let mut total_w: u64 = 0;
            for e in icfg.succs(cur) {
                let idx = e.id.index();
                if pinned[idx] {
                    continue;
                }
                let w = match edge_loop[idx].map(|(inst, is_back)| (inst, is_back, rules[inst])) {
                    // Neither entry nor back edges of an instance without
                    // a bound carry flow.
                    Some((_, _, FlowRule::NeverEntered | FlowRule::Unbounded)) => continue,
                    Some((inst, true, FlowRule::Bounded(bound))) => {
                        // Back edge: weight = remaining iteration budget
                        // of the ILP constraint Σbacks ≤ (bound−1)·Σentries.
                        let (entries, backs) = counters[inst];
                        let budget =
                            bound.saturating_sub(1).saturating_mul(entries).saturating_sub(backs);
                        if budget == 0 {
                            continue;
                        }
                        budget
                    }
                    _ => 1,
                };
                total_w = total_w.saturating_add(w);
                eligible.push((e.id, e.to, w));
            }
            if eligible.is_empty() {
                break false;
            }
            // Weighted draw, deterministic in (seed, successor order).
            let mut pick = rng.gen_range(0..total_w);
            let mut sel = eligible.len() - 1;
            for (i, &(_, _, w)) in eligible.iter().enumerate() {
                if pick < w {
                    sel = i;
                    break;
                }
                pick -= w;
            }
            let (e_id, to, _) = eligible[sel];
            let idx = e_id.index();
            cost = cost.saturating_add(pa.edge_cost(e_id));
            if let Some((inst, is_back)) = edge_loop[idx] {
                if is_back {
                    counters[inst].1 += 1;
                } else {
                    counters[inst].0 += 1;
                }
            }
            cur = to;
            steps += 1;
            if steps >= options.max_steps {
                break false;
            }
        };
        if completed {
            costs.push(cost.saturating_add(pa.ps_extra_cycles()));
        } else {
            dead_ends += 1;
        }
    }

    costs.sort_unstable();
    let total_cycles = costs.iter().fold(0u64, |a, &c| a.saturating_add(c));
    SampleSummary {
        samples: options.samples,
        seed: options.seed,
        completed: costs.len(),
        dead_ends,
        observed_max: costs.last().copied(),
        observed_min: costs.first().copied(),
        mean: if costs.is_empty() { None } else { Some(total_cycles / costs.len() as u64) },
        p50: percentile(&costs, 50),
        p90: percentile(&costs, 90),
        p99: percentile(&costs, 99),
        total_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_ai::{Icfg, VivuConfig};
    use stamp_cache::CacheAnalysis;
    use stamp_cfg::CfgBuilder;
    use stamp_hw::HwConfig;
    use stamp_isa::asm::assemble;
    use stamp_loopbound::LoopBoundOptions;
    use stamp_path::PathOptions;
    use stamp_value::ValueOptions;

    /// Runs the whole pipeline plus the ILP, then samples, returning
    /// (ILP WCET, summary).
    fn wcet_and_samples(src: &str, hw: &HwConfig, options: &SampleOptions) -> (u64, SampleSummary) {
        let p = assemble(src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).expect("expands");
        let va = ValueAnalysis::run(&p, hw, &cfg, &icfg, &ValueOptions::default());
        let lb = LoopBoundAnalysis::run(&p, &cfg, &icfg, &va, &LoopBoundOptions::default());
        let ca = CacheAnalysis::run(hw, &cfg, &icfg, &va);
        let pa = PipelineAnalysis::run(hw, &cfg, &icfg, &ca, &va);
        let path_opts =
            PathOptions { use_infeasible: options.use_infeasible, ..PathOptions::default() };
        let res = stamp_path::analyze(&cfg, &icfg, &va, &lb, &pa, &path_opts).expect("ilp");
        let summary = sample_paths(&cfg, &icfg, &va, &lb, &pa, options);
        (res.wcet, summary)
    }

    fn assert_distribution_under(wcet: u64, s: &SampleSummary) {
        assert!(s.completed > 0, "no walk completed: {s:?}");
        let max = s.observed_max.unwrap();
        assert!(max <= wcet, "sampled max {max} exceeds ILP WCET {wcet}");
        let (min, mean) = (s.observed_min.unwrap(), s.mean.unwrap());
        assert!(min <= mean && mean <= max, "{s:?}");
        let (p50, p90, p99) = (s.p50.unwrap(), s.p90.unwrap(), s.p99.unwrap());
        assert!(min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max, "{s:?}");
        assert_eq!(s.completed + s.dead_ends, s.samples);
    }

    #[test]
    fn straight_line_is_a_point_distribution() {
        let src = ".text\nmain: li r1, 3\nmul r2, r1, r1\nhalt\n";
        for hw in [HwConfig::ideal(), HwConfig::default()] {
            let (wcet, s) = wcet_and_samples(src, &hw, &SampleOptions::default());
            assert_distribution_under(wcet, &s);
            assert_eq!(s.observed_max, Some(wcet), "single path: sampling is exact");
            assert_eq!(s.observed_min, Some(wcet));
            assert_eq!(s.completed, s.samples);
        }
    }

    #[test]
    fn counted_loop_distribution_stays_under_the_bound() {
        let src = ".text\nmain: li r1, 10\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
        for hw in [HwConfig::ideal(), HwConfig::default()] {
            let (wcet, s) = wcet_and_samples(src, &hw, &SampleOptions::default());
            assert_distribution_under(wcet, &s);
        }
    }

    #[test]
    fn nested_loops_and_calls_stay_under_the_bound() {
        let nested = "\
            .text
            main:  li r1, 3
            outer: li r2, 4
            inner: addi r2, r2, -1
                   bnez r2, inner
                   addi r1, r1, -1
                   bnez r1, outer
                   halt
        ";
        let calls = "\
            .text
            main: call f
                  call f
                  halt
            f:    div r1, r2, r3
                  ret
        ";
        for src in [nested, calls] {
            for hw in [HwConfig::ideal(), HwConfig::default()] {
                let (wcet, s) = wcet_and_samples(src, &hw, &SampleOptions::default());
                assert_distribution_under(wcet, &s);
            }
        }
    }

    #[test]
    fn branchy_sampling_covers_both_arms_under_the_bound() {
        let src = "\
            .text
            main: beq r2, r0, cheap
                  div r3, r4, r5
                  halt
            cheap:
                  addi r3, r0, 1
                  halt
        ";
        let (wcet, s) = wcet_and_samples(src, &HwConfig::ideal(), &SampleOptions::default());
        assert_distribution_under(wcet, &s);
        // Both arms are feasible and unweighted, so 64 walks all but
        // surely see both: the distribution is not a point.
        assert!(s.observed_min.unwrap() < s.observed_max.unwrap(), "{s:?}");
        assert_eq!(s.observed_max, Some(wcet), "the worst arm is the whole WCET here");
    }

    #[test]
    fn infeasible_arm_is_never_walked() {
        // The expensive arm is dead: r1 is always 3. With pruning on,
        // every walk takes the cheap arm and matches the pruned ILP
        // exactly; with pruning ablated the walk may take the dead arm
        // but must stay under the ablated (larger) bound.
        let src = "\
            .text
            main: li r1, 3
                  bne r1, r0, cheap
                  div r3, r4, r5
                  div r3, r4, r5
                  halt
            cheap:
                  addi r3, r0, 1
                  halt
        ";
        let (wcet, s) = wcet_and_samples(src, &HwConfig::ideal(), &SampleOptions::default());
        assert_distribution_under(wcet, &s);
        assert_eq!(s.observed_max, Some(wcet), "one feasible path: exact");
        assert_eq!(s.observed_min, Some(wcet));

        let ablated = SampleOptions { use_infeasible: false, ..SampleOptions::default() };
        let (loose_wcet, loose) = wcet_and_samples(src, &HwConfig::ideal(), &ablated);
        assert!(loose_wcet > wcet);
        assert_distribution_under(loose_wcet, &loose);
    }

    #[test]
    fn same_seed_is_bit_identical_and_seeds_are_independent() {
        let src = ".text\nmain: li r1, 25\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
        let opts = SampleOptions { samples: 32, seed: 7, ..SampleOptions::default() };
        let (_, a) = wcet_and_samples(src, &HwConfig::default(), &opts);
        let (_, b) = wcet_and_samples(src, &HwConfig::default(), &opts);
        assert_eq!(a, b, "same seed, same artifacts: identical summary");
        let (wcet, c) =
            wcet_and_samples(src, &HwConfig::default(), &SampleOptions { seed: 8, ..opts });
        assert_distribution_under(wcet, &c);
    }

    #[test]
    fn zero_samples_yield_an_empty_summary() {
        let src = ".text\nmain: halt\n";
        let opts = SampleOptions { samples: 0, ..SampleOptions::default() };
        let (_, s) = wcet_and_samples(src, &HwConfig::ideal(), &opts);
        assert_eq!(s.completed, 0);
        assert_eq!(s.observed_max, None);
        assert_eq!(s.mean, None);
        assert_eq!(s.p99, None);
        assert_eq!(s.total_cycles, 0);
    }

    #[test]
    fn percentile_is_nearest_rank_with_edge_cases() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[], 0), None);
        assert_eq!(percentile(&[42], 0), Some(42));
        assert_eq!(percentile(&[42], 50), Some(42));
        assert_eq!(percentile(&[42], 100), Some(42));
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 0), Some(10), "tiny pct clamps to the first rank");
        assert_eq!(percentile(&v, 25), Some(10));
        assert_eq!(percentile(&v, 50), Some(20));
        assert_eq!(percentile(&v, 75), Some(30));
        assert_eq!(percentile(&v, 90), Some(40));
        assert_eq!(percentile(&v, 100), Some(40));
        assert_eq!(percentile(&v, 200), Some(40), "pct clamps to 100");
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 50), Some(5));
        assert_eq!(percentile(&ten, 90), Some(9));
        assert_eq!(percentile(&ten, 99), Some(10));
        assert_eq!(percentile(&ten, 1), Some(1));
    }

    #[test]
    fn the_task_start_enters_the_loop_its_entry_block_heads() {
        // Without the start counted as an entry the back edge has no
        // budget and every walk leaves after one iteration.
        let src = ".text\nmain: addi r1, r1, 1\nsltui r5, r1, 50\nbnez r5, main\nhalt\n";
        let (wcet, s) = wcet_and_samples(src, &HwConfig::ideal(), &SampleOptions::default());
        assert_distribution_under(wcet, &s);
        assert_eq!(s.observed_max, Some(wcet), "the longest walk is the worst case");
    }
}
