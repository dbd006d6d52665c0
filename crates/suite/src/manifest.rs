//! Batch-manifest helpers: JSON manifests → [`BatchRequest`]s, plus the
//! built-in EVA32 corpus request (`stamp batch --corpus`).
//!
//! A manifest names *targets* (what to analyze) and *variants* (under
//! which configurations); the batch engine runs the full cross product.
//!
//! ```json
//! {
//!   "targets": [
//!     {"benchmark": "fibcall"},
//!     {"file": "task.s", "loop_bounds": {"loop": 33}},
//!     {"name": "inline", "source": ".text\nmain: halt\n"}
//!   ],
//!   "variants": [
//!     {"name": "default"},
//!     {"name": "small-cache", "hw": "no-cache", "peel": 0, "domain": "interval"}
//!   ]
//! }
//! ```
//!
//! Target keys: exactly one of `benchmark` (a name from
//! [`crate::benchmarks`]), `file` (a path to EVA32 assembly, resolved
//! against the manifest's directory) or `source` (inline assembly,
//! which then requires `name`); optional `name`, `loop_bounds`
//! (object of `symbol: bound`), `recursion` (object of
//! `symbol: depth`), `wcet` (bool, default `true`).
//!
//! Variant keys, all optional except `name`: `hw` (`"default"`,
//! `"no-cache"`, `"ideal"` or `{"cache_bytes": N}`), `peel`,
//! `max_call_depth`, `max_contexts` (VIVU), `domain` (`"const"`,
//! `"interval"`, `"strided"`), `widen_delay` (value analysis),
//! `use_infeasible` (bool, ILP), `sampling` (probabilistic
//! path sampling: `{}` for the defaults or `{"samples": N, "seed": N}`).
//! A job runs one value analysis under its variant and reads both its
//! stack bound and its WCET from it, so every key that reaches the
//! value analysis (`hw`'s memory map, the VIVU and value-analysis keys)
//! reaches both bounds.
//!
//! Unknown keys are rejected everywhere: a misspelled knob must fail
//! the parse, not silently run the default configuration. Solver
//! implementation switches are not knobs: the monolithic path ILP is
//! reachable only from Rust (`AnalysisConfig::summaries`), as a test
//! oracle.

use std::path::Path;

use stamp_core::{
    AnalysisConfig, Annotations, BatchRequest, BatchTarget, BatchVariant, Json, SampleParams,
};
use stamp_hw::HwConfig;

use crate::benchmarks;

/// A manifest rejection: what is wrong and where.
#[derive(Clone, Debug)]
pub struct ManifestError(pub String);

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "manifest: {}", self.0)
    }
}

impl std::error::Error for ManifestError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ManifestError> {
    Err(ManifestError(msg.into()))
}

/// The batch request covering the whole built-in EVA32 corpus under the
/// default configuration — the workload of `stamp batch --corpus`,
/// whose job results are pinned in [`crate::pins`].
pub fn corpus_request() -> BatchRequest {
    corpus_matrix(&[BatchVariant::default()])
}

/// The corpus crossed with explicit configuration variants (used by the
/// throughput benchmark to build a machine-saturating job matrix).
pub fn corpus_matrix(variants: &[BatchVariant]) -> BatchRequest {
    let targets = benchmarks().into_iter().map(|b| BatchTarget {
        name: b.name.to_string(),
        source: b.source.to_string(),
        annotations: b.annotations(),
        wcet: b.supports_wcet,
    });
    BatchRequest::matrix(targets, variants)
}

/// Parses a JSON batch manifest into a [`BatchRequest`]. `base` is the
/// directory against which relative `file` targets are resolved
/// (normally the manifest's own directory).
///
/// # Errors
///
/// [`ManifestError`] on malformed JSON, unknown keys' values, missing
/// files, unknown benchmark names, or an empty target list.
pub fn parse_manifest(text: &str, base: &Path) -> Result<BatchRequest, ManifestError> {
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => return err(e.to_string()),
    };
    if doc.as_obj().is_none() {
        return err("top level must be an object");
    }
    check_keys(&doc, "manifest", &["targets", "variants"])?;

    let targets = match doc.get("targets").and_then(Json::as_arr) {
        Some(ts) if !ts.is_empty() => ts,
        Some(_) | None => return err("no targets (a non-empty `targets` array is required)"),
    };
    let targets: Vec<BatchTarget> =
        targets.iter().map(|t| parse_target(t, base)).collect::<Result<_, _>>()?;

    let variants: Vec<BatchVariant> = match doc.get("variants") {
        None => vec![BatchVariant::default()],
        Some(vs) => match vs.as_arr() {
            Some(vs) if !vs.is_empty() => vs.iter().map(parse_variant).collect::<Result<_, _>>()?,
            _ => return err("`variants` must be a non-empty array"),
        },
    };

    let mut names: Vec<String> = variants.iter().map(|v| v.name.clone()).collect();
    names.sort();
    names.dedup();
    if names.len() != variants.len() {
        return err("variant names must be unique");
    }
    // Job names are target@variant; duplicate targets would make jobs
    // indistinguishable in the merged report (and in by-name lookups
    // like --check-pins).
    let mut names: Vec<&str> = targets.iter().map(|t| t.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() != targets.len() {
        return err("target names must be unique (set distinct `name` keys)");
    }

    Ok(BatchRequest::matrix(targets, &variants))
}

/// Rejects keys outside `allowed` — a misspelled knob must be an
/// error, not a silently ignored no-op that runs the default config.
fn check_keys(obj: &Json, kind: &str, allowed: &[&str]) -> Result<(), ManifestError> {
    for key in obj.as_obj().expect("checked by caller").keys() {
        if !allowed.contains(&key.as_str()) {
            return err(format!("unknown {kind} key `{key}` (allowed: {})", allowed.join(", ")));
        }
    }
    Ok(())
}

fn parse_target(t: &Json, base: &Path) -> Result<BatchTarget, ManifestError> {
    if t.as_obj().is_none() {
        return err("each target must be an object");
    }
    check_keys(
        t,
        "target",
        &["benchmark", "file", "source", "name", "loop_bounds", "recursion", "wcet"],
    )?;
    let explicit_name = t.get("name").map(|n| match n.as_str() {
        Some(s) => Ok(s.to_string()),
        None => err::<String>("target `name` must be a string"),
    });
    let explicit_name = explicit_name.transpose()?;

    let sources_given =
        ["benchmark", "file", "source"].iter().filter(|k| t.get(k).is_some()).count();
    if sources_given != 1 {
        return err("each target needs exactly one of `benchmark`, `file` or `source`");
    }

    let (name, source, mut annotations, mut wcet);
    if let Some(b) = t.get("benchmark") {
        let bench_name = b.as_str().ok_or(ManifestError("`benchmark` must be a string".into()))?;
        let bench = benchmarks()
            .into_iter()
            .find(|b| b.name == bench_name)
            .ok_or(ManifestError(format!("unknown benchmark `{bench_name}`")))?;
        name = explicit_name.unwrap_or_else(|| bench.name.to_string());
        source = bench.source.to_string();
        annotations = bench.annotations();
        wcet = bench.supports_wcet;
    } else if let Some(f) = t.get("file") {
        let rel = f.as_str().ok_or(ManifestError("`file` must be a string".into()))?;
        let path = base.join(rel);
        source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => return err(format!("{}: {e}", path.display())),
        };
        let stem = Path::new(rel)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| rel.to_string());
        name = explicit_name.unwrap_or(stem);
        annotations = Annotations::new();
        wcet = true;
    } else {
        let s = t.get("source").expect("counted above");
        source = s.as_str().ok_or(ManifestError("`source` must be a string".into()))?.to_string();
        name = explicit_name
            .ok_or(ManifestError("inline `source` targets require a `name`".into()))?;
        annotations = Annotations::new();
        wcet = true;
    }

    // Manifest annotations are appended after whatever the target
    // brought along, and resolution keeps the *last* entry per symbol
    // (`Annotations` resolves its list into a map), so a manifest
    // `loop_bounds`/`recursion` entry overrides a benchmark default at
    // the same symbol — the behaviour README promises.
    if let Some(lb) = t.get("loop_bounds") {
        let obj = lb.as_obj().ok_or(ManifestError("`loop_bounds` must be an object".into()))?;
        for (sym, bound) in obj {
            let bound = bound
                .as_u64()
                .ok_or(ManifestError(format!("loop bound for `{sym}` must be an integer")))?;
            annotations = annotations.loop_bound(sym.clone(), bound);
        }
    }
    if let Some(rec) = t.get("recursion") {
        let obj = rec.as_obj().ok_or(ManifestError("`recursion` must be an object".into()))?;
        for (sym, depth) in obj {
            let depth = depth
                .as_u64()
                .ok_or(ManifestError(format!("recursion depth for `{sym}` must be an integer")))?;
            annotations = annotations.recursion_depth(sym.clone(), depth as u32);
        }
    }
    if let Some(w) = t.get("wcet") {
        wcet = w.as_bool().ok_or(ManifestError("`wcet` must be a boolean".into()))?;
    }

    Ok(BatchTarget { name, source, annotations, wcet })
}

fn parse_variant(v: &Json) -> Result<BatchVariant, ManifestError> {
    if v.as_obj().is_none() {
        return err("each variant must be an object");
    }
    check_keys(
        v,
        "variant",
        &[
            "name",
            "hw",
            "peel",
            "max_call_depth",
            "max_contexts",
            "domain",
            "widen_delay",
            "use_infeasible",
            "sampling",
        ],
    )?;
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or(ManifestError("each variant needs a string `name`".into()))?
        .to_string();
    let mut config = AnalysisConfig::default();

    if let Some(hw) = v.get("hw") {
        config.hw = match hw.as_str() {
            Some("default") => HwConfig::default(),
            Some("no-cache") => HwConfig::no_cache(),
            Some("ideal") => HwConfig::ideal(),
            Some(other) => return err(format!("unknown hw model `{other}`")),
            None => {
                if hw.as_obj().is_some() {
                    check_keys(hw, "hw", &["cache_bytes"])?;
                }
                match hw.get("cache_bytes").and_then(Json::as_u64) {
                    Some(bytes) if (32..=1 << 20).contains(&bytes) && bytes.is_power_of_two() => {
                        HwConfig::with_cache_bytes(bytes as u32)
                    }
                    _ => {
                        return err("`hw` must be \"default\", \"no-cache\", \"ideal\" or \
                             {\"cache_bytes\": power-of-two ≥ 32}")
                    }
                }
            }
        };
    }
    if let Some(p) = v.get("peel") {
        config.vivu.peel =
            p.as_u64()
                .filter(|&p| p <= u8::MAX as u64)
                .ok_or(ManifestError("`peel` must be a small integer".into()))? as u8;
    }
    if let Some(d) = v.get("max_call_depth") {
        config.vivu.max_call_depth =
            d.as_u64().ok_or(ManifestError("`max_call_depth` must be an integer".into()))? as usize;
    }
    if let Some(m) = v.get("max_contexts") {
        config.vivu.max_contexts =
            m.as_u64().ok_or(ManifestError("`max_contexts` must be an integer".into()))? as usize;
    }
    if let Some(d) = v.get("domain") {
        use stamp_value::DomainKind;
        config.value.domain = match d.as_str() {
            Some("const") => DomainKind::Const,
            Some("interval") => DomainKind::Interval,
            Some("strided") => DomainKind::Strided,
            _ => return err("`domain` must be \"const\", \"interval\" or \"strided\""),
        };
    }
    if let Some(w) = v.get("widen_delay") {
        config.value.widen_delay = w
            .as_u64()
            .filter(|&w| w <= u32::MAX as u64)
            .ok_or(ManifestError("`widen_delay` must be an integer".into()))?
            as u32;
    }
    if let Some(u) = v.get("use_infeasible") {
        config.use_infeasible =
            u.as_bool().ok_or(ManifestError("`use_infeasible` must be a boolean".into()))?;
    }
    let mut sampling = None;
    if let Some(s) = v.get("sampling") {
        if s.as_obj().is_none() {
            return err("`sampling` must be an object ({\"samples\": N, \"seed\": N})");
        }
        check_keys(s, "sampling", &["samples", "seed"])?;
        let mut params = SampleParams::default();
        if let Some(n) = s.get("samples") {
            params.samples =
                n.as_u64().ok_or(ManifestError("`samples` must be an integer".into()))? as usize;
        }
        if let Some(n) = s.get("seed") {
            params.seed = n.as_u64().ok_or(ManifestError("`seed` must be an integer".into()))?;
        }
        sampling = Some(params);
    }
    Ok(BatchVariant { name, config, sampling })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_request_covers_every_benchmark_once() {
        let req = corpus_request();
        assert_eq!(req.jobs.len(), benchmarks().len());
        let fac = req.jobs.iter().find(|j| j.target == "fac").unwrap();
        assert!(!fac.wcet, "recursive tasks are stack-only");
        assert!(req.jobs.iter().all(|j| j.variant == "default"));
    }

    #[test]
    fn manifest_cross_product_and_variant_knobs() {
        let req = parse_manifest(
            r#"{
              "targets": [
                {"benchmark": "fibcall"},
                {"name": "tiny", "source": ".text\nmain: halt\n", "wcet": false}
              ],
              "variants": [
                {"name": "default"},
                {"name": "lean", "hw": "no-cache", "peel": 0, "domain": "interval",
                 "widen_delay": 4, "use_infeasible": false}
              ]
            }"#,
            Path::new("."),
        )
        .unwrap();
        assert_eq!(req.jobs.len(), 4);
        let lean = &req.jobs[1];
        assert_eq!(lean.name(), "fibcall@lean");
        assert!(lean.config.hw.icache.is_none());
        assert_eq!(lean.config.vivu.peel, 0);
        assert!(!lean.config.use_infeasible);
        assert!(!req.jobs[2].wcet);
    }

    #[test]
    fn file_targets_resolve_against_base_and_carry_annotations() {
        let dir = std::env::temp_dir().join("stamp_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("t.s"), ".text\nmain: halt\n").unwrap();
        let req = parse_manifest(
            r#"{"targets": [{"file": "t.s", "loop_bounds": {"loop": 7},
                             "recursion": {"f": 3}}]}"#,
            &dir,
        )
        .unwrap();
        assert_eq!(req.jobs[0].target, "t");
        assert_eq!(req.jobs[0].annotations.loop_bounds().len(), 1);
    }

    #[test]
    fn rejections_are_specific() {
        let base = Path::new(".");
        let cases: &[(&str, &str)] = &[
            ("[1,", "syntax error"),
            ("[]", "top level"),
            ("{}", "no targets"),
            (r#"{"targets": []}"#, "no targets"),
            (r#"{"targets": [{}]}"#, "exactly one of"),
            (r#"{"targets": [{"benchmark": "nope"}]}"#, "unknown benchmark"),
            (r#"{"tasks": [{"benchmark": "crc"}]}"#, "unknown manifest key `tasks`"),
            (
                r#"{"targets": [{"benchmark": "crc"}],
                    "variants": [{"name": "a", "hw": {"cache_bytes": 512, "assoc": 4}}]}"#,
                "unknown hw key `assoc`",
            ),
            (r#"{"targets": [{"benchmark": "crc", "loop_bound": {}}]}"#, "unknown target key"),
            (
                r#"{"targets": [{"benchmark": "crc"}],
                    "variants": [{"name": "a", "peels": 0}]}"#,
                "unknown variant key `peels`",
            ),
            (
                r#"{"targets": [{"benchmark": "crc"}, {"benchmark": "crc"}]}"#,
                "target names must be unique",
            ),
            (r#"{"targets": [{"source": ".text\n"}]}"#, "require a `name`"),
            (r#"{"targets": [{"file": "/nonexistent/x.s"}]}"#, "x.s"),
            (r#"{"targets": [{"benchmark": "crc"}], "variants": []}"#, "non-empty"),
            (r#"{"targets": [{"benchmark": "crc"}], "variants": [{}]}"#, "needs a string"),
            (
                r#"{"targets": [{"benchmark": "crc"}],
                    "variants": [{"name": "a"}, {"name": "a"}]}"#,
                "unique",
            ),
            (
                r#"{"targets": [{"benchmark": "crc"}],
                    "variants": [{"name": "a", "hw": "turbo"}]}"#,
                "unknown hw",
            ),
            (
                r#"{"targets": [{"benchmark": "crc"}],
                    "variants": [{"name": "a", "hw": {"cache_bytes": 33}}]}"#,
                "power-of-two",
            ),
            (
                r#"{"targets": [{"benchmark": "crc"}],
                    "variants": [{"name": "a", "domain": "octagon"}]}"#,
                "domain",
            ),
            (
                r#"{"targets": [{"benchmark": "crc"}],
                    "variants": [{"name": "a", "sampling": 64}]}"#,
                "`sampling` must be an object",
            ),
            (
                r#"{"targets": [{"benchmark": "crc"}],
                    "variants": [{"name": "a", "sampling": {"walks": 1}}]}"#,
                "unknown sampling key `walks`",
            ),
            (
                r#"{"targets": [{"benchmark": "crc"}],
                    "variants": [{"name": "a", "sampling": {"samples": "many"}}]}"#,
                "`samples` must be an integer",
            ),
            // Solver implementation switches are not variant knobs.
            (
                r#"{"targets": [{"benchmark": "crc"}],
                    "variants": [{"name": "a", "summaries": false}]}"#,
                "unknown variant key `summaries`",
            ),
            (
                r#"{"targets": [{"benchmark": "crc"}],
                    "variants": [{"name": "a", "uarch_summaries": false}]}"#,
                "unknown variant key `uarch_summaries`",
            ),
        ];
        for (text, needle) in cases {
            let e = parse_manifest(text, base).unwrap_err().to_string();
            assert!(e.contains(needle), "manifest {text:?} gave `{e}`, wanted `{needle}`");
        }
    }

    #[test]
    fn manifest_loop_bounds_reach_the_analysis() {
        // A data-dependent loop the analysis cannot bound: the
        // manifest's annotation is what makes it analyzable, and its
        // value shows in the WCET.
        let manifest = |bound: u64| {
            format!(
                r#"{{"targets": [{{"name": "t", "loop_bounds": {{"loop": {bound}}},
                    "source": ".text\nmain: la r1, v\nlw r1, 0(r1)\nloop: srli r1, r1, 1\nbnez r1, loop\nhalt\n.data\nv: .space 4\n"}}]}}"#
            )
        };
        let wcet = |bound: u64| {
            let req = parse_manifest(&manifest(bound), Path::new(".")).unwrap();
            let report = stamp_core::run_batch(&req, 1).unwrap();
            assert!(report.results[0].is_ok(), "{:?}", report.results[0].error);
            report.results[0].wcet.unwrap()
        };
        assert!(wcet(8) > wcet(3), "larger annotated bound must raise the WCET");
    }

    #[test]
    fn sampling_variant_parses_with_defaults_and_overrides() {
        let req = parse_manifest(
            r#"{"targets": [{"benchmark": "crc"}],
                "variants": [{"name": "plain"},
                             {"name": "walk", "sampling": {"samples": 16, "seed": 3}},
                             {"name": "default-walk", "sampling": {}}]}"#,
            Path::new("."),
        )
        .unwrap();
        assert_eq!(req.jobs[0].sampling, None);
        assert_eq!(req.jobs[1].sampling, Some(SampleParams { samples: 16, seed: 3 }));
        assert_eq!(req.jobs[2].sampling, Some(SampleParams::default()));
    }

    #[test]
    fn cache_bytes_variant_builds() {
        let req = parse_manifest(
            r#"{"targets": [{"benchmark": "crc"}],
                "variants": [{"name": "big", "hw": {"cache_bytes": 4096}}]}"#,
            Path::new("."),
        )
        .unwrap();
        assert_eq!(req.jobs[0].config.hw.icache.as_ref().map(|c| c.size_bytes()), Some(4096));
    }
}
