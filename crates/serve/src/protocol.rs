//! The daemon's wire protocol: one JSON object per line, in both
//! directions.
//!
//! # Requests
//!
//! ```json
//! {"id": "r1", "job": {"benchmark": "crc"},
//!  "variant": {"hw": "no-cache"}, "deadline_ms": 5000, "client": "ci"}
//! {"id": "r2", "op": "ping"}
//! {"id": "r3", "op": "stats"}
//! ```
//!
//! Keys: `id` (required, echoed in the response), `op` (`"analyze"`,
//! the default, or `"ping"` / `"stats"`), `client` (fairness key,
//! defaulting to the connection), `deadline_ms` (budget measured from
//! admission), `job` (a batch-manifest *target* object: exactly one of
//! `benchmark` / `file` (relative, inside the daemon's directory) /
//! `source`+`name`, plus `loop_bounds`,
//! `recursion`, `wcet`), and `variant` (a manifest *variant* object:
//! `hw`, `peel`, `max_call_depth`, `max_contexts`, `domain`,
//! `widen_delay`, `use_infeasible`, `sampling`; `name`
//! defaults to `"default"`). The job vocabulary *is* the `stamp batch`
//! manifest vocabulary — requests are parsed through the same
//! `stamp_suite::manifest` code path, so unknown keys are rejected
//! identically and a served job can never drift from its batch twin.
//!
//! # Responses
//!
//! | `status`       | meaning                                            |
//! |----------------|----------------------------------------------------|
//! | `ok`           | `result` holds the job's deterministic result      |
//! | `overloaded`   | queue full / client at cap / daemon draining       |
//! | `timeout`      | the deadline expired (in queue or mid-analysis)    |
//! | `job_panicked` | the job crashed; the daemon keeps serving          |
//! | `bad_request`  | unparseable line or invalid job description        |
//!
//! The `result` object of an `ok` response is byte-identical to the
//! corresponding entry of `stamp batch --no-timing`'s `jobs` array.
//! `queue_ms` / `wall_ms` are the response's *timing layer* — like
//! batch wall times they are nondeterministic and live outside
//! `result`; `error` carries a deterministic message for every
//! non-`ok` status.

use std::path::{Component, Path};

use stamp_core::{BatchJob, Json};
use stamp_suite::manifest;

/// A parsed, validated request line.
#[derive(Debug)]
pub enum Request {
    /// Run one analysis job.
    Analyze(Box<AnalyzeRequest>),
    /// Liveness probe.
    Ping {
        /// Request id to echo.
        id: String,
    },
    /// Artifact-store statistics snapshot.
    Stats {
        /// Request id to echo.
        id: String,
    },
}

/// The payload of an `analyze` request.
#[derive(Debug)]
pub struct AnalyzeRequest {
    /// Request id, echoed in the response.
    pub id: String,
    /// Fairness key; `None` falls back to the transport's connection id.
    pub client: Option<String>,
    /// Deadline budget in milliseconds, measured from admission.
    pub deadline_ms: Option<u64>,
    /// The job, identical in meaning to a one-job batch manifest.
    pub job: BatchJob,
}

/// A request rejection: the id to echo (when one was parseable) and
/// the message for the `bad_request` response.
#[derive(Debug)]
pub struct RequestError {
    /// The request's id, if the line got far enough to carry one.
    pub id: Option<String>,
    /// What was wrong.
    pub error: String,
}

fn reject<T>(id: Option<String>, error: impl Into<String>) -> Result<T, RequestError> {
    Err(RequestError { id, error: error.into() })
}

/// Parses one request line. `base` resolves relative `file` targets
/// (the daemon's working directory); a `file` that is absolute or
/// climbs out with `..` is rejected.
///
/// # Errors
///
/// [`RequestError`] on malformed JSON, a missing/invalid `id`, an
/// unknown `op`, unknown keys anywhere, or an invalid job description
/// — every error names the problem, echoing the id when possible.
pub fn parse_request(line: &str, base: &Path) -> Result<Request, RequestError> {
    let doc = match Json::parse(line) {
        Ok(d) => d,
        Err(e) => return reject(None, e.to_string()),
    };
    if doc.as_obj().is_none() {
        return reject(None, "request must be a JSON object");
    }
    let id = match doc.get("id") {
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return reject(None, "`id` must be a string"),
        None => return reject(None, "missing `id`"),
    };
    for key in doc.as_obj().expect("checked above").keys() {
        if !["id", "op", "client", "deadline_ms", "job", "variant"].contains(&key.as_str()) {
            return reject(Some(id), format!("unknown request key `{key}`"));
        }
    }
    let op = match doc.get("op") {
        None => "analyze",
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return reject(Some(id), "`op` must be a string"),
    };
    match op {
        "ping" => return Ok(Request::Ping { id }),
        "stats" => return Ok(Request::Stats { id }),
        "analyze" => {}
        other => return reject(Some(id), format!("unknown op `{other}`")),
    }

    let client = match doc.get("client") {
        None => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => return reject(Some(id), "`client` must be a string"),
    };
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(ms) => Some(ms),
            None => return reject(Some(id), "`deadline_ms` must be a non-negative integer"),
        },
    };
    let Some(job) = doc.get("job") else {
        return reject(Some(id), "analyze requests need a `job` object");
    };
    // A served `file` target stays inside the daemon's directory: no
    // absolute path, no `..`, no root or drive prefix, and, when it
    // exists, no symlink out: its canonical path must lie under the
    // canonical `base`.
    if let Some(Json::Str(file)) = job.get("file") {
        let relative = Path::new(file)
            .components()
            .all(|c| matches!(c, Component::Normal(_) | Component::CurDir));
        let leaves_base = || match base.join(file).canonicalize() {
            Ok(real) => !base.canonicalize().is_ok_and(|b| real.starts_with(b)),
            Err(_) => false,
        };
        if !relative || leaves_base() {
            return reject(
                Some(id),
                format!("`file` must be a relative path inside the daemon's directory: `{file}`"),
            );
        }
    }

    // Reuse the batch-manifest parser wholesale: build a one-target,
    // one-variant manifest from the request and run it through the same
    // validation `stamp batch` applies. Identical vocabulary, identical
    // rejections, identical resulting `BatchJob`.
    let variant = match doc.get("variant") {
        None => Json::obj([("name", Json::str("default"))]),
        Some(v) => match v.as_obj() {
            Some(map) => {
                let mut map = map.clone();
                map.entry("name".to_string()).or_insert_with(|| Json::str("default"));
                Json::Obj(map)
            }
            None => return reject(Some(id), "`variant` must be an object"),
        },
    };
    let manifest_doc = Json::obj([
        ("targets", Json::Arr(vec![job.clone()])),
        ("variants", Json::Arr(vec![variant])),
    ]);
    let request = match manifest::parse_manifest(&manifest_doc.to_string(), base) {
        Ok(r) => r,
        Err(e) => return reject(Some(id), e.to_string()),
    };
    let [job] = <[BatchJob; 1]>::try_from(request.jobs)
        .expect("one target and one variant make exactly one job");
    Ok(Request::Analyze(Box::new(AnalyzeRequest { id, client, deadline_ms, job })))
}

/// The `ok` response for a completed job. `result` is the job's
/// deterministic [`stamp_core::JobResult::result_json`] object,
/// embedded verbatim; the timing fields are the serve layer's own.
pub fn ok_response(id: &str, result: Json, queue_ms: f64, wall_ms: f64) -> Json {
    Json::obj([
        ("id", Json::str(id)),
        ("status", Json::str("ok")),
        ("result", result),
        ("queue_ms", Json::Num(queue_ms)),
        ("wall_ms", Json::Num(wall_ms)),
    ])
}

/// The `timeout` response. The error string quotes the *configured*
/// deadline (deterministic), never a measured elapsed time.
pub fn timeout_response(id: &str, deadline_ms: u64, queue_ms: f64, wall_ms: f64) -> Json {
    Json::obj([
        ("id", Json::str(id)),
        ("status", Json::str("timeout")),
        ("error", Json::str(format!("deadline of {deadline_ms} ms exceeded"))),
        ("queue_ms", Json::Num(queue_ms)),
        ("wall_ms", Json::Num(wall_ms)),
    ])
}

/// A non-`ok`, non-`timeout` response (`overloaded`, `job_panicked`,
/// `bad_request`).
pub fn error_response(id: Option<&str>, status: &str, error: &str) -> Json {
    Json::obj([
        ("id", id.map(Json::str).unwrap_or(Json::Null)),
        ("status", Json::str(status)),
        ("error", Json::str(error)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> &'static Path {
        Path::new(".")
    }

    #[test]
    fn analyze_requests_parse_to_batch_jobs() {
        let req = parse_request(
            r#"{"id": "r1", "job": {"benchmark": "crc"},
                "variant": {"hw": "no-cache"}, "deadline_ms": 250, "client": "ci"}"#,
            base(),
        )
        .unwrap();
        let Request::Analyze(a) = req else { panic!("expected analyze") };
        assert_eq!(a.id, "r1");
        assert_eq!(a.client.as_deref(), Some("ci"));
        assert_eq!(a.deadline_ms, Some(250));
        assert_eq!(a.job.name(), "crc", "variant name defaults to `default`");
        assert!(a.job.config.hw.icache.is_none());
    }

    #[test]
    fn sampling_variants_reach_the_served_job() {
        let req = parse_request(
            r#"{"id": "r1", "job": {"benchmark": "crc"},
                "variant": {"sampling": {"samples": 16, "seed": 3}}}"#,
            base(),
        )
        .unwrap();
        let Request::Analyze(a) = req else { panic!("expected analyze") };
        assert_eq!(a.job.sampling, Some(stamp_core::SampleParams { samples: 16, seed: 3 }));
        let e = parse_request(
            r#"{"id": "r2", "job": {"benchmark": "crc"},
                "variant": {"sampling": {"walks": 1}}}"#,
            base(),
        )
        .unwrap_err();
        assert!(e.error.contains("unknown sampling key"), "{}", e.error);
    }

    #[test]
    fn ops_parse_and_unknown_ops_reject() {
        assert!(matches!(
            parse_request(r#"{"id": "p", "op": "ping"}"#, base()).unwrap(),
            Request::Ping { .. }
        ));
        assert!(matches!(
            parse_request(r#"{"id": "s", "op": "stats"}"#, base()).unwrap(),
            Request::Stats { .. }
        ));
        let e = parse_request(r#"{"id": "x", "op": "explode"}"#, base()).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("x"));
        assert!(e.error.contains("unknown op"), "{}", e.error);
    }

    #[test]
    fn rejections_are_specific_and_echo_the_id_when_present() {
        let cases: &[(&str, Option<&str>, &str)] = &[
            ("not json", None, "syntax"),
            ("[1]", None, "object"),
            (r#"{"job": {"benchmark": "crc"}}"#, None, "missing `id`"),
            (r#"{"id": 7}"#, None, "`id` must be a string"),
            (r#"{"id": "a", "jobs": {}}"#, Some("a"), "unknown request key `jobs`"),
            (r#"{"id": "b"}"#, Some("b"), "need a `job`"),
            (r#"{"id": "c", "job": {"benchmark": "nope"}}"#, Some("c"), "unknown benchmark"),
            (r#"{"id": "d", "job": {"benchmark": "crc", "peel": 1}}"#, Some("d"), "unknown"),
            (
                r#"{"id": "e", "job": {"benchmark": "crc"}, "variant": {"hw": "turbo"}}"#,
                Some("e"),
                "unknown hw",
            ),
            (r#"{"id": "f", "job": {"benchmark": "crc"}, "deadline_ms": -1}"#, Some("f"), "dead"),
            (
                r#"{"id": "g", "job": {"benchmark": "crc"}, "variant": {"summaries": false}}"#,
                Some("g"),
                "unknown variant key `summaries`",
            ),
            (
                r#"{"id": "h", "job": {"benchmark": "crc"}, "variant": {"uarch_summaries": true}}"#,
                Some("h"),
                "unknown variant key `uarch_summaries`",
            ),
            (r#"{"id": "i", "job": {"file": "/etc/hostname"}}"#, Some("i"), "relative path"),
            (r#"{"id": "j", "job": {"file": "../secret.s"}}"#, Some("j"), "relative path"),
            (r#"{"id": "k", "job": {"file": "examples/../../x.s"}}"#, Some("k"), "relative path"),
        ];
        for (line, id, needle) in cases {
            let e = parse_request(line, base()).unwrap_err();
            assert_eq!(e.id.as_deref(), *id, "line {line:?}");
            assert!(e.error.contains(needle), "line {line:?} gave `{}`", e.error);
        }
    }

    #[cfg(unix)]
    #[test]
    fn file_targets_cannot_follow_a_symlink_out_of_the_base() {
        use std::os::unix::fs::symlink;
        let root = std::env::temp_dir().join(format!("stamp-serve-symlink-{}", std::process::id()));
        let base = root.join("base");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&base).unwrap();
        let task = ".text\nmain: halt\n";
        std::fs::write(root.join("outside.s"), task).unwrap();
        std::fs::write(base.join("inside.s"), task).unwrap();
        symlink(root.join("outside.s"), base.join("out.s")).unwrap();
        symlink("inside.s", base.join("in.s")).unwrap();

        let request = |file: &str| {
            parse_request(&format!(r#"{{"id": "l", "job": {{"file": "{file}"}}}}"#), &base)
        };
        let e = request("out.s").unwrap_err();
        assert_eq!(e.id.as_deref(), Some("l"));
        assert!(e.error.contains("relative path inside the daemon's directory"), "{}", e.error);
        assert!(matches!(request("in.s"), Ok(Request::Analyze(_))));
        assert!(matches!(request("inside.s"), Ok(Request::Analyze(_))));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn responses_render_with_stable_shapes() {
        let ok = ok_response("r1", Json::obj([("wcet", Json::int(7))]), 0.5, 1.5).to_string();
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
        assert!(ok.contains("\"result\":{\"wcet\":7}"), "{ok}");
        let to = timeout_response("r2", 5, 1.0, 5.0).to_string();
        assert!(to.contains("\"deadline of 5 ms exceeded\""), "{to}");
        let over = error_response(Some("r3"), "overloaded", "queue full (2)").to_string();
        assert!(over.contains("\"status\":\"overloaded\""), "{over}");
        let bad = error_response(None, "bad_request", "missing `id`").to_string();
        assert!(bad.contains("\"id\":null"), "{bad}");
    }
}
