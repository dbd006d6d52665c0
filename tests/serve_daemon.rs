//! End-to-end tests of the `stamp serve` daemon: protocol round-trips,
//! backpressure, deadlines, SIGTERM drain, and byte-identity of served
//! results against `stamp batch` — all against the real binary.
#![cfg(unix)]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use stamp::analyzer::Json;

fn spawn_serve(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_stamp"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts")
}

/// Waits for the child with a hard cap so a daemon bug hangs a test
/// assertion, not the whole test run.
fn wait_capped(mut child: Child, what: &str) -> (i32, String, String) {
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("{what}: daemon did not exit within the test budget");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    let mut stderr = String::new();
    child.stdout.take().expect("piped").read_to_string(&mut stdout).expect("utf-8 stdout");
    child.stderr.take().expect("piped").read_to_string(&mut stderr).expect("utf-8 stderr");
    (status.code().expect("daemon exits by code, not by signal"), stdout, stderr)
}

/// Parses response lines into an id → response map.
fn by_id(stdout: &str) -> BTreeMap<String, Json> {
    stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let resp = Json::parse(l).unwrap_or_else(|e| panic!("bad response `{l}`: {e}"));
            let id = resp.get("id").and_then(Json::as_str).unwrap_or("null").to_string();
            (id, resp)
        })
        .collect()
}

fn status_of(resp: &Json) -> &str {
    resp.get("status").and_then(Json::as_str).expect("every response has a status")
}

/// What `stamp batch --no-timing` reports for one benchmark under the
/// default variant — the reference for served-result byte-identity.
fn batch_result(benchmark: &str) -> Json {
    let manifest = std::env::temp_dir().join(format!("serve_ref_{benchmark}.json"));
    std::fs::write(&manifest, format!(r#"{{"targets": [{{"benchmark": "{benchmark}"}}]}}"#))
        .expect("writable temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_stamp"))
        .args(["batch", &manifest.to_string_lossy(), "--no-timing"])
        .output()
        .expect("batch runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report = Json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("batch json");
    report.get("jobs").and_then(Json::as_arr).expect("jobs array")[0].clone()
}

#[test]
fn stdio_daemon_serves_drains_on_eof_and_matches_batch() {
    let mut child = spawn_serve(&[]);
    {
        let stdin = child.stdin.take().expect("piped");
        let mut stdin = stdin;
        // A mixed workload in one shot: liveness probe, two real jobs,
        // a request that cannot make its deadline, and two malformed
        // lines. EOF after the batch triggers the graceful drain.
        writeln!(stdin, r#"{{"id": "ping", "op": "ping"}}"#).unwrap();
        writeln!(stdin, r#"{{"id": "crc", "job": {{"benchmark": "crc"}}}}"#).unwrap();
        writeln!(stdin, r#"{{"id": "fib", "job": {{"benchmark": "fibcall"}}}}"#).unwrap();
        writeln!(stdin, r#"{{"id": "late", "job": {{"benchmark": "crc"}}, "deadline_ms": 0}}"#)
            .unwrap();
        writeln!(stdin, r#"{{"id": "bad", "job": {{"benchmark": "no-such"}}}}"#).unwrap();
        writeln!(stdin, "this is not json").unwrap();
    } // dropping stdin = EOF
    let (code, stdout, stderr) = wait_capped(child, "stdio drain");
    assert_eq!(code, 0, "EOF drains gracefully: {stderr}");

    let responses = by_id(&stdout);
    assert_eq!(responses.len(), 6, "one response per line: {stdout}");
    assert_eq!(status_of(&responses["ping"]), "ok");
    assert_eq!(status_of(&responses["crc"]), "ok");
    assert_eq!(status_of(&responses["fib"]), "ok");
    // The structured timeout names the configured deadline.
    assert_eq!(status_of(&responses["late"]), "timeout");
    assert_eq!(
        responses["late"].get("error").and_then(Json::as_str),
        Some("deadline of 0 ms exceeded")
    );
    // Invalid jobs and unparseable lines answer without killing anything.
    assert_eq!(status_of(&responses["bad"]), "bad_request");
    assert_eq!(status_of(&responses["null"]), "bad_request");

    // Served results are byte-identical to `stamp batch` for the same
    // jobs (both rendered by the same deterministic serializer).
    for (id, benchmark) in [("crc", "crc"), ("fib", "fibcall")] {
        let served = responses[id].get("result").expect("ok responses embed a result");
        assert_eq!(
            served.to_string(),
            batch_result(benchmark).to_string(),
            "served `{id}` diverged from batch"
        );
    }
}

#[test]
fn queue_overflow_sheds_load_with_structured_overloaded_responses() {
    let mut child = spawn_serve(&["--queue", "1", "--jobs", "1"]);
    let burst = 16;
    {
        let mut stdin = child.stdin.take().expect("piped");
        for i in 0..burst {
            writeln!(stdin, r#"{{"id": "b{i}", "job": {{"benchmark": "crc"}}}}"#).unwrap();
        }
    }
    let (code, stdout, stderr) = wait_capped(child, "overflow burst");
    assert_eq!(code, 0, "overload never crashes the daemon: {stderr}");

    let responses = by_id(&stdout);
    assert_eq!(responses.len(), burst, "every request is answered: {stdout}");
    let mut ok = 0;
    let mut overloaded = 0;
    for resp in responses.values() {
        match status_of(resp) {
            "ok" => ok += 1,
            "overloaded" => {
                overloaded += 1;
                let error = resp.get("error").and_then(Json::as_str).unwrap();
                assert!(error.contains("queue full"), "{resp}");
            }
            other => panic!("unexpected status `{other}`: {resp}"),
        }
    }
    assert!(ok >= 1, "admitted jobs still complete under overload");
    assert!(overloaded >= 1, "a queue of 1 must shed a burst of {burst}");
}

#[test]
fn sigterm_drains_in_flight_work_and_exits_zero() {
    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().expect("piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped"));

    // Prove the daemon is serving, then terminate it with stdin still
    // open: SIGTERM alone must reach the drain path.
    writeln!(stdin, r#"{{"id": "warm", "job": {{"benchmark": "fibcall"}}}}"#).unwrap();
    stdin.flush().unwrap();
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let first = Json::parse(line.trim()).unwrap();
    assert_eq!(status_of(&first), "ok", "{line}");

    let term =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    assert!(term.success());
    drop(stdout); // the reaper below re-takes nothing; just the status
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(s) = child.try_wait().unwrap() {
            break s;
        }
        assert!(Instant::now() < deadline, "SIGTERM must drain, not hang");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");
}

#[test]
fn unix_socket_daemon_reuses_warm_artifacts_across_requests() {
    use std::os::unix::net::UnixStream;

    let tag = std::process::id();
    let socket = std::env::temp_dir().join(format!("serve_daemon_{tag}.sock"));
    let store = std::env::temp_dir().join(format!("serve_daemon_store_{tag}"));
    let _ = std::fs::remove_dir_all(&store);
    let child =
        spawn_serve(&["--socket", &socket.to_string_lossy(), "--store", &store.to_string_lossy()]);

    let mut stream = {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Err(e) => panic!("socket never came up: {e}"),
            }
        }
    };
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| -> Json {
        writeln!(stream, "{line}").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        Json::parse(resp.trim()).unwrap_or_else(|e| panic!("bad response `{resp}`: {e}"))
    };

    // The same job twice: the second run hits the warm store instead of
    // recomputing, and both results match `stamp batch` byte-for-byte.
    let misses = |stats: &Json| {
        stats.get("stats").and_then(|s| s.get("misses")).and_then(Json::as_u64).unwrap()
    };
    let cold = ask(r#"{"id": "cold", "job": {"benchmark": "crc"}}"#);
    let cold_misses = misses(&ask(r#"{"id": "stats-cold", "op": "stats"}"#));
    let warm = ask(r#"{"id": "warm", "job": {"benchmark": "crc"}}"#);
    assert_eq!(status_of(&cold), "ok", "{cold}");
    assert_eq!(status_of(&warm), "ok", "{warm}");
    let reference = batch_result("crc").to_string();
    assert_eq!(cold.get("result").unwrap().to_string(), reference);
    assert_eq!(warm.get("result").unwrap().to_string(), reference);

    let stats = ask(r#"{"id": "stats", "op": "stats"}"#);
    let hits = stats.get("stats").and_then(|s| s.get("hits")).and_then(Json::as_u64).unwrap();
    assert!(hits > 0, "the repeated request must reuse warm artifacts: {stats}");
    assert_eq!(misses(&stats), cold_misses, "the warm request must compute nothing: {stats}");

    let term =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    assert!(term.success());
    let (code, _, stderr) = wait_capped(child, "socket drain");
    assert_eq!(code, 0, "{stderr}");
    // The drain flushed the durable store: the artifacts survived.
    assert!(
        std::fs::read_dir(&store).map(|d| d.count() > 0).unwrap_or(false),
        "the disk store holds flushed artifacts"
    );
    let _ = std::fs::remove_dir_all(&store);
}
