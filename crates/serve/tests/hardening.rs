//! Production-hardening integration tests: deadlines, admission control
//! and client backoff, graceful drain, store degraded mode, and idle-
//! connection reaping. These pin the acceptance guarantees of the
//! robustness work: a deadline-exceeded unit answers `{"err":"deadline"}`
//! without wedging a worker, an overloaded daemon sheds with a
//! `retry_after_ms` hint the client's backoff converges on, a draining
//! daemon answers everything already admitted, and a daemon whose store
//! starts failing keeps serving memory-only and recovers by probe.

mod serve_test_util;

use optimist_serve::{Client, Json, RetryPolicy, Server};
use optimist_store::failpoint::FailKind;
use optimist_store::{Store, StoreOptions};
use serve_test_util::{corpus_modules, scratch, Process, TestDaemon};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

fn alloc_line(ir: &str) -> String {
    let mut req = Json::obj([("req", Json::from("alloc"))]);
    req.push("ir", Json::from(ir));
    req.to_string()
}

fn alloc_line_with_deadline(ir: &str, deadline_ms: u64) -> String {
    let mut req = Json::obj([("req", Json::from("alloc"))]);
    req.push("ir", Json::from(ir));
    req.push("deadline_ms", Json::from(deadline_ms));
    req.to_string()
}

fn parse(line: &str) -> Json {
    optimist_serve::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

#[test]
fn deadline_zero_fails_cold_unit_without_wedging_the_worker() {
    let server = Server::new(64, 4);
    let (_, ir) = corpus_modules().into_iter().next().unwrap();

    // An already-expired deadline: the cold function must lose the race at
    // the first phase boundary and answer, not hang.
    let (resp, _) = server.handle_line(&alloc_line_with_deadline(&ir, 0));
    let resp = parse(&resp);
    assert_eq!(
        resp.get("err").and_then(Json::as_str),
        Some("deadline"),
        "{resp}"
    );
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        resp.get("errors")
            .and_then(Json::as_arr)
            .is_some_and(|e| !e.is_empty()),
        "per-function error text present: {resp}"
    );
    assert!(server.metrics().deadline_exceeded.get() >= 1);

    // The same function with no deadline must still compute: a deadline
    // miss is never negatively cached and the worker that ran it is fine.
    let (resp, _) = server.handle_line(&alloc_line(&ir));
    let resp = parse(&resp);
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "deadline failure poisoned the cache or a worker: {resp}"
    );

    // Warm now: even an expired deadline answers, because cache and memo
    // hits never race the clock.
    let (resp, _) = server.handle_line(&alloc_line_with_deadline(&ir, 0));
    let resp = parse(&resp);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    assert!(resp.get("err").is_none());
}

#[test]
fn max_load_one_sheds_pipelined_requests_with_retry_hint() {
    let mods = corpus_modules();
    let n = mods.len().min(8);
    assert!(n >= 2, "corpus suspiciously small");
    let server = Server::new(256, 4).with_max_load(1);
    let daemon = TestDaemon::spawn(server);

    // Pipeline n cold allocs in one write without reading: the reader
    // admits the first and must shed follow-ups that arrive while it runs
    // (admission happens at read time, before any cache or window logic).
    let mut sock = TcpStream::connect(daemon.addr()).expect("connect");
    let mut payload = String::new();
    for (_, ir) in mods.iter().take(n) {
        payload.push_str(&alloc_line(ir));
        payload.push('\n');
    }
    sock.write_all(payload.as_bytes()).expect("pipeline burst");

    let mut ok = 0usize;
    let mut shed = 0usize;
    let mut reader = BufReader::new(sock);
    for _ in 0..n {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("response") > 0);
        let resp = parse(&line);
        if resp.get("err").and_then(Json::as_str) == Some("overloaded") {
            let hint = resp
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .expect("shed response carries a retry hint");
            assert!((10..=2_000).contains(&hint), "hint out of range: {resp}");
            shed += 1;
        } else {
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
            ok += 1;
        }
    }
    assert!(ok >= 1, "at least the first request is admitted");
    assert!(
        shed >= 1,
        "a max_load=1 daemon must shed pipelined follow-ups"
    );
    assert_eq!(daemon.server().metrics().shed.get(), shed as u64);
    assert_eq!(daemon.server().metrics().load.get(), 0, "load drained");
    daemon.shutdown_with_stats();
}

#[test]
fn client_retry_converges_while_the_daemon_sheds() {
    let mods = corpus_modules();
    let server = Server::new(1024, 4).with_max_load(1);
    let daemon = TestDaemon::spawn(server);

    // Saturate: pipeline the whole corpus cold on a raw connection. With
    // max_load=1 the daemon computes at most one unit at a time and sheds
    // the rest of the burst on arrival.
    let mut sock = TcpStream::connect(daemon.addr()).expect("connect");
    let mut payload = String::new();
    for (_, ir) in &mods {
        payload.push_str(&alloc_line(ir));
        payload.push('\n');
    }
    sock.write_all(payload.as_bytes())
        .expect("saturating burst");

    // A retrying client racing the burst must converge, not surface
    // `Overloaded`: every shed answer carries a hint and the backoff
    // outlives the saturator.
    let mut client = daemon.client().with_retry(RetryPolicy {
        retries: 200,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(50),
    });
    let resp = client
        .alloc(&mods[0].1, Json::Null)
        .expect("retrying client converges");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    // Drain the saturator's responses so the daemon is quiet again.
    let mut reader = BufReader::new(sock);
    for _ in 0..mods.len() {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("response") > 0);
    }
    assert!(
        daemon.server().metrics().shed.get() >= 1,
        "the burst never contended — the convergence claim is vacuous"
    );
    daemon.shutdown_with_stats();
}

#[test]
fn request_shutdown_mid_batch_drains_everything_admitted() {
    let mods = corpus_modules();
    // Three copies of the corpus so the batch is comfortably still in
    // flight when the drain starts.
    let items: Vec<(Json, Json)> = (0..3)
        .flat_map(|round| {
            mods.iter().map(move |(name, ir)| {
                (
                    Json::from(format!("{round}-{name}").as_str()),
                    Json::obj([("ir", Json::from(ir.as_str()))]),
                )
            })
        })
        .collect();
    let total = items.len();

    let server = Server::new(4096, 16).with_drain_timeout(Duration::from_secs(30));
    let daemon = TestDaemon::spawn(server);
    let addr = daemon.addr();

    let mut health = daemon.client();
    assert_eq!(
        health
            .health()
            .expect("health request")
            .get("state")
            .and_then(Json::as_str),
        Some("ok")
    );
    drop(health);

    let (first_tx, first_rx) = mpsc::channel();
    let streamer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let mut records = 0usize;
        let done = client
            .batch(&items, Json::Null, |_| {
                records += 1;
                if records == 1 {
                    let _ = first_tx.send(());
                }
            })
            .expect("a draining daemon still answers admitted work");
        (records, done)
    });

    // Once the first item record is back the batch is mid-flight: start
    // the SIGTERM-path drain.
    first_rx.recv().expect("first item record");
    daemon.server().request_shutdown();
    assert_eq!(
        daemon
            .server()
            .health_json()
            .get("health")
            .and_then(|h| h.get("state"))
            .and_then(Json::as_str),
        Some("draining")
    );

    // The client still receives every item record and the done record:
    // the drain half-closes only the read side.
    let (records, done) = streamer.join().expect("streaming client");
    assert_eq!(records, total, "every admitted item was answered");
    assert_eq!(done.get("items").and_then(Json::as_u64), Some(total as u64));
    assert_eq!(done.get("errors").and_then(Json::as_u64), Some(0));

    // The listener exits cleanly (the binary turns this into exit 0) with
    // nothing left in flight.
    let stats = daemon.join_with_stats();
    let metrics_inflight = stats
        .get("stream")
        .and_then(|s| s.get("inflight"))
        .and_then(Json::as_u64);
    assert_eq!(metrics_inflight, Some(0), "{stats}");
    let hardening = stats.get("hardening").expect("hardening stats section");
    assert_eq!(hardening.get("load").and_then(Json::as_u64), Some(0));
}

#[test]
fn store_failures_trip_degraded_mode_and_the_probe_recovers() {
    let mods = corpus_modules();
    assert!(mods.len() >= 4, "corpus suspiciously small");
    let dir = scratch("optimist-hardening", "degraded");
    let store = Store::open(&dir, StoreOptions { max_bytes: 0 }).expect("open store");
    let server = Server::new(256, 4)
        .with_store(store)
        .with_store_probe_interval(Duration::from_millis(40));

    let state = |server: &Server| {
        server
            .health_json()
            .get("health")
            .and_then(|h| h.get("state"))
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    assert_eq!(state(&server).as_deref(), Some("ok"));

    // Every put now fails with ENOSPC. Cold allocs keep succeeding from
    // the memory tier while the consecutive-error counter climbs.
    let failpoints = server.store().expect("store attached").failpoints();
    failpoints.arm("put", FailKind::Enospc);
    for (_, ir) in mods.iter().take(3) {
        let (resp, _) = server.handle_line(&alloc_line(ir));
        let resp = parse(&resp);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "a failing store must not fail requests: {resp}"
        );
    }
    assert!(server.store_degraded(), "three failed puts trip the tier");
    assert_eq!(state(&server).as_deref(), Some("degraded"));
    let m = server.metrics();
    assert!(m.store_put_errors.get() >= 3);
    assert_eq!(m.store_degraded.get(), 1);

    // Heal the disk and wait out the probe interval: the next store access
    // probes with a sentinel record and puts the tier back in the path.
    failpoints.clear_all();
    std::thread::sleep(Duration::from_millis(60));
    let (resp, _) = server.handle_line(&alloc_line(&mods[3].1));
    assert_eq!(parse(&resp).get("ok").and_then(Json::as_bool), Some(true));
    assert!(!server.store_degraded(), "probe recovery");
    assert_eq!(state(&server).as_deref(), Some("ok"));
    assert!(m.store_probes.get() >= 1);
    assert_eq!(m.store_recoveries.get(), 1);
    assert_eq!(m.store_degraded.get(), 0);
    assert_eq!(m.store_degraded.high_water(), 1, "the episode is recorded");

    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
}

#[test]
fn idle_connection_is_reaped_by_the_read_timeout() {
    let server = Server::new(16, 1).with_socket_timeouts(Some(Duration::from_millis(50)), None);
    let daemon = TestDaemon::spawn(server);

    // Connect and say nothing. The daemon's read timeout reaps the
    // connection; our blocking read observes the close as EOF.
    let sock = TcpStream::connect(daemon.addr()).expect("connect");
    let mut reader = BufReader::new(sock);
    let mut line = String::new();
    assert_eq!(
        reader.read_line(&mut line).expect("socket readable"),
        0,
        "the daemon closed the idle connection"
    );
    assert!(daemon.server().metrics().idle_reaps.get() >= 1);
    daemon.shutdown_with_stats();
}

#[test]
fn running_out_of_file_descriptors_does_not_stop_the_daemon() {
    use std::process::{Command, Stdio};
    use std::time::Instant;

    // Each idle connection holds 3 descriptors, so 100 of them overrun a
    // 64-descriptor limit and the accept loop starts failing.
    let mut daemon = Process(
        Command::new("sh")
            .args([
                "-c",
                r#"ulimit -n 64 && exec "$0" --listen 127.0.0.1:0"#,
                env!("CARGO_BIN_EXE_optimist-serve"),
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("optimist-serve runs"),
    );
    let (tx, rx) = mpsc::channel();
    let stderr = daemon.0.stderr.take().unwrap();
    let log = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = tx.send(line.clone());
            lines.push(line);
        }
        lines.join("\n")
    });
    let addr = loop {
        let line = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the daemon announces its port");
        if let Some((_, addr)) = line.split_once("listening on ") {
            break addr.trim().to_string();
        }
    };

    let held: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect(addr.as_str()).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_secs(1));
    drop(held);

    let ask = |line: &str| -> std::io::Result<String> {
        let mut conn = TcpStream::connect(addr.as_str())?;
        conn.set_read_timeout(Some(Duration::from_secs(10)))?;
        conn.write_all(format!("{line}\n").as_bytes())?;
        let mut answer = String::new();
        BufReader::new(conn).read_line(&mut answer)?;
        Ok(answer)
    };
    // Descriptors free up as the daemon reaps the closed connections; one
    // it accepts before then may be dropped, so a fresh client retries.
    let deadline = Instant::now() + Duration::from_secs(10);
    let pong = loop {
        match ask(r#"{"req":"ping"}"#) {
            Ok(pong) if !pong.is_empty() => break pong,
            other => assert!(Instant::now() < deadline, "no answer: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(pong.contains(r#""ok":true"#), "{pong}");
    ask(r#"{"req":"shutdown"}"#).expect("shutdown answers");

    let status = daemon.exit_within(Duration::from_secs(10));
    let status = status.expect("the daemon exits after shutdown");
    let log = log.join().unwrap();
    assert!(status.success(), "{status}: {log}");
}
