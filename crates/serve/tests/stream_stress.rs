//! Stream-mode stress: several concurrent connections each pushing
//! batched requests through a small fan-out (`with_max_inflight`), with
//! randomized response-consumption delays on the client side. The
//! assertions: no deadlock while the workers wait on slow readers, records
//! byte-identical to `handle_line`'s regardless of completion order, and
//! a consistent metrics story (every admitted unit answered). Also: one
//! connection answers pipelined plain requests in order, and a warm batch
//! answers the same bytes per id over NDJSON, HTTP and the stdio loop.

mod serve_test_util;

use optimist_serve::{Json, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve_test_util::{corpus_modules, http_post_alloc, TestDaemon};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The corpus as batch items `(id, payload)`, ids stable across runs.
fn corpus_items() -> Vec<(Json, Json)> {
    corpus_modules()
        .into_iter()
        .enumerate()
        .map(|(i, (name, ir))| {
            let id = Json::from(format!("{i}-{name}").as_str());
            (id, Json::obj([("ir", Json::from(ir.as_str()))]))
        })
        .collect()
}

fn batch_request(items: &[(Json, Json)]) -> String {
    let mut arr = Vec::with_capacity(items.len());
    for (id, payload) in items {
        let mut item = payload.clone();
        item.set("id", id.clone());
        arr.push(item);
    }
    let mut req = Json::obj([("req", Json::from("batch"))]);
    req.push("items", Json::Arr(arr));
    req.to_string()
}

/// A batch answer's item records by id, and its closing `done` record.
fn split_batch(text: &str) -> (HashMap<String, String>, Json) {
    let mut records: Vec<Json> = text
        .lines()
        .map(|l| optimist_serve::json::parse(l).unwrap())
        .collect();
    let done = records.pop().expect("a done record");
    assert_eq!(
        done.get("done").and_then(Json::as_bool),
        Some(true),
        "{done}"
    );
    let by_id = records.into_iter().map(|record| {
        let id = record.get("id").and_then(Json::as_str).unwrap().to_string();
        (id, record.to_string())
    });
    (by_id.collect(), done)
}

#[test]
fn concurrent_batches_match_serial_responses_byte_for_byte() {
    let items = corpus_items();
    assert!(items.len() >= 5, "corpus suspiciously small");

    // Warm every function first: the `cached` flags in a warm response are
    // stable, which is what makes byte-identity well-defined. (Cold flags
    // depend on which duplicate computes first — content, not bytes, is
    // the guarantee there.)
    let server = Server::new(4096, 16).with_max_inflight(2);
    let line = batch_request(&items);
    server.handle_line(&line);

    // Baseline on the warm server, collected through `handle_line`.
    let (serial, _) = server.handle_line(&line);
    let (expected, done) = split_batch(&serial);
    assert_eq!(done.get("errors").and_then(Json::as_u64), Some(0));
    assert_eq!(expected.len(), items.len());

    let daemon = TestDaemon::spawn(server);

    // The same batch as a `POST /v1/alloc` body and through the stdio
    // loop: every front-end answers the same records and `done` counts.
    let (status, http) = http_post_alloc(daemon.http_addr(), &line);
    assert_eq!(status, 200, "{http}");
    let mut stdio = Vec::new();
    let input = format!("{line}\n");
    daemon
        .server()
        .serve_lines(input.as_bytes(), &mut stdio, false)
        .expect("stdio loop");
    for (front, text) in [("http", http), ("stdio", String::from_utf8(stdio).unwrap())] {
        let (records, done) = split_batch(&text);
        assert_eq!(
            records, expected,
            "{front} records differ from handle_line's"
        );
        let count = |k| done.get(k).and_then(Json::as_u64);
        assert_eq!(count("items"), Some(items.len() as u64), "{front}");
        assert_eq!(count("errors"), Some(0), "{front}");
    }
    // Everything above ran its items through the same unit counters;
    // count the connections' units from here.
    let units_before = daemon.server().metrics().stream_units.get();

    // Four connections, each streaming the whole corpus twice as batches,
    // consuming responses with randomized delays so the workers regularly
    // wait on the socket at arbitrary points.
    let mut threads = Vec::new();
    for conn in 0..4u64 {
        let items = items.clone();
        let expected = expected.clone();
        let addr = daemon.addr();
        threads.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xbeef ^ conn);
            let mut client = optimist_serve::Client::connect(addr).expect("connect");
            for round in 0..2 {
                let mut seen: HashMap<String, String> = HashMap::new();
                let done = client
                    .batch(&items, Json::Null, |record| {
                        if rng.gen_bool(0.5) {
                            std::thread::sleep(Duration::from_millis(rng.gen_range(0..3)));
                        }
                        let id = record.get("id").and_then(Json::as_str).unwrap().to_string();
                        seen.insert(id, record.to_string());
                    })
                    .expect("batch round trip");
                assert_eq!(
                    done.get("items").and_then(Json::as_u64),
                    Some(items.len() as u64),
                    "conn {conn} round {round}: {done}"
                );
                assert_eq!(done.get("errors").and_then(Json::as_u64), Some(0));
                assert_eq!(seen.len(), expected.len(), "conn {conn} round {round}");
                for (id, line) in &expected {
                    assert_eq!(
                        seen.get(id),
                        Some(line),
                        "conn {conn} round {round}: stream response for {id} \
                         differs from the serial response"
                    );
                }
            }
        }));
    }
    for t in threads {
        t.join().expect("stress connection");
    }

    // Metrics consistency: every admitted unit produced exactly one
    // response, and nothing is left in flight.
    let metrics = daemon.server().metrics();
    assert_eq!(
        metrics.stream_units.get(),
        metrics.stream_responses.get(),
        "units admitted vs responses written"
    );
    assert_eq!(metrics.inflight.get(), 0, "window drained");
    assert_eq!(
        metrics.stream_units.get() - units_before,
        4 * 2 * items.len() as u64,
        "every batch item was admitted as a unit"
    );
    assert!(
        metrics.inflight.high_water() >= 2,
        "the window actually filled"
    );

    let stats = daemon.shutdown_with_stats();
    let stream = stats.get("stream").expect("stats carries a stream section");
    assert_eq!(
        stream.get("inflight").and_then(Json::as_u64),
        Some(0),
        "{stream}"
    );
}

#[test]
fn plain_and_batch_requests_interleave_on_one_connection() {
    // A mixed client: plain allocs (strictly ordered responses) and a
    // batch (unordered item records) on the same streaming connection.
    let items = corpus_items();
    let server = Server::new(4096, 16).with_max_inflight(3);
    server.handle_line(&batch_request(&items)); // warm

    let daemon = TestDaemon::spawn(server);
    let mut client = daemon.client();

    let (_, first_ir) = corpus_modules().into_iter().next().unwrap();
    let plain = client.alloc(&first_ir, Json::Null).expect("plain alloc");
    assert_eq!(plain.get("ok").and_then(Json::as_bool), Some(true));

    let mut n = 0usize;
    let done = client
        .batch(&items, Json::Null, |_| n += 1)
        .expect("batch after plain");
    assert_eq!(n, items.len());
    assert_eq!(done.get("ok").and_then(Json::as_bool), Some(true));

    let plain = client
        .alloc(&first_ir, Json::Null)
        .expect("plain after batch");
    assert_eq!(plain.get("ok").and_then(Json::as_bool), Some(true));

    drop(client);
    daemon.shutdown_with_stats();
}

#[test]
fn pipelined_plain_requests_are_answered_in_order() {
    // A connection answers one request at a time: cold allocs and pings
    // pipelined in one write come back in the order they were sent.
    let mods = corpus_modules();
    let daemon = TestDaemon::spawn(Server::new(4096, 16));
    let mut sock = TcpStream::connect(daemon.addr()).expect("connect");
    let mut payload = String::new();
    for (_, ir) in &mods {
        let mut req = Json::obj([("req", Json::from("alloc"))]);
        req.push("ir", Json::from(ir.as_str()));
        payload.push_str(&format!("{req}\n{{\"req\":\"ping\"}}\n"));
    }
    sock.write_all(payload.as_bytes()).expect("pipelined burst");

    let mut reader = BufReader::new(sock);
    let mut next = || {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("response") > 0);
        optimist_serve::json::parse(&line).unwrap()
    };
    for (name, ir) in &mods {
        let sent: Vec<&str> = ir
            .lines()
            .filter_map(|l| l.strip_prefix("func "))
            .map(|l| &l[..l.find('(').unwrap()])
            .collect();
        let resp = next();
        let functions = resp.get("functions").and_then(Json::as_arr).unwrap();
        let answered: Vec<&str> = functions
            .iter()
            .map(|f| f.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(answered, sent, "{name} answered out of order: {resp}");
        let pong = next();
        assert_eq!(
            pong.get("pong").and_then(Json::as_bool),
            Some(true),
            "{pong}"
        );
    }
    drop(reader);
    daemon.shutdown_with_stats();
}
