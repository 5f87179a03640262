//! Hostile input for the daemons' hand-rolled decoders.
//!
//! Two layers:
//!
//! * **Crash regressions** on live listeners — an NDJSON line or HTTP
//!   body of 10 KB of `[`, a 100k-deep nested store field, and a 40 KB+
//!   blank-line HTTP preamble. Each must be answered (`"ok":false`, or
//!   the request after the preamble) and leave the connection usable; a
//!   decoder that recursed per byte would instead overflow a connection
//!   thread's stack and abort the whole process. Likewise a register count
//!   of 10¹² and a register index of 4·10⁹, which an allocator that sized
//!   a per-node table by the count, or a parser that sized its register
//!   table by the index, would turn into an allocation failure that aborts
//!   the daemon; those run against a spawned `optimist-serve`, so an abort
//!   fails the test rather than killing the test binary.
//! * **Unbounded lines** — an NDJSON line one byte past
//!   `MAX_LINE_BYTES` (serving and store daemons) and an HTTP request
//!   line one byte past the 16 KiB head cap, neither ever terminated.
//!   Each must be refused and closed, not buffered while the reader
//!   waits for a newline, and the daemon must still answer a fresh
//!   connection. The client sockets time out, so a daemon that buffers
//!   fails the test instead of hanging it.
//! * **Decoder fuzzing** with the vendored proptest shim — truncations,
//!   byte flips and random bytes of valid serve requests, store
//!   request/response lines and cache-entry payloads must never panic
//!   `json::parse`, `Request::parse`, `StoreServer::handle_line` or
//!   `persist::decode_entry`; generated JSON trees must survive
//!   `parse(v.to_string()) == v`.
//!
//! The fuzz runs a reduced case count in debug builds; run the full
//! count with `cargo test --release -p optimist-serve --test hostile_input`.

mod serve_test_util;

use optimist_machine::Target;
use optimist_regalloc::{allocate, AllocatorConfig};
use optimist_serve::persist::{decode_entry, encode_entry};
use optimist_serve::{json, CacheEntry, FnResult, Json, Request, Server};
use optimist_store::daemon::MAX_LINE_BYTES;
use optimist_store::net::StoreServer;
use optimist_store::{Store, StoreOptions};
use proptest::prelude::*;
use proptest::TestRng;
use serve_test_util::{corpus_modules, scratch, Process, StoreDaemon, TestDaemon};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const FUNC: &str = "func double(v0:int) -> int {\nb0:\n    v1 = add.i v0, v0\n    ret v1\n}\n";

/// Ten thousand unclosed arrays: 10 KB that a parser recursing once per
/// level would turn into ten thousand stack frames.
fn deep_line() -> String {
    "[".repeat(10_000)
}

/// Write one NDJSON line, read one back.
fn exchange(reader: &mut BufReader<TcpStream>, line: &str) -> String {
    let mut stream = reader.get_ref();
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(response.ends_with('\n'), "connection closed: {response:?}");
    response
}

#[test]
fn a_deeply_nested_ndjson_line_is_refused_and_the_connection_survives() {
    let daemon = TestDaemon::spawn(Server::new(16, 1));
    let mut conn = BufReader::new(TcpStream::connect(daemon.addr()).unwrap());
    for line in [deep_line(), "[".repeat(100_000) + &"]".repeat(100_000)] {
        let refused = exchange(&mut conn, &line);
        assert!(refused.starts_with(r#"{"ok":false"#), "{refused}");
        let pong = exchange(&mut conn, r#"{"req":"ping"}"#);
        assert!(pong.contains(r#""ok":true"#), "{pong}");
    }
}

/// Send raw request bytes, read one `Content-Length`-framed response.
fn http_exchange(reader: &mut BufReader<TcpStream>, request: &[u8]) -> (u16, String) {
    let mut stream = reader.get_ref();
    stream.write_all(request).unwrap();
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line: {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
        if let Some(n) = line.strip_prefix("content-length:") {
            content_length = n.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

fn post_alloc(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/alloc HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[test]
fn a_deeply_nested_http_body_is_refused_and_the_connection_survives() {
    let daemon = TestDaemon::spawn(Server::new(16, 1));
    let mut conn = BufReader::new(TcpStream::connect(daemon.http_addr()).unwrap());
    let (status, body) = http_exchange(&mut conn, &post_alloc(&deep_line()));
    assert_eq!(status, 200, "protocol errors stay in-band");
    assert!(body.starts_with(r#"{"ok":false"#), "{body}");
    let (status, body) = http_exchange(&mut conn, &post_alloc(r#"{"req":"ping"}"#));
    assert_eq!(status, 200);
    assert!(body.contains(r#""ok":true"#), "{body}");
}

#[test]
fn a_long_blank_line_preamble_still_reaches_the_request() {
    let daemon = TestDaemon::spawn(Server::new(16, 1));
    let mut conn = BufReader::new(TcpStream::connect(daemon.http_addr()).unwrap());
    let mut request = "\r\n".repeat(100_000);
    request.push_str("GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n");
    let (status, body) = http_exchange(&mut conn, request.as_bytes());
    assert_eq!(status, 200);
    assert!(body.contains(r#""state":"ok""#), "{body}");
    // Same connection, next request.
    let (status, _) = http_exchange(&mut conn, b"GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
}

#[test]
fn a_deeply_nested_store_field_is_refused_and_the_connection_survives() {
    let dir = scratch("optimist-hostile", "stored");
    let stored = StoreDaemon::spawn(&dir);
    let mut conn = BufReader::new(TcpStream::connect(stored.addr()).unwrap());
    let put = format!(
        r#"{{"req":"put","key":"0000000000000001","fp":"0000000000000001","payload":{}}}"#,
        "[".repeat(100_000)
    );
    let refused = exchange(&mut conn, &put);
    assert!(refused.starts_with(r#"{"ok":false"#), "{refused}");
    assert_eq!(exchange(&mut conn, r#"{"req":"ping"}"#), "{\"ok\":true}\n");
    exchange(&mut conn, r#"{"req":"shutdown"}"#);
    stored.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_table_sized_by_a_hostile_number_is_refused_and_the_daemon_survives() {
    use std::process::{Command, Stdio};
    use std::sync::mpsc;

    // Each request names a number that, unchecked, sizes a table: a
    // register count that select's per-node table would take, and a
    // register index that the parser's register table would take (4·10⁹
    // entries). The 2 GiB address-space cap turns a regression into a
    // failed allocation in the daemon instead of an exhausted host.
    let mut daemon = Process(
        Command::new("sh")
            .args([
                "-c",
                r#"ulimit -v 2097152 && exec "$0" --listen 127.0.0.1:0 --http 127.0.0.1:0 --pool-threads 1 --quiet"#,
                env!("CARGO_BIN_EXE_optimist-serve"),
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("optimist-serve runs"),
    );
    let (tx, rx) = mpsc::channel();
    let stderr = daemon.0.stderr.take().unwrap();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = tx.send(line);
        }
    });
    let (mut ndjson, mut http) = (None, None);
    while ndjson.is_none() || http.is_none() {
        let line = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the daemon announces its ports");
        if let Some((head, addr)) = line.split_once("listening on ") {
            let addr: SocketAddr = addr.trim().parse().unwrap();
            if head.ends_with("http ") {
                http = Some(addr);
            } else {
                ndjson = Some(addr);
            }
        }
    }
    let ir = Json::from(FUNC);
    let huge_index = Json::from(
        "func f(v0:int) -> int {\nb0:\n    v4000000000 = imm 1\n    ret v4000000000\n}\n",
    );
    let hostile = [
        (
            format!(r#"{{"req":"alloc","ir":{ir},"config":{{"int_regs":1000000000000}}}}"#),
            "int_regs must be an integer from 1 to 65536",
        ),
        (
            format!(r#"{{"req":"alloc","ir":{huge_index}}}"#),
            "`v4000000000` is out of range for a 73-byte function",
        ),
    ];
    let normal = format!(r#"{{"req":"alloc","ir":{ir}}}"#);
    let refused = |answer: &str, message: &str, took: Duration| {
        assert!(answer.starts_with(r#"{"ok":false"#), "{answer}");
        assert!(answer.contains(message), "{answer}");
        assert!(took < Duration::from_secs(1), "refused after {took:?}");
    };

    let mut conn = BufReader::new(timed_connect(ndjson.unwrap(), 30));
    let mut web = BufReader::new(timed_connect(http.unwrap(), 30));
    for (line, message) in &hostile {
        let started = Instant::now();
        let answer = exchange(&mut conn, line);
        refused(&answer, message, started.elapsed());
        let started = Instant::now();
        let (status, body) = http_exchange(&mut web, &post_alloc(line));
        refused(&body, message, started.elapsed());
        assert_eq!(status, 200, "protocol errors stay in-band");
    }
    let answer = exchange(&mut conn, &normal);
    assert!(answer.starts_with(r#"{"ok":true"#), "{answer}");
    let (status, body) = http_exchange(&mut web, &post_alloc(&normal));
    assert_eq!(status, 200);
    assert!(body.starts_with(r#"{"ok":true"#), "{body}");

    drop(web);
    exchange(&mut conn, r#"{"req":"shutdown"}"#);
    let status = daemon.exit_within(Duration::from_secs(10));
    assert!(status.expect("the daemon exits after shutdown").success());
}

/// A client socket that gives up after `secs` instead of hanging on a
/// daemon that never answers.
fn timed_connect(addr: SocketAddr, secs: u64) -> TcpStream {
    let conn = TcpStream::connect(addr).unwrap();
    let timeout = Some(Duration::from_secs(secs));
    conn.set_read_timeout(timeout).unwrap();
    conn.set_write_timeout(timeout).unwrap();
    conn
}

/// Send `prefix` padded with `x` to `len` bytes, with no newline, then
/// read until the daemon closes the connection.
fn endless_line(mut conn: TcpStream, prefix: &[u8], len: usize) -> Vec<u8> {
    conn.write_all(prefix).unwrap();
    let chunk = [b'x'; 64 << 10];
    let mut left = len - prefix.len();
    while left > 0 {
        let n = left.min(chunk.len());
        conn.write_all(&chunk[..n]).unwrap();
        left -= n;
    }
    let mut answer = Vec::new();
    conn.read_to_end(&mut answer)
        .expect("the daemon answers and closes instead of buffering forever");
    answer
}

#[test]
fn an_ndjson_line_past_the_cap_is_refused_and_closed() {
    let serve = TestDaemon::spawn(Server::new(16, 1));
    let dir = scratch("optimist-hostile", "stored-cap");
    let stored = StoreDaemon::spawn(&dir);
    for addr in [serve.addr(), stored.addr()] {
        // Exactly one byte past the cap, so the daemon reads all of it.
        let answer = endless_line(timed_connect(addr, 60), b"", MAX_LINE_BYTES + 1);
        assert_eq!(
            String::from_utf8_lossy(&answer),
            "{\"ok\":false,\"error\":\"line too long\"}\n"
        );
        let mut conn = BufReader::new(timed_connect(addr, 10));
        let pong = exchange(&mut conn, r#"{"req":"ping"}"#);
        assert!(pong.starts_with(r#"{"ok":true"#), "{pong}");
    }
    stored.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_http_request_line_past_the_header_cap_is_refused_and_closed() {
    // The HTTP front-end caps a head at 16 KiB.
    const MAX_HEADER_BYTES: usize = 16 << 10;
    let daemon = TestDaemon::spawn(Server::new(16, 1));
    let addr = daemon.http_addr();
    let answer = endless_line(timed_connect(addr, 10), b"GET /", MAX_HEADER_BYTES + 1);
    let answer = String::from_utf8_lossy(&answer);
    assert!(
        answer.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "{answer}"
    );
    assert!(answer.contains("Connection: close\r\n"), "{answer}");
    let mut conn = BufReader::new(timed_connect(addr, 10));
    let (status, body) = http_exchange(&mut conn, b"GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200, "{body}");
}

// ---------------------------------------------------------------------
// Fuzzing.

/// Fuzz cases per property: the full count under `--release`, a smaller
/// budget in debug builds.
const CASES: u32 = if cfg!(debug_assertions) { 48 } else { 4096 };

/// Valid inputs for every decoder, which the fuzz then mangles.
struct Seeds {
    /// Serve protocol request lines.
    requests: Vec<String>,
    /// Store protocol request and response lines.
    store_lines: Vec<String>,
    /// Cache entries as the store holds them.
    payloads: Vec<String>,
}

fn seeds() -> &'static Seeds {
    static SEEDS: OnceLock<Seeds> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let (_, corpus_ir) = corpus_modules().into_iter().next().unwrap();
        let module = optimist_ir::parse_module(FUNC).unwrap();
        let cfg = AllocatorConfig::new(Target::rt_pc(), optimist_regalloc::Strategy::Briggs);
        let result = FnResult::from_allocation("double", &allocate(&module.functions()[0], &cfg).unwrap());
        let payloads = vec![
            encode_entry(&CacheEntry::Ok(result)),
            encode_entry(&CacheEntry::NonConvergence { max_passes: 7 }),
        ];
        let alloc = |ir: &str| {
            let mut req = Json::obj([("req", Json::from("alloc"))]);
            req.push("ir", Json::from(ir));
            req
        };
        let mut tuned = alloc(FUNC);
        tuned.push(
            "config",
            json::parse(r#"{"strategy":"irc","int_regs":6,"rematerialize":true}"#).unwrap(),
        );
        tuned.push("deadline_ms", Json::from(500u64));
        let batch = json::parse(&format!(
            r#"{{"req":"batch","config":{{"strategy":"ssa"}},"items":[{{"id":"a","ir":{}}},{{"id":7,"key":"00000000000000aa"}}]}}"#,
            Json::from(FUNC)
        ))
        .unwrap();
        let requests = vec![
            alloc(FUNC).to_string(),
            alloc(&corpus_ir).to_string(),
            tuned.to_string(),
            batch.to_string(),
            r#"{"req":"stats"}"#.to_string(),
            r#"{"req":"health"}"#.to_string(),
            r#"{"req":"ping"}"#.to_string(),
        ];

        let dir = scratch("optimist-hostile", "seed-store");
        let store = StoreServer::new(Store::open(&dir, StoreOptions::default()).unwrap());
        let put = Json::obj([
            ("req", Json::from("put")),
            ("key", Json::from("00000000000000aa")),
            ("fp", Json::from("000000000000002a")),
            ("payload", Json::from(payloads[0].as_str())),
        ])
        .to_string();
        let get = r#"{"req":"get","key":"00000000000000aa"}"#;
        let scan = r#"{"req":"scan","after":"0000000000000001","limit":3}"#;
        let mut store_lines = vec![put.clone(), get.to_string(), scan.to_string()];
        for line in [&put, get, r#"{"req":"get","key":"00000000000000bb"}"#, scan] {
            store_lines.push(store.handle_line(line));
        }
        store_lines.push(store.handle_line(r#"{"req":"stats"}"#));
        store_lines.push(store.handle_line(r#"{"req":"health"}"#));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        Seeds {
            requests,
            store_lines,
            payloads,
        }
    })
}

/// The store daemon the fuzzed store lines are fed to.
fn fuzz_store() -> &'static StoreServer {
    static STORE: OnceLock<StoreServer> = OnceLock::new();
    STORE.get_or_init(|| {
        let dir = scratch("optimist-hostile", "fuzz-store");
        StoreServer::new(Store::open(dir, StoreOptions::default()).unwrap())
    })
}

/// Feed `text` to every decoder. None may panic; the results are
/// irrelevant — rejecting garbage is the expected outcome.
fn decode_everywhere(text: &str) {
    let _ = json::parse(text);
    let _ = Request::parse(text);
    let _ = fuzz_store().handle_line(text);
    let _ = decode_entry(text);
}

/// One mangled copy of a seed: a truncation, byte flips, or both.
#[derive(Debug)]
struct Mangle {
    cut: Option<usize>,
    flips: Vec<(usize, u8)>,
}

impl Mangle {
    fn apply(&self, seed: &str) -> String {
        let mut bytes = seed.as_bytes().to_vec();
        for &(at, byte) in &self.flips {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
        }
        if let Some(cut) = self.cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

struct Mangles;

impl Strategy for Mangles {
    type Value = Mangle;
    fn sample(&self, rng: &mut TestRng) -> Mangle {
        let mode = rng.next_u64() % 3;
        let cut = (mode != 1).then(|| rng.next_u64() as usize);
        let flips = if mode == 0 {
            Vec::new()
        } else {
            // Bias flips toward the bytes that steer a JSON parser.
            const STEER: &[u8] = b"{}[]\",:\\0123456789.-+eEtfn u";
            (0..1 + rng.next_u64() % 6)
                .map(|_| {
                    let byte = if rng.next_u64() & 1 == 0 {
                        STEER[rng.next_u64() as usize % STEER.len()]
                    } else {
                        rng.next_u64() as u8
                    };
                    (rng.next_u64() as usize, byte)
                })
                .collect()
        };
        Mangle { cut, flips }
    }
}

/// A JSON tree of bounded depth with finite numbers, so that
/// `parse(v.to_string()) == v` must hold exactly.
struct Trees {
    depth: u32,
}

fn random_string(rng: &mut TestRng) -> String {
    (0..rng.next_u64() % 12)
        .map(|_| match rng.next_u64() % 4 {
            0 => (b' ' + (rng.next_u64() % 95) as u8) as char,
            1 => ['"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}'][rng.next_u64() as usize % 8],
            _ => char::from_u32((rng.next_u64() % 0x11_0000) as u32).unwrap_or('\u{fffd}'),
        })
        .collect()
}

fn random_number(rng: &mut TestRng) -> f64 {
    match rng.next_u64() % 3 {
        0 => (rng.next_u64() % (1 << 54)) as f64 - (1u64 << 53) as f64,
        1 => (rng.unit_f64() - 0.5) * 1e6,
        _ => Some(f64::from_bits(rng.next_u64()))
            .filter(|v| v.is_finite())
            .unwrap_or(0.5),
    }
}

impl Strategy for Trees {
    type Value = Json;
    fn sample(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 4 } else { 6 };
        let child = Trees {
            depth: self.depth.saturating_sub(1),
        };
        match rng.next_u64() % kinds {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 0),
            2 => Json::Num(random_number(rng)),
            3 => Json::Str(random_string(rng)),
            4 => Json::Arr((0..rng.next_u64() % 5).map(|_| child.sample(rng)).collect()),
            _ => Json::Obj(
                (0..rng.next_u64() % 5)
                    .map(|_| (random_string(rng), child.sample(rng)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn mangled_serve_requests_never_panic_a_decoder(pick in any::<usize>(), mangle in Mangles) {
        let seeds = &seeds().requests;
        decode_everywhere(&mangle.apply(&seeds[pick % seeds.len()]));
    }

    #[test]
    fn mangled_store_lines_never_panic_a_decoder(pick in any::<usize>(), mangle in Mangles) {
        let seeds = &seeds().store_lines;
        decode_everywhere(&mangle.apply(&seeds[pick % seeds.len()]));
    }

    #[test]
    fn mangled_cache_entries_never_panic_a_decoder(pick in any::<usize>(), mangle in Mangles) {
        let seeds = &seeds().payloads;
        decode_everywhere(&mangle.apply(&seeds[pick % seeds.len()]));
    }

    #[test]
    fn random_bytes_never_panic_a_decoder(bytes in collection::vec(any::<u8>(), 0..256)) {
        decode_everywhere(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn random_json_alphabet_never_panics_a_decoder(
        picks in collection::vec(any::<usize>(), 0..256),
    ) {
        const ALPHABET: &[u8] = b"{}[]\",:\\/0123456789.-+eEtruefalsn \\u";
        let text: String = picks.iter().map(|&i| ALPHABET[i % ALPHABET.len()] as char).collect();
        decode_everywhere(&text);
    }

    #[test]
    fn generated_trees_round_trip_exactly(tree in Trees { depth: 4 }) {
        let text = tree.to_string();
        prop_assert_eq!(json::parse(&text).unwrap(), tree, "{}", text);
    }
}
