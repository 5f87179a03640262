//! The `optimist-stored` daemon: a [`Store`] served over NDJSON/TCP.
//!
//! One request per line, one response per line, same conventions as the
//! serving daemon's protocol:
//!
//! | request | response |
//! |---|---|
//! | `{"req":"ping"}` | `{"ok":true}` |
//! | `{"req":"get","key":"16hex"}` | `{"ok":true,"hit":true,"fp":"16hex","payload":"…"}` or `{"ok":true,"hit":false}` |
//! | `{"req":"put","key":"16hex","fp":"16hex","payload":"…"}` | `{"ok":true}` |
//! | `{"req":"stats"}` | `{"ok":true,"stats":{…}}` |
//! | `{"req":"health"}` | `{"ok":true,"health":{"state":"ok"…}}` |
//! | `{"req":"shutdown"}` | `{"ok":true,"stopping":true}` |
//!
//! Malformed lines and failed operations answer `{"ok":false,"error":…}`
//! — the connection survives; only EOF or a transport error ends it.
//!
//! **Single-writer semantics** are preserved by construction: the one
//! daemon process owns the log directory, and every `get` and `put` from
//! every connection funnels through the one [`Store`], whose lock
//! serializes them (and the compaction pass a put may run).
//! Connections are served concurrently.
//!
//! **Graceful drain** is the shared [`Daemon`] loop: a `shutdown`
//! request (or SIGTERM in the binary) stops the accept loop, half-closes
//! the read side of every live connection so in-flight requests finish
//! and clients see a clean EOF, waits up to the drain timeout, then
//! force-closes stragglers.

use crate::daemon::{read_line_capped, Daemon, MAX_LINE_BYTES};
use crate::json::{self, Json};
use crate::net::{hex16, parse_hex16};
use crate::{log_info, Store};
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Wire-facing event counts, all monotonic.
#[derive(Debug, Default)]
struct NetCounters {
    conns: AtomicU64,
    requests: AtomicU64,
    gets: AtomicU64,
    get_hits: AtomicU64,
    get_errors: AtomicU64,
    puts: AtomicU64,
    put_errors: AtomicU64,
    malformed: AtomicU64,
}

impl NetCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn read(counter: &AtomicU64) -> Json {
        Json::from(counter.load(Ordering::Relaxed))
    }
}

/// A [`Store`] behind a TCP front-end. All methods take `&self`; one
/// server is shared across connection threads.
#[derive(Debug)]
pub struct StoreServer {
    store: Store,
    daemon: Daemon,
    counters: NetCounters,
}

impl StoreServer {
    /// Wrap `store` in a server with default timeouts.
    pub fn new(store: Store) -> StoreServer {
        StoreServer {
            store,
            daemon: Daemon::default(),
            counters: NetCounters::default(),
        }
    }

    /// Set per-connection socket timeouts (`None` = block forever). A
    /// read timeout makes idle connections re-check the drain flag; it
    /// does not close them.
    pub fn with_socket_timeouts(
        mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> StoreServer {
        self.daemon = self.daemon.with_socket_timeouts(read, write);
        self
    }

    /// Set the drain budget for [`StoreServer::run_listener`].
    pub fn with_drain_timeout(mut self, timeout: Duration) -> StoreServer {
        self.daemon = self.daemon.with_drain_timeout(timeout);
        self
    }

    /// The wrapped store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Begin shutdown: stop accepting, drain live connections.
    pub fn request_shutdown(&self) {
        self.daemon.request_shutdown();
    }

    /// True once shutdown has been requested.
    pub fn draining(&self) -> bool {
        self.daemon.draining()
    }

    /// Serve one request line (no trailing newline), returning the
    /// response line (no trailing newline). Transport-independent — the
    /// TCP loop and the unit tests both come through here.
    pub fn handle_line(&self, line: &str) -> String {
        NetCounters::bump(&self.counters.requests);
        let msg = match json::parse(line) {
            Ok(msg) => msg,
            Err(e) => {
                NetCounters::bump(&self.counters.malformed);
                return error_json(&e.to_string()).to_string();
            }
        };
        let response = match msg.get("req").and_then(Json::as_str) {
            Some("ping") => ok_response([]),
            Some("get") => self.handle_get(&msg),
            Some("put") => self.handle_put(&msg),
            Some("stats") => self.stats_response(),
            Some("health") => self.health_response(),
            Some("shutdown") => {
                self.request_shutdown();
                ok_response([("stopping", Json::from(true))])
            }
            Some(other) => error_json(&format!("unknown request `{other}`")),
            None => {
                NetCounters::bump(&self.counters.malformed);
                error_json("missing `req` field")
            }
        };
        response.to_string()
    }

    fn handle_get(&self, msg: &Json) -> Json {
        NetCounters::bump(&self.counters.gets);
        let Some(key) = hex_field(msg, "key") else {
            return error_json("get needs a hex `key`");
        };
        match self.store.try_get(key) {
            Ok(Some((fingerprint, payload))) => match String::from_utf8(payload) {
                Ok(text) => {
                    NetCounters::bump(&self.counters.get_hits);
                    ok_response([
                        ("hit", Json::from(true)),
                        ("fp", Json::from(hex16(fingerprint))),
                        ("payload", Json::from(text)),
                    ])
                }
                Err(_) => {
                    // Payloads are the serving tier's own JSON — never
                    // non-UTF-8 in practice. Refuse rather than mangle.
                    NetCounters::bump(&self.counters.get_errors);
                    error_json("stored payload is not UTF-8")
                }
            },
            Ok(None) => ok_response([("hit", Json::from(false))]),
            Err(e) => {
                NetCounters::bump(&self.counters.get_errors);
                error_json(&format!("get failed: {e}"))
            }
        }
    }

    fn handle_put(&self, msg: &Json) -> Json {
        NetCounters::bump(&self.counters.puts);
        let Some(key) = hex_field(msg, "key") else {
            return error_json("put needs a hex `key`");
        };
        let Some(fingerprint) = hex_field(msg, "fp") else {
            return error_json("put needs a hex `fp`");
        };
        let Some(payload) = msg.get("payload").and_then(Json::as_str) else {
            return error_json("put needs a string `payload`");
        };
        match self.store.put(key, fingerprint, payload.as_bytes()) {
            Ok(()) => ok_response([]),
            Err(e) => {
                NetCounters::bump(&self.counters.put_errors);
                error_json(&format!("put failed: {e}"))
            }
        }
    }

    fn stats_response(&self) -> Json {
        let snap = self.store.snapshot();
        let store = Json::obj([
            ("entries", Json::from(snap.entries)),
            ("file_bytes", Json::from(snap.file_bytes)),
            ("live_bytes", Json::from(snap.live_bytes)),
            ("dead_bytes", Json::from(snap.dead_bytes)),
            ("superseded", Json::from(snap.superseded)),
            ("evicted", Json::from(snap.evicted)),
            ("compactions", Json::from(snap.compactions)),
            ("read_errors", Json::from(snap.read_errors)),
            ("write_errors", Json::from(snap.write_errors)),
        ]);
        let c = &self.counters;
        let net = Json::obj([
            ("conns", NetCounters::read(&c.conns)),
            ("requests", NetCounters::read(&c.requests)),
            ("gets", NetCounters::read(&c.gets)),
            ("get_hits", NetCounters::read(&c.get_hits)),
            ("get_errors", NetCounters::read(&c.get_errors)),
            ("puts", NetCounters::read(&c.puts)),
            ("put_errors", NetCounters::read(&c.put_errors)),
            ("malformed", NetCounters::read(&c.malformed)),
        ]);
        ok_response([("stats", Json::obj([("store", store), ("net", net)]))])
    }

    fn health_response(&self) -> Json {
        let snap = self.store.snapshot();
        let state = if self.draining() { "draining" } else { "ok" };
        let health = Json::obj([
            ("state", Json::from(state)),
            ("entries", Json::from(snap.entries)),
            ("file_bytes", Json::from(snap.file_bytes)),
            ("write_errors", Json::from(snap.write_errors)),
        ]);
        ok_response([("health", health)])
    }

    /// Announce the bound address, then accept and serve connections on
    /// the shared [`Daemon`] loop until shutdown is requested and the
    /// drain completes.
    ///
    /// # Errors
    ///
    /// Propagates listener failures (bind metadata, fatal accept errors).
    pub fn run_listener(&self, listener: TcpListener) -> io::Result<()> {
        log_info!("optimist-stored listening on {}", listener.local_addr()?);
        self.daemon
            .serve(listener, "stored", |stream| self.serve_conn(stream))
    }

    fn serve_conn(&self, stream: TcpStream) {
        NetCounters::bump(&self.counters.conns);
        let mut writer = stream;
        let Ok(reader) = writer.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(reader);
        let mut buf = Vec::new();
        loop {
            match read_line_capped(&mut reader, &mut buf, MAX_LINE_BYTES) {
                Ok(0) => break,
                Ok(_) => {
                    let Ok(line) = std::str::from_utf8(&buf) else {
                        break;
                    };
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    let mut response = self.handle_line(trimmed);
                    response.push('\n');
                    if writer.write_all(response.as_bytes()).is_err() {
                        break;
                    }
                }
                // The rest of the line is still unread, so the stream
                // cannot resynchronize: answer and close.
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    let _ =
                        writer.write_all(format!("{}\n", error_json("line too long")).as_bytes());
                    break;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Idle past the read timeout: stay open, but let a
                    // drain in progress reclaim the thread.
                    if self.draining() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    }
}

/// `{"ok":true, …rest}`.
fn ok_response<const N: usize>(rest: [(&'static str, Json); N]) -> Json {
    let mut response = Json::obj([("ok", Json::from(true))]);
    for (key, value) in rest {
        response.push(key, value);
    }
    response
}

fn error_json(message: &str) -> Json {
    Json::obj([("ok", Json::from(false)), ("error", Json::from(message))])
}

/// A key or fingerprint field spelled in hex.
fn hex_field(msg: &Json, key: &str) -> Option<u64> {
    msg.get(key).and_then(Json::as_str).and_then(parse_hex16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreOptions;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "optimist-stored-unit-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn server(name: &str) -> StoreServer {
        StoreServer::new(Store::open(scratch(name), StoreOptions::default()).unwrap())
    }

    #[test]
    fn the_protocol_round_trips_through_handle_line() {
        let server = server("proto");
        assert_eq!(server.handle_line(r#"{"req":"ping"}"#), r#"{"ok":true}"#);

        let miss = server.handle_line(r#"{"req":"get","key":"00000000000000aa"}"#);
        assert_eq!(miss, r#"{"ok":true,"hit":false}"#);

        let put = server.handle_line(
            r#"{"req":"put","key":"00000000000000aa","fp":"000000000000002a","payload":"{\"v\":1}"}"#,
        );
        assert_eq!(put, r#"{"ok":true}"#);

        let hit = server.handle_line(r#"{"req":"get","key":"00000000000000aa"}"#);
        let msg = json::parse(&hit).unwrap();
        assert_eq!(msg.get("hit").and_then(Json::as_bool), Some(true));
        assert_eq!(
            msg.get("fp").and_then(Json::as_str),
            Some("000000000000002a")
        );
        assert_eq!(
            msg.get("payload").and_then(Json::as_str),
            Some(r#"{"v":1}"#)
        );

        let stats = server.handle_line(r#"{"req":"stats"}"#);
        assert!(
            stats.contains(r#""ok":true"#) && stats.contains(r#""gets":2"#),
            "{stats}"
        );

        let health = server.handle_line(r#"{"req":"health"}"#);
        assert!(health.contains(r#""state":"ok""#), "{health}");

        let stop = server.handle_line(r#"{"req":"shutdown"}"#);
        assert!(stop.contains(r#""stopping":true"#));
        assert!(server.draining());
        let health = server.handle_line(r#"{"req":"health"}"#);
        assert!(health.contains(r#""state":"draining""#), "{health}");
    }

    #[test]
    fn malformed_and_unknown_requests_answer_ok_false() {
        let server = server("malformed");
        for bad in [
            "not json",
            r#"{"req":"frobnicate"}"#,
            r#"{"req":"scan"}"#,
            r#"{"no_req":true}"#,
            r#"{"req":"get"}"#,
            r#"{"req":"get","key":"xyz"}"#,
            r#"{"req":"put","key":"aa"}"#,
        ] {
            let resp = server.handle_line(bad);
            assert!(resp.starts_with(r#"{"ok":false"#), "{bad} -> {resp}");
        }
        // The connection-level counters saw the garbage.
        let stats = server.handle_line(r#"{"req":"stats"}"#);
        assert!(stats.contains(r#""malformed":2"#), "{stats}");
    }

    #[test]
    fn failed_store_io_is_an_ok_false_response_not_a_crash() {
        let server = server("io-error");
        server
            .store()
            .failpoints()
            .arm("put", crate::failpoint::FailKind::Enospc);
        let resp = server.handle_line(
            r#"{"req":"put","key":"0000000000000001","fp":"0000000000000001","payload":"x"}"#,
        );
        assert!(resp.contains(r#""ok":false"#), "{resp}");
        let stats = server.handle_line(r#"{"req":"stats"}"#);
        assert!(stats.contains(r#""put_errors":1"#), "{stats}");
    }
}
