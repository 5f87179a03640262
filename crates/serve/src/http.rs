//! A minimal HTTP/1.1 front-end for the allocation daemon.
//!
//! The fleet's native protocol is NDJSON over a raw socket; this module
//! adds just enough HTTP framing for load balancers, curl, and probe
//! infrastructure to talk to a daemon without a custom client:
//!
//! * `POST /v1/alloc` — the body is NDJSON request lines (the exact
//!   wire protocol); the response body is the matching NDJSON response
//!   lines. One line or a whole batch — HTTP is purely a framing
//!   adapter, so responses are the raw socket's: a batch's item records
//!   come in completion order, then its `done` record.
//! * `GET /v1/health` — the `{"req":"health"}` response.
//! * `GET /v1/stats` — the `{"req":"stats"}` response.
//!
//! Every line goes through the one dispatcher, `Server::answer`, which
//! renders a body's response lines straight into one buffer, so
//! admission control (per batch item), deadlines, caching, and metrics
//! behave identically on every front-end. Protocol-level failures stay
//! in-band (`"ok":false` with HTTP 200); HTTP status codes are reserved
//! for framing problems (malformed request line, missing length,
//! oversized body).
//!
//! The listener runs on the same shared accept/drain loop as the NDJSON
//! one ([`optimist_store::daemon::Daemon`]): connections register in the
//! server's drain registry, a `shutdown` request (or SIGTERM) stops the
//! accept loop, readers are half-closed so in-flight responses still go
//! out, and stragglers are severed when the drain budget runs out.
//!
//! Persistent connections are supported (HTTP/1.1 keep-alive semantics;
//! `Connection: close` and HTTP/1.0 defaults honored). Chunked request
//! bodies are not — a client must send `Content-Length`.

use crate::json::Json;
use crate::server::{Disposition, Server};
use optimist_store::daemon::{read_line_capped, MAX_LINE_BYTES};
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};

/// Largest accepted request body: the same cap the NDJSON listener puts
/// on one request line.
const MAX_BODY_BYTES: usize = MAX_LINE_BYTES;

/// Largest accepted header block — HTTP requests here carry a method, a
/// path, and framing headers; anything bigger is not one of ours.
const MAX_HEADER_BYTES: usize = 16 << 10;

/// One parsed request head.
struct RequestHead {
    method: String,
    target: String,
    /// `Content-Length`, if present.
    content_length: Option<usize>,
    /// True when the client asked to close after this exchange (or spoke
    /// HTTP/1.0 without `keep-alive`).
    close: bool,
}

/// How reading a request head went.
enum Head {
    Ok(RequestHead),
    /// Clean end of the connection between requests.
    Eof,
    /// Unusable framing: answer `status`/`reason` and close.
    Bad(u16, &'static str),
}

/// Serve HTTP on the bound `listener` until shutdown is requested,
/// mirroring [`Server::run_listener`]'s lifecycle: one thread per
/// connection and a graceful drain once the stop flag rises. Both
/// front-ends may run at once — they share the stop flag and the drain
/// registry.
///
/// # Errors
///
/// Fails only if the listener cannot be polled; per-connection I/O
/// errors only end that connection.
pub fn run_http(server: &Server, listener: TcpListener) -> io::Result<()> {
    server.daemon.serve(listener, "http", |stream| {
        let _ = serve_connection(server, stream);
    })
}

/// Serve one connection: request heads and bodies in, framed NDJSON out,
/// until the client closes, asks to close, breaks framing, or the daemon
/// starts draining.
fn serve_connection(server: &Server, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let head = match read_head(&mut reader) {
            Ok(Head::Ok(head)) => head,
            Ok(Head::Eof) => return Ok(()),
            Ok(Head::Bad(status, reason)) => {
                write_error(&mut writer, status, reason)?;
                return Ok(());
            }
            Err(e) => return Err(e),
        };

        let mut stop_after = head.close || server.draining();
        let outcome = match (head.method.as_str(), head.target.as_str()) {
            ("GET", "/v1/health") => Route::Lines(r#"{"req":"health"}"#.to_string()),
            ("GET", "/v1/stats") => Route::Lines(r#"{"req":"stats"}"#.to_string()),
            ("POST", "/v1/alloc") => match head.content_length {
                None => Route::Error(411, "length required"),
                Some(n) if n > MAX_BODY_BYTES => Route::Error(413, "body too large"),
                Some(n) => {
                    let mut body = vec![0u8; n];
                    reader.read_exact(&mut body)?;
                    match String::from_utf8(body) {
                        Ok(text) => Route::Lines(text),
                        Err(_) => Route::Error(400, "body must be UTF-8 NDJSON"),
                    }
                }
            },
            (_, "/v1/alloc" | "/v1/health" | "/v1/stats") => {
                Route::Error(405, "method not allowed for this path")
            }
            _ => Route::Error(404, "unknown path"),
        };

        match outcome {
            Route::Lines(text) => {
                // Each response line ends in a newline; a body with no
                // request lines answers one empty line.
                let mut body = Vec::new();
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    let disposition = server
                        .answer(line, &mut body)
                        .expect("a Vec takes every write");
                    if disposition == Disposition::Shutdown {
                        stop_after = true;
                        break;
                    }
                }
                if body.is_empty() {
                    body.push(b'\n');
                }
                write_response(&mut writer, 200, &body, stop_after)?;
            }
            Route::Error(status, reason) => {
                write_error(&mut writer, status, reason)?;
                // Framing errors poison the stream position — close.
                if status != 404 && status != 405 {
                    stop_after = true;
                }
            }
        }
        if stop_after {
            return Ok(());
        }
    }
}

/// What a routed request needs next.
enum Route {
    /// Protocol lines to answer: the request body, or the one line a GET
    /// route stands for.
    Lines(String),
    /// An HTTP-level refusal.
    Error(u16, &'static str),
}

/// Read and parse one request head (request line + headers). No line
/// is buffered past [`MAX_HEADER_BYTES`]: the request line alone, and
/// the header lines together, must fit in it.
fn read_head(reader: &mut impl BufRead) -> io::Result<Head> {
    const TOO_LARGE: Head = Head::Bad(431, "header block too large");
    let mut buf = Vec::new();
    // Tolerate stray blank lines between pipelined requests — any number
    // of them, which is why this is a loop: a client controls the count.
    let request_line = loop {
        match read_line_capped(reader, &mut buf, MAX_HEADER_BYTES) {
            Ok(0) => return Ok(Head::Eof),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Ok(TOO_LARGE),
            Err(e) => return Err(e),
        }
        let line = utf8(&buf)?.trim_end();
        if !line.is_empty() {
            break line.to_string();
        }
    };
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Ok(Head::Bad(400, "malformed request line"));
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Ok(Head::Bad(505, "unsupported HTTP version")),
    };

    let mut content_length = None;
    let mut close = !http11;
    let mut header_bytes = 0usize;
    loop {
        match read_line_capped(reader, &mut buf, MAX_HEADER_BYTES - header_bytes) {
            Ok(0) => return Ok(Head::Bad(400, "connection closed mid-headers")),
            Ok(n) => header_bytes += n,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Ok(TOO_LARGE),
            Err(e) => return Err(e),
        }
        if header_bytes > MAX_HEADER_BYTES {
            return Ok(TOO_LARGE);
        }
        let line = utf8(&buf)?.trim_end();
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Ok(Head::Bad(400, "malformed header line"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                Ok(n) => content_length = Some(n),
                Err(_) => return Ok(Head::Bad(400, "unparsable content-length")),
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // No chunked support; refusing beats misreading the stream.
            return Ok(Head::Bad(501, "transfer-encoding not supported"));
        }
    }
    Ok(Head::Ok(RequestHead {
        method: method.to_string(),
        target: target.to_string(),
        content_length,
        close,
    }))
}

/// `bytes` as text; head lines that are not UTF-8 end the connection.
fn utf8(bytes: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    }
}

/// Write one response, head and body in one vectored write (one syscall
/// on a socket, so no Nagle stall, and no copy of the body),
/// `Content-Length`-framed, NDJSON media type.
fn write_response(
    writer: &mut impl Write,
    status: u16,
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason_phrase(status),
        body.len(),
    );
    let mut parts = [IoSlice::new(head.as_bytes()), IoSlice::new(body)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match writer.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    writer.flush()
}

fn write_error(writer: &mut impl Write, status: u16, reason: &str) -> io::Result<()> {
    let body = format!(
        "{}\n",
        Json::obj([("ok", Json::from(false)), ("error", Json::from(reason)),])
    );
    write_response(
        writer,
        status,
        body.as_bytes(),
        status != 404 && status != 405,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::SocketAddr;
    use std::sync::Arc;

    const FUNC: &str = "func double(v0:int) -> int {\nb0:\n    v1 = add.i v0, v0\n    ret v1\n}\n";

    fn spawn_http(server: Arc<Server>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || run_http(&server, listener).unwrap());
        (addr, handle)
    }

    /// A deliberately dumb test client: write the request text, parse the
    /// status line and `Content-Length`, return (status, body).
    fn exchange(stream: &mut TcpStream, request: &str) -> (u16, String) {
        stream.write_all(request.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .expect("status line")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(value) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = value.parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn health_and_stats_are_one_get_away() {
        let (addr, handle) = spawn_http(Arc::new(Server::new(16, 1)));
        let mut conn = TcpStream::connect(addr).unwrap();
        let (status, body) = exchange(&mut conn, "GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains(r#""state":"ok""#), "{body}");
        assert!(body.contains(r#""store":{"mode":"none"}"#), "{body}");
        // Same connection — keep-alive is the default.
        let (status, body) = exchange(&mut conn, "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains(r#""requests":"#), "{body}");

        let mut stopper = TcpStream::connect(addr).unwrap();
        let line = r#"{"req":"shutdown"}"#;
        let req = format!(
            "POST /v1/alloc HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{line}",
            line.len()
        );
        let (status, body) = exchange(&mut stopper, &req);
        assert_eq!(status, 200);
        assert!(body.contains(r#""shutdown":true"#), "{body}");
        handle.join().unwrap();
    }

    #[test]
    fn alloc_body_answers_byte_identically_to_the_raw_protocol() {
        let mut req = Json::obj([("req", Json::from("alloc"))]);
        req.push("ir", Json::from(FUNC));
        let line = req.to_string();
        // What the raw NDJSON front-end would say from a cold daemon
        // (latency stripped: it is the one legitimately nondeterministic
        // field). A *separate* cold daemon answers over HTTP, so neither
        // leg sees the other's memo.
        let (raw, _) = Server::new(16, 1).handle_line(&line);

        let server = Arc::new(Server::new(16, 1));
        let (addr, handle) = spawn_http(Arc::clone(&server));
        let mut conn = TcpStream::connect(addr).unwrap();
        let req = format!(
            "POST /v1/alloc HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{line}",
            line.len()
        );
        let (status, body) = exchange(&mut conn, &req);
        assert_eq!(status, 200);
        let strip = |s: &str| {
            let v = crate::json::parse(s).unwrap();
            let Json::Obj(pairs) = v else {
                panic!("object")
            };
            Json::Obj(
                pairs
                    .into_iter()
                    .filter(|(k, _)| k != "latency_us")
                    .collect(),
            )
            .to_string()
        };
        assert_eq!(strip(body.trim()), strip(&raw), "HTTP must be pure framing");

        server.request_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn framing_failures_answer_http_errors() {
        let (addr, handle) = spawn_http(Arc::new(Server::new(16, 1)));

        let mut conn = TcpStream::connect(addr).unwrap();
        let (status, _) = exchange(&mut conn, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);
        // 404 keeps the connection usable.
        let (status, _) = exchange(&mut conn, "DELETE /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 405);

        let mut conn = TcpStream::connect(addr).unwrap();
        let (status, _) = exchange(&mut conn, "POST /v1/alloc HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 411, "POST without a length is refused");

        let mut conn = TcpStream::connect(addr).unwrap();
        let (status, _) = exchange(&mut conn, "NONSENSE\r\n\r\n");
        assert_eq!(status, 400);

        let mut conn = TcpStream::connect(addr).unwrap();
        let (status, _) = exchange(&mut conn, "GET /v1/health SPDY/99\r\n\r\n");
        assert_eq!(status, 505);

        let mut stopper = TcpStream::connect(addr).unwrap();
        let line = r#"{"req":"shutdown"}"#;
        let req = format!(
            "POST /v1/alloc HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{line}",
            line.len()
        );
        exchange(&mut stopper, &req);
        handle.join().unwrap();
    }

    #[test]
    fn any_number_of_blank_lines_may_precede_a_request() {
        let mut input = "\r\n".repeat(100_000);
        input.push_str("GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n");
        let mut reader = BufReader::new(std::io::Cursor::new(input));
        let head = std::thread::spawn(move || match read_head(&mut reader) {
            Ok(Head::Ok(head)) => (head.method, head.target),
            _ => panic!("expected a request head"),
        })
        .join()
        .expect("a blank-line preamble must not overflow the stack");
        assert_eq!(head, ("GET".to_string(), "/v1/health".to_string()));
        let mut only_blank = BufReader::new("\r\n\n\r\n".as_bytes());
        assert!(matches!(read_head(&mut only_blank), Ok(Head::Eof)));
    }

    /// Fuzz cases per property: the full count under `--release`, a
    /// smaller budget in debug builds.
    const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 1024 };

    fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        collection::vec(any::<u8>(), len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn read_head_never_panics_on_random_bytes(input in bytes(0..512)) {
            let mut reader = BufReader::new(input.as_slice());
            // Keep reading heads the way a connection would, until the
            // stream ends or framing breaks.
            for _ in 0..input.len() + 1 {
                match read_head(&mut reader) {
                    Ok(Head::Ok(_)) => {}
                    Ok(Head::Eof | Head::Bad(..)) | Err(_) => break,
                }
            }
        }

        #[test]
        fn read_head_never_panics_on_mangled_requests(
            cut in 0usize..200,
            flips in collection::vec((0usize..200, any::<u8>()), 0..4),
        ) {
            let mut input = b"POST /v1/alloc HTTP/1.1\r\nHost: t\r\nContent-Length: 17\r\nConnection: keep-alive\r\n\r\n{\"req\":\"health\"}".to_vec();
            for (at, byte) in flips {
                let at = at % input.len();
                input[at] = byte;
            }
            input.truncate(cut.min(input.len()));
            let mut reader = BufReader::new(input.as_slice());
            let _ = read_head(&mut reader);
        }
    }
}
