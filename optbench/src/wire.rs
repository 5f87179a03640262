//! Blocking clients that keep the raw response bytes: NDJSON over TCP
//! and keep-alive HTTP/1.1 `POST /v1/alloc`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

/// The largest HTTP body the client accepts (the daemon caps request
/// bodies at 64 MiB; answers are smaller than their requests).
const MAX_BODY: usize = 64 << 20;

/// One request's answer: the time from send to the last response byte,
/// and the response without its trailing newline.
pub type Exchange = Result<(Duration, String), String>;

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|_| stream.set_read_timeout(Some(TIMEOUT)))
        .map_err(|e| format!("socket setup: {e}"))?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

/// One NDJSON connection.
pub struct Ndjson {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Ndjson {
    pub fn connect(addr: &str) -> Result<Ndjson, String> {
        let (writer, reader) = connect(addr)?;
        Ok(Ndjson { writer, reader })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<String, String> {
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(resp.trim_end().to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Send one line and read its answer; the duration runs from the
    /// send to the last response byte.
    pub fn call(&mut self, line: &str) -> Exchange {
        let started = Instant::now();
        self.send(line)?;
        let resp = self.recv()?;
        Ok((started.elapsed(), resp))
    }
}

/// One keep-alive HTTP/1.1 connection to the daemon's front-end.
pub struct Http {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Http {
    pub fn connect(addr: &str) -> Result<Http, String> {
        let (writer, reader) = connect(addr)?;
        Ok(Http { writer, reader })
    }

    /// `POST /v1/alloc` with `line` as the body; returns the body of a
    /// 200 answer without its trailing newline.
    pub fn call(&mut self, line: &str) -> Exchange {
        let started = Instant::now();
        let head = format!(
            "POST /v1/alloc HTTP/1.1\r\nHost: optbench\r\nContent-Length: {}\r\n\r\n",
            line.len()
        );
        let mut buf = Vec::with_capacity(head.len() + line.len());
        buf.extend_from_slice(head.as_bytes());
        buf.extend_from_slice(line.as_bytes());
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("http send: {e}"))?;
        let mut status = String::new();
        self.reader
            .read_line(&mut status)
            .map_err(|e| format!("http recv: {e}"))?;
        let mut length = None;
        loop {
            let mut header = String::new();
            self.reader
                .read_line(&mut header)
                .map_err(|e| format!("http recv: {e}"))?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length
            .filter(|&n| n <= MAX_BODY)
            .ok_or_else(|| format!("http answer without a usable length: {status}"))?;
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("http body: {e}"))?;
        let elapsed = started.elapsed();
        if !status.starts_with("HTTP/1.1 200") {
            return Err(format!("http status {}", status.trim_end()));
        }
        let body = String::from_utf8(body).map_err(|_| "http body is not UTF-8".to_string())?;
        Ok((elapsed, body.trim_end().to_string()))
    }
}
