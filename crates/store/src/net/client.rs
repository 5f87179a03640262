//! A blocking client for one `optimist-stored` daemon.
//!
//! One [`StoreClient`] wraps one connection; each call writes one NDJSON
//! line and reads one back. The serving tier holds one per store peer
//! (plus the consistent-hash ring that picks the peer); the bench and
//! the CLI use it directly.
//!
//! There is no retry layer here: the caller owns failure policy. The
//! serving tier reconnects and retries idempotent verbs once at its own
//! layer (where it can also count the retry per peer), then treats any
//! remaining [`StoreClientError`] as a store I/O error and feeds it to
//! its per-peer degraded-mode tripwire, exactly as a local disk error
//! would be.

use crate::json::{self, Json};
use crate::net::{hex16, parse_hex16};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A failed round trip: transport trouble, an unparsable response, or a
/// well-formed `"ok":false` refusal from the daemon.
#[derive(Debug)]
pub enum StoreClientError {
    /// The socket failed (includes timeouts).
    Io(io::Error),
    /// The daemon's response line was not valid JSON, or lacked a field
    /// the verb answers with.
    BadResponse(String),
    /// The daemon answered `"ok":false`; payload is its `error` text.
    Refused(String),
}

impl std::fmt::Display for StoreClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreClientError::Io(e) => write!(f, "store connection failed: {e}"),
            StoreClientError::BadResponse(line) => {
                write!(f, "unparsable store response: {line}")
            }
            StoreClientError::Refused(msg) => write!(f, "store daemon refused: {msg}"),
        }
    }
}

impl std::error::Error for StoreClientError {}

impl From<io::Error> for StoreClientError {
    fn from(e: io::Error) -> Self {
        StoreClientError::Io(e)
    }
}

impl StoreClientError {
    /// Flatten into an `io::Error` — the shape the serving tier's
    /// degraded-mode tripwire consumes.
    pub fn into_io(self) -> io::Error {
        match self {
            StoreClientError::Io(e) => e,
            other => io::Error::other(other.to_string()),
        }
    }

    /// True for failures of the *connection* (socket errors, truncated
    /// or garbled response lines) as opposed to a healthy daemon saying
    /// no. Transport failures are worth one reconnect-and-retry for
    /// idempotent verbs; a [`StoreClientError::Refused`] would refuse
    /// identically on a fresh connection.
    pub fn is_transport(&self) -> bool {
        !matches!(self, StoreClientError::Refused(_))
    }
}

/// A blocking connection to an `optimist-stored` daemon.
#[derive(Debug)]
pub struct StoreClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl StoreClient {
    /// Connect to a daemon at `addr` with no socket timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<StoreClient, StoreClientError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(StoreClient { writer, reader })
    }

    /// Bound each round trip: a peer that stops answering fails fast
    /// instead of wedging the serving tier's request thread.
    ///
    /// # Errors
    ///
    /// Propagates setsockopt failures.
    pub fn set_timeout(&self, timeout: Duration) -> Result<(), StoreClientError> {
        self.writer.set_read_timeout(Some(timeout))?;
        self.writer.set_write_timeout(Some(timeout))?;
        Ok(())
    }

    fn round_trip(&mut self, request: Json) -> Result<Json, StoreClientError> {
        let mut out = request.to_string();
        out.push('\n');
        self.writer.write_all(out.as_bytes())?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(StoreClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "store daemon closed the connection",
            )));
        }
        let msg = json::parse(response.trim())
            .map_err(|_| StoreClientError::BadResponse(response.trim().to_string()))?;
        if msg.get("ok").and_then(Json::as_bool) == Some(false) {
            return Err(StoreClientError::Refused(
                msg.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("(no error text)")
                    .to_string(),
            ));
        }
        Ok(msg)
    }

    /// Fetch the `(fingerprint, payload)` stored under `key`, or `None`
    /// on a miss.
    ///
    /// # Errors
    ///
    /// Transport failures, unparsable responses, and daemon refusals.
    pub fn get(&mut self, key: u64) -> Result<Option<(u64, Vec<u8>)>, StoreClientError> {
        let msg = self.round_trip(Json::obj([
            ("req", Json::from("get")),
            ("key", Json::from(hex16(key))),
        ]))?;
        if msg.get("hit").and_then(Json::as_bool) != Some(true) {
            return Ok(None);
        }
        let fingerprint = msg
            .get("fp")
            .and_then(Json::as_str)
            .and_then(parse_hex16)
            .ok_or_else(|| StoreClientError::BadResponse("hit without fp".into()))?;
        let payload = msg
            .get("payload")
            .and_then(Json::as_str)
            .ok_or_else(|| StoreClientError::BadResponse("hit without payload".into()))?;
        Ok(Some((fingerprint, payload.as_bytes().to_vec())))
    }

    /// Store `payload` under `(key, fingerprint)`. The payload must be
    /// UTF-8 (it travels as a JSON string — in the fleet it is always
    /// the serving tier's own JSON-encoded cache entry).
    ///
    /// # Errors
    ///
    /// `InvalidInput` for non-UTF-8 payloads; otherwise transport
    /// failures and daemon refusals.
    pub fn put(
        &mut self,
        key: u64,
        fingerprint: u64,
        payload: &[u8],
    ) -> Result<(), StoreClientError> {
        let text = std::str::from_utf8(payload).map_err(|_| {
            StoreClientError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "store payloads must be UTF-8 on the wire",
            ))
        })?;
        self.round_trip(Json::obj([
            ("req", Json::from("put")),
            ("key", Json::from(hex16(key))),
            ("fp", Json::from(hex16(fingerprint))),
            ("payload", Json::from(text)),
        ]))?;
        Ok(())
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures and daemon refusals.
    pub fn ping(&mut self) -> Result<(), StoreClientError> {
        self.verb("ping")?;
        Ok(())
    }

    /// The daemon's `stats` object, as compact JSON text.
    ///
    /// # Errors
    ///
    /// Transport failures and daemon refusals.
    pub fn stats_line(&mut self) -> Result<String, StoreClientError> {
        self.nested("stats")
    }

    /// The daemon's `health` object, as compact JSON text.
    ///
    /// # Errors
    ///
    /// Transport failures and daemon refusals.
    pub fn health_line(&mut self) -> Result<String, StoreClientError> {
        self.nested("health")
    }

    /// Ask the daemon to stop (it drains live connections first).
    ///
    /// # Errors
    ///
    /// Transport failures and daemon refusals.
    pub fn shutdown(&mut self) -> Result<(), StoreClientError> {
        self.verb("shutdown")?;
        Ok(())
    }

    /// A round trip for a request with no fields besides `req`.
    fn verb(&mut self, req: &str) -> Result<Json, StoreClientError> {
        self.round_trip(Json::obj([("req", Json::from(req))]))
    }

    /// The compact text of the object a `stats`/`health` response nests
    /// under the verb's own name.
    fn nested(&mut self, req: &str) -> Result<String, StoreClientError> {
        match self.verb(req)?.get(req) {
            Some(nested @ Json::Obj(_)) => Ok(nested.to_string()),
            _ => Err(StoreClientError::BadResponse(format!(
                "{req} response without {req}"
            ))),
        }
    }
}
