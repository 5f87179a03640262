//! Serving a stream of request lines: one request at a time, with a
//! batch's items fanned out.
//!
//! Every front-end answers a line through `Server::answer`. NDJSON
//! connections and stdio run [`Server::serve_lines`], which reads a line,
//! answers it, and reads the next only after the answer is written, so
//! requests pipelined on one connection run one after another and are
//! answered in order. Clients wait for each reply anyway; the only work
//! one connection overlaps is a batch's items.
//!
//! A batch runs its items on at most
//! [`max_inflight`](Server::with_max_inflight) scoped workers. Each worker
//! takes the next item, admits it under the daemon-wide load cap, computes
//! it under `catch_unwind`, writes its record, and only then takes another
//! item. Hence:
//!
//! * **backpressure** — a client that stops reading stops being served new
//!   compute once every worker waits on the socket, so at most
//!   `max_inflight` records are ever pending;
//! * **ordering** — item records go out in completion order, tagged with
//!   the client's ids, and the `done` record follows the last of them;
//! * **isolation** — a panicking item answers an error record of its own
//!   and the rest of the batch runs on;
//! * **disconnects** — after a failed write no worker writes again or
//!   takes another item, so the [`load`](crate::metrics::Metrics::load)
//!   and [`inflight`](crate::metrics::Metrics::inflight) gauges return to
//!   zero and no pool capacity leaks.

use crate::json::Json;
use crate::log_warn;
use crate::protocol::{BatchItem, BatchPayload};
use crate::server::{error_response, Disposition, Server};
use optimist_regalloc::{AllocatorConfig, Deadline};
use optimist_store::daemon::{read_line_capped, MAX_LINE_BYTES};
use std::io::{self, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

impl Server {
    /// Serve newline-delimited requests from `input`, writing each answer
    /// to `output` before reading the next line. Stops at end of input,
    /// after a `shutdown` request, or after the first request if `oneshot`
    /// is set. NDJSON connections and stdio both run this loop.
    ///
    /// # Errors
    ///
    /// A line longer than [`MAX_LINE_BYTES`] is answered
    /// `{"ok":false,"error":"line too long"}` and ends the stream with that
    /// error, since the rest of the line is still unread. A read error, a
    /// line that is not UTF-8 and a failed write end it too; a read timeout
    /// (an idle client) is counted in
    /// [`idle_reaps`](crate::metrics::Metrics::idle_reaps).
    pub fn serve_lines(
        &self,
        input: impl Read,
        mut output: impl Write + Send,
        oneshot: bool,
    ) -> io::Result<()> {
        let mut reader = BufReader::new(input);
        let mut buf = Vec::new();
        loop {
            match read_line_capped(&mut reader, &mut buf, MAX_LINE_BYTES) {
                Ok(0) => return Ok(()),
                Ok(_) => {}
                Err(e) => {
                    match e.kind() {
                        io::ErrorKind::InvalidData => {
                            write_line(&mut output, &error_response("line too long"))?;
                        }
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                            self.metrics().idle_reaps.inc();
                            log_warn!("connection idle past its read timeout; reaping");
                        }
                        _ => {}
                    }
                    return Err(e);
                }
            }
            let line = std::str::from_utf8(&buf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if line.trim().is_empty() {
                continue;
            }
            if self.answer(line, &mut output)? == Disposition::Shutdown || oneshot {
                return Ok(());
            }
        }
    }

    /// Answer a batch's items on at most `max_inflight` workers, writing
    /// each record to `out` as it finishes, then the `done` record. Every
    /// item races the one `deadline`.
    pub(crate) fn run_batch<W: Write + Send>(
        &self,
        items: &[BatchItem],
        config: &AllocatorConfig,
        deadline: &Deadline,
        out: &mut W,
    ) -> io::Result<()> {
        let started = Instant::now();
        let next = AtomicUsize::new(0);
        let errors = AtomicUsize::new(0);
        // The writer, or the error that broke it.
        let sink: Mutex<io::Result<&mut W>> = Mutex::new(Ok(out));
        let work = || {
            while let Some(item) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
                let body = || match &item.payload {
                    // Key items never compute, so they never race the deadline.
                    BatchPayload::Ir(ir) => self.alloc_response(ir, config, false, deadline),
                    BatchPayload::Key(key) => self.key_response(*key, config),
                };
                let written = self.unit(body, |mut record| {
                    record.push("id", item.id.clone());
                    if record.get("ok").and_then(Json::as_bool) != Some(true) {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut sink = sink.lock().expect("no worker panics while writing");
                    let Ok(out) = &mut *sink else {
                        return false;
                    };
                    if let Err(e) = write_line(out, &record) {
                        *sink = Err(e);
                        return false;
                    }
                    true
                });
                if !written {
                    break;
                }
            }
        };
        std::thread::scope(|s| {
            for _ in 1..self.max_inflight().min(items.len()) {
                s.spawn(work);
            }
            work();
        });
        let out = sink.into_inner().expect("no worker panics while writing")?;
        let done = done_record(items.len(), errors.into_inner(), started.elapsed());
        write_line(out, &done)
    }

    /// Run one work unit: admit it under the daemon-wide load cap, compute
    /// `body` with panic isolation, and hand the response to `emit`. A
    /// refused unit emits the shed response. An admitted one counts in the
    /// `inflight` gauge until `emit` returns.
    pub(crate) fn unit<R>(&self, body: impl FnOnce() -> Json, emit: impl FnOnce(Json) -> R) -> R {
        if !self.try_admit_unit() {
            return emit(self.overloaded_response());
        }
        let metrics = self.metrics();
        metrics.stream_units.inc();
        metrics.inflight.raise(1);
        metrics.inflight_depth.record_value(metrics.inflight.get());
        let response = catch_unwind(AssertUnwindSafe(body))
            .unwrap_or_else(|_| error_response("internal error: work unit panicked"));
        self.release_unit();
        let emitted = emit(response);
        metrics.stream_responses.inc();
        metrics.inflight.lower(1);
        emitted
    }
}

/// The aggregate record that terminates a batch response: item count,
/// error count, and wall time for the whole batch.
fn done_record(items: usize, errors: usize, elapsed: Duration) -> Json {
    Json::obj([
        ("done", Json::from(true)),
        ("ok", Json::from(errors == 0)),
        ("items", Json::from(items as u64)),
        ("errors", Json::from(errors as u64)),
        (
            "latency_us",
            Json::from(elapsed.as_micros().min(u128::from(u64::MAX)) as u64),
        ),
    ])
}

/// Write one response line and flush it. One `write_all` per line: a
/// formatted write into a raw socket would emit a syscall per fragment.
pub(crate) fn write_line(out: &mut impl Write, response: &Json) -> io::Result<()> {
    let mut line = response.to_string();
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FUNC: &str = "func double(v0:int) -> int {\nb0:\n    v1 = add.i v0, v0\n    ret v1\n}\n";

    fn alloc_line(ir: &str) -> String {
        let mut req = Json::obj([("req", Json::from("alloc"))]);
        req.push("ir", Json::from(ir));
        req.to_string()
    }

    fn batch_line(items: &[(&str, &str)]) -> String {
        let mut arr = Vec::new();
        for (id, ir) in items {
            arr.push(Json::obj([
                ("id", Json::from(*id)),
                ("ir", Json::from(*ir)),
            ]));
        }
        let mut req = Json::obj([("req", Json::from("batch"))]);
        req.push("items", Json::Arr(arr));
        req.to_string()
    }

    fn run(server: &Server, input: &str) -> Vec<Json> {
        let mut out = Vec::new();
        server
            .serve_lines(input.as_bytes(), &mut out, false)
            .unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn plain_requests_answer_in_submission_order() {
        let server = Server::new(16, 1).with_max_inflight(4);
        let input = format!(
            "{}\n{}\n{}\n",
            alloc_line(FUNC),
            "{\"req\":\"ping\"}",
            alloc_line(FUNC)
        );
        let records = run(&server, &input);
        assert_eq!(records.len(), 3);
        assert!(records[0].get("functions").is_some(), "alloc answers first");
        assert_eq!(records[1].get("pong").and_then(Json::as_bool), Some(true));
        assert!(records[2].get("functions").is_some());
    }

    #[test]
    fn batch_streams_item_records_then_done() {
        let server = Server::new(16, 1).with_max_inflight(4);
        let renamed = FUNC.replace("double", "other");
        let input = format!("{}\n", batch_line(&[("a", FUNC), ("b", &renamed)]));
        let records = run(&server, &input);
        assert_eq!(records.len(), 3);
        let done = records.last().unwrap();
        assert_eq!(done.get("done").and_then(Json::as_bool), Some(true));
        assert_eq!(done.get("items").and_then(Json::as_u64), Some(2));
        assert_eq!(done.get("errors").and_then(Json::as_u64), Some(0));
        let mut ids: Vec<&str> = records[..2]
            .iter()
            .map(|r| r.get("id").and_then(Json::as_str).unwrap())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, ["a", "b"]);
        for r in &records[..2] {
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
            assert!(r.get("latency_us").is_none(), "items are latency-free");
        }
    }

    #[test]
    fn empty_batch_is_just_a_done_record() {
        let server = Server::new(4, 1);
        let records = run(&server, "{\"req\":\"batch\",\"items\":[]}\n");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].get("items").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn window_of_one_still_completes_a_wide_batch() {
        let server = Server::new(64, 1).with_max_inflight(1);
        let items: Vec<(String, String)> = (0..6)
            .map(|i| (format!("i{i}"), FUNC.replace("double", &format!("f{i}"))))
            .collect();
        let refs: Vec<(&str, &str)> = items
            .iter()
            .map(|(id, ir)| (id.as_str(), ir.as_str()))
            .collect();
        let input = format!("{}\n", batch_line(&refs));
        let records = run(&server, &input);
        assert_eq!(records.len(), 7);
        assert_eq!(
            records[6].get("items").and_then(Json::as_u64),
            Some(6),
            "{}",
            records[6]
        );
        assert_eq!(server.metrics().inflight.get(), 0);
        assert_eq!(
            server.metrics().stream_units.get(),
            server.metrics().stream_responses.get()
        );
    }

    #[test]
    fn shutdown_over_stream_stops_and_reports() {
        let server = Server::new(4, 1);
        let input = format!(
            "{}\n{{\"req\":\"shutdown\"}}\n{}\n",
            alloc_line(FUNC),
            alloc_line(FUNC)
        );
        let records = run(&server, &input);
        assert_eq!(records.len(), 2, "nothing after shutdown is served");
        assert_eq!(
            records[1].get("shutdown").and_then(Json::as_bool),
            Some(true)
        );
    }
}
