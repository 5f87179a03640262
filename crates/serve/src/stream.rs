//! The streaming connection front-end: intra-connection concurrency.
//!
//! [`run_stream`] serves one connection with three kinds of thread:
//!
//! * the **reader** (the calling thread) parses request lines and *admits*
//!   work units — plain `alloc` requests and individual batch items — into
//!   a bounded in-flight window;
//! * one short-lived **unit** thread per admitted unit runs the cache
//!   lookup / allocation (the heavy lifting still happens on the server's
//!   shared worker pool) and hands its response to the writer;
//! * the **writer** owns the socket's write half, restores submission
//!   order for plain responses via a sequence-numbered reorder buffer, and
//!   emits id-tagged batch item records immediately, in completion order.
//!
//! The window is the backpressure rule: a unit's slot is returned only
//! after its response bytes are written (or the write has failed), so a
//! client that stops reading stops being served new compute once
//! `max_inflight` responses are queued, and buffered-response memory is
//! bounded by the window. Because the reader admits units in request
//! order, every response a buffered plain response waits on belongs to a
//! unit that already holds a slot — the window can always drain, so the
//! ordering rule cannot deadlock.
//!
//! On a write error (client gone mid-batch) the writer keeps draining the
//! response channel without writing, still releasing window slots, so the
//! [`inflight`](crate::metrics::Metrics::inflight) gauge returns to zero
//! and no pool capacity leaks.

use crate::json::Json;
use crate::log_warn;
use crate::protocol::Request;
use crate::server::{done_record, error_response, Disposition, Server, DEFAULT_MAX_INFLIGHT};
use optimist_store::daemon::{read_line_capped, MAX_LINE_BYTES};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Knobs for one streaming connection.
#[derive(Debug, Clone, Copy)]
pub struct StreamOpts {
    /// Bound on concurrently-executing work units for this connection.
    /// Values below 1 are treated as 1 (a window must admit something).
    pub max_inflight: usize,
}

impl Default for StreamOpts {
    fn default() -> Self {
        StreamOpts {
            max_inflight: DEFAULT_MAX_INFLIGHT,
        }
    }
}

/// A counting semaphore over a mutex and condvar: the in-flight window.
#[derive(Debug)]
struct Window {
    free: Mutex<usize>,
    available: Condvar,
}

impl Window {
    fn new(slots: usize) -> Window {
        Window {
            free: Mutex::new(slots.max(1)),
            available: Condvar::new(),
        }
    }

    /// Block until a slot is free, then take it.
    fn acquire(&self) {
        let mut free = self.free.lock().unwrap();
        while *free == 0 {
            free = self.available.wait(free).unwrap();
        }
        *free -= 1;
    }

    /// Return a slot taken by [`Window::acquire`].
    fn release(&self) {
        *self.free.lock().unwrap() += 1;
        self.available.notify_one();
    }
}

/// One line handed to the writer thread.
enum Emit {
    /// A plain response: held until every lower sequence number has been
    /// written, so non-batch clients see strict submission order.
    Ordered {
        seq: u64,
        line: String,
        /// Whether writing this line returns an in-flight window slot.
        permit: bool,
    },
    /// A batch item record: written immediately, in completion order. The
    /// embedded `id` is the client's correlation handle.
    Tagged {
        line: String,
        /// Whether writing this line returns an in-flight window slot
        /// (false for records the admission gate refused — those never
        /// took a slot).
        permit: bool,
    },
}

/// Progress of one in-flight `batch` request, shared by its item units.
/// The last item to finish emits the `done` record into the batch's
/// reserved sequence slot.
struct BatchProgress {
    remaining: AtomicUsize,
    errors: AtomicUsize,
    items: usize,
    seq: u64,
    started: Instant,
}

/// Serve one connection with out-of-order execution inside a bounded
/// in-flight window. Plain requests are answered in submission order;
/// batch item records stream back as they finish. Returns when the client
/// disconnects or a `shutdown` request arrives (the stop flag is set by
/// [`Server::handle_line`] as usual).
pub fn run_stream(
    server: &Server,
    input: impl io::Read,
    output: impl Write + Send,
    opts: StreamOpts,
) -> io::Result<()> {
    let window = Window::new(opts.max_inflight);
    let (tx, rx) = mpsc::channel::<Emit>();
    let metrics = server.metrics();

    std::thread::scope(|s| {
        let writer = s.spawn(|| write_loop(server, rx, &window, output));

        let mut reader = BufReader::new(input);
        let mut buf = Vec::new();
        let mut seq = 0u64;
        loop {
            let line = match read_line_capped(&mut reader, &mut buf, MAX_LINE_BYTES) {
                Ok(0) => break,
                Ok(_) => match std::str::from_utf8(&buf) {
                    Ok(line) => line,
                    Err(_) => break, // not NDJSON; drain and leave
                },
                // The rest of the line is still unread, so the stream
                // cannot resynchronize: answer and close.
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    let line = error_response("line too long").to_string();
                    let _ = tx.send(Emit::Ordered {
                        seq,
                        line,
                        permit: false,
                    });
                    break;
                }
                Err(e) => {
                    // A read timeout means the client sat silent past the
                    // socket's idle budget: reap the connection (in-flight
                    // responses still drain through the writer below).
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) {
                        metrics.idle_reaps.inc();
                        log_warn!("connection idle past its read timeout; reaping");
                    }
                    break; // client gone; drain and leave
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let my_seq = seq;
            seq += 1;

            // Peek at the request kind. Work-carrying requests are
            // executed concurrently below; everything else — control
            // requests and unparsable lines — goes through the ordinary
            // serial path (which owns the request/parse-error counters).
            let req = Request::parse(line);
            match req {
                Ok(Request::Alloc {
                    ir,
                    config,
                    deadline_ms,
                }) => {
                    metrics.requests.inc();
                    // Admission control runs in the reader — sequentially,
                    // *before* the window — so an overloaded daemon sheds
                    // instantly instead of blocking new requests behind a
                    // full window.
                    if !server.try_admit_unit() {
                        let _ = tx.send(Emit::Ordered {
                            seq: my_seq,
                            line: server.overloaded_response().to_string(),
                            permit: false,
                        });
                        continue;
                    }
                    // The deadline clock starts at admission: queue time
                    // inside the daemon counts against the budget.
                    let deadline = server.deadline_for(deadline_ms);
                    admit(server, &window);
                    let tx = tx.clone();
                    s.spawn(move || {
                        let resp =
                            unit_guarded(|| server.alloc_response(&ir, &config, true, &deadline));
                        server.release_unit();
                        let _ = tx.send(Emit::Ordered {
                            seq: my_seq,
                            line: resp.to_string(),
                            permit: true,
                        });
                    });
                }
                Ok(Request::Batch {
                    items,
                    config,
                    deadline_ms,
                }) => {
                    metrics.requests.inc();
                    metrics.batch_requests.inc();
                    if items.is_empty() {
                        let _ = tx.send(Emit::Ordered {
                            seq: my_seq,
                            line: done_record(0, 0, Instant::now().elapsed()).to_string(),
                            permit: false,
                        });
                        continue;
                    }
                    let progress = Arc::new(BatchProgress {
                        remaining: AtomicUsize::new(items.len()),
                        errors: AtomicUsize::new(0),
                        items: items.len(),
                        seq: my_seq,
                        started: Instant::now(),
                    });
                    let config = Arc::new(config);
                    // One absolute deadline for the whole batch, started
                    // at admission; every item races it.
                    let deadline = server.deadline_for(deadline_ms);
                    for item in items {
                        metrics.batch_items.inc();
                        if !server.try_admit_unit() {
                            // Shed this item (it never takes a slot) but
                            // keep the batch's accounting exact: the done
                            // record still arrives after the last item.
                            let mut record = server.overloaded_response();
                            record.push("id", item.id.clone());
                            progress.errors.fetch_add(1, Ordering::Relaxed);
                            let _ = tx.send(Emit::Tagged {
                                line: record.to_string(),
                                permit: false,
                            });
                            finish_batch_item(&progress, &tx);
                            continue;
                        }
                        admit(server, &window);
                        let tx = tx.clone();
                        let progress = Arc::clone(&progress);
                        let config = Arc::clone(&config);
                        let deadline = deadline.clone();
                        s.spawn(move || {
                            let record =
                                unit_guarded(|| server.item_response(&item, &config, &deadline));
                            server.release_unit();
                            if record.get("ok").and_then(Json::as_bool) != Some(true) {
                                progress.errors.fetch_add(1, Ordering::Relaxed);
                            }
                            let _ = tx.send(Emit::Tagged {
                                line: record.to_string(),
                                permit: true,
                            });
                            finish_batch_item(&progress, &tx);
                        });
                    }
                }
                _ => {
                    // ping / stats / shutdown / parse error: cheap and
                    // synchronous, so answer inline and emit in order.
                    let (resp, disposition) = server.handle_line(line);
                    let _ = tx.send(Emit::Ordered {
                        seq: my_seq,
                        line: resp,
                        permit: false,
                    });
                    if disposition == Disposition::Shutdown {
                        break;
                    }
                }
            }
        }

        // Close the reader's sender: once every unit thread in this scope
        // finishes and drops its clone, the writer sees the channel close
        // and exits. The scope then joins everything.
        drop(tx);
        writer.join().unwrap_or(Ok(()))
    })
}

/// Count one finished (or shed) batch item; the last one emits the `done`
/// record into the batch's reserved sequence slot.
fn finish_batch_item(progress: &BatchProgress, tx: &mpsc::Sender<Emit>) {
    if progress.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let done = done_record(
            progress.items,
            progress.errors.load(Ordering::Relaxed),
            progress.started.elapsed(),
        );
        let _ = tx.send(Emit::Ordered {
            seq: progress.seq,
            line: done.to_string(),
            permit: false,
        });
    }
}

/// Take a window slot for one work unit and record the admission metrics.
fn admit(server: &Server, window: &Window) {
    window.acquire();
    let metrics = server.metrics();
    metrics.stream_units.inc();
    metrics.inflight.raise(1);
    metrics.inflight_depth.record_value(metrics.inflight.get());
}

/// Run one unit's body with panic isolation: a poisoned module fails its
/// own request/item, never the connection.
fn unit_guarded(body: impl FnOnce() -> Json) -> Json {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|_| {
        Json::obj([
            ("ok", Json::from(false)),
            ("error", Json::from("internal error: work unit panicked")),
        ])
    })
}

/// The writer thread: restore submission order for plain responses, pass
/// batch item records straight through, and return window slots once the
/// bytes are out (or the socket is dead — then keep draining so slots and
/// the in-flight gauge still come back).
fn write_loop(
    server: &Server,
    rx: mpsc::Receiver<Emit>,
    window: &Window,
    mut output: impl Write,
) -> io::Result<()> {
    let metrics = server.metrics();
    let mut next_seq = 0u64;
    let mut held: BTreeMap<u64, (String, bool)> = BTreeMap::new();
    let mut broken = false;

    // Write one line; after the first failure, discard instead (the
    // per-emit bookkeeping below still runs).
    let put = |line: &str, output: &mut dyn Write, broken: &mut bool| {
        if *broken {
            return;
        }
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        if output
            .write_all(&bytes)
            .and_then(|()| output.flush())
            .is_err()
        {
            *broken = true;
        }
    };

    let settle = |permit: bool| {
        if permit {
            metrics.stream_responses.inc();
            metrics.inflight.lower(1);
            window.release();
        }
    };

    for emit in rx {
        match emit {
            Emit::Tagged { line, permit } => {
                put(&line, &mut output, &mut broken);
                settle(permit);
            }
            Emit::Ordered { seq, line, permit } => {
                held.insert(seq, (line, permit));
                while let Some((line, permit)) = held.remove(&next_seq) {
                    put(&line, &mut output, &mut broken);
                    settle(permit);
                    next_seq += 1;
                }
            }
        }
    }
    // Responses still out of order at channel close can only mean the
    // reader stopped early (disconnect mid-stream); release their slots.
    for (_, (_, permit)) in held {
        settle(permit);
    }
    if broken {
        Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "client disconnected",
        ))
    } else {
        Ok(())
    }
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

    fn run(server: &Server, input: &str, opts: StreamOpts) -> Vec<Json> {
        let mut out = Vec::new();
        run_stream(server, input.as_bytes(), &mut out, opts).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn plain_requests_answer_in_submission_order() {
        let server = Server::new(16, 1);
        let input = format!(
            "{}\n{}\n{}\n",
            alloc_line(FUNC),
            "{\"req\":\"ping\"}",
            alloc_line(FUNC)
        );
        let records = run(&server, &input, StreamOpts { max_inflight: 4 });
        assert_eq!(records.len(), 3);
        assert!(records[0].get("functions").is_some(), "alloc answers first");
        assert_eq!(records[1].get("pong").and_then(Json::as_bool), Some(true));
        assert!(records[2].get("functions").is_some());
    }

    #[test]
    fn batch_streams_item_records_then_done() {
        let server = Server::new(16, 1);
        let renamed = FUNC.replace("double", "other");
        let input = format!("{}\n", batch_line(&[("a", FUNC), ("b", &renamed)]));
        let records = run(&server, &input, StreamOpts { max_inflight: 4 });
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
        let records = run(
            &server,
            "{\"req\":\"batch\",\"items\":[]}\n",
            StreamOpts::default(),
        );
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].get("items").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn window_of_one_still_completes_a_wide_batch() {
        let server = Server::new(64, 1);
        let items: Vec<(String, String)> = (0..6)
            .map(|i| (format!("i{i}"), FUNC.replace("double", &format!("f{i}"))))
            .collect();
        let refs: Vec<(&str, &str)> = items
            .iter()
            .map(|(id, ir)| (id.as_str(), ir.as_str()))
            .collect();
        let input = format!("{}\n", batch_line(&refs));
        let records = run(&server, &input, StreamOpts { max_inflight: 1 });
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
        let records = run(&server, &input, StreamOpts::default());
        assert_eq!(records.len(), 2, "nothing after shutdown is served");
        assert_eq!(
            records[1].get("shutdown").and_then(Json::as_bool),
            Some(true)
        );
    }
}
