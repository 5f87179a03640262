//! The accept/drain skeleton both daemons share.
//!
//! `optimist-serve` (NDJSON and HTTP front-ends) and `optimist-stored`
//! run their listeners through one loop, [`Daemon::serve`]:
//!
//! 1. **accept** on a non-blocking listener, polling the stop flag; a
//!    failed accept (out of file descriptors, say) is logged and retried,
//!    never fatal, so only the stop flag ends the loop;
//! 2. **register** a handle to each connection in a registry shared by
//!    every listener of the daemon;
//! 3. **spawn** one thread per connection, with the daemon's socket
//!    timeouts applied, to run the protocol's connection handler;
//! 4. once shutdown is requested, **half-close** every registered
//!    connection: readers see EOF, responses already in flight still go
//!    out on the write half;
//! 5. wait up to the **drain budget** for the connection threads;
//! 6. **force-close** the stragglers and join them.
//!
//! What a connection does with a read timeout stays with each handler:
//! the serving daemon reaps idle readers, the store daemon keeps them
//! open and only re-checks [`Daemon::draining`].
//!
//! [`on_termination`] is the matching SIGTERM/SIGINT watcher: a
//! flag-setting C handler plus a thread that turns the flag into a
//! caller-supplied shutdown request, and [`read_line_capped`] the line
//! reader every handler frames its requests with.

use crate::{log_debug, log_info, log_warn};
use std::collections::HashMap;
use std::io::{self, BufRead, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// How long a drain waits for live connections unless
/// [`Daemon::with_drain_timeout`] says otherwise.
pub const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest request line a daemon buffers (and the HTTP front-end's body
/// cap): far beyond any module a client sends, yet a line that never ends
/// cannot grow a connection's memory without bound.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Read one line into `buf` (cleared first) without its `\n` or `\r\n`
/// terminator, buffering at most `max` bytes of it. Returns the bytes
/// consumed, terminator included; 0 means end of input, and a last line
/// with no newline comes back as it is.
///
/// # Errors
///
/// A line longer than `max` bytes is an [`io::ErrorKind::InvalidData`]
/// error ("line too long") that leaves the rest of the line unread, so
/// the caller answers and closes the connection. Read errors pass
/// through.
pub fn read_line_capped(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> io::Result<usize> {
    buf.clear();
    let limit = u64::try_from(max).map_or(u64::MAX, |max| max.saturating_add(1));
    let n = reader.by_ref().take(limit).read_until(b'\n', buf)?;
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if n > max {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
    }
    Ok(n)
}

/// A daemon's stop flag, connection registry, socket timeouts and drain
/// budget. All methods take `&self`; one value is shared by every
/// listener and connection thread of the daemon.
#[derive(Debug)]
pub struct Daemon {
    stop: AtomicBool,
    /// Handles to the live connections, keyed by connection id — what a
    /// drain half-closes and, past its budget, force-closes.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    drain_timeout: Duration,
}

impl Default for Daemon {
    fn default() -> Self {
        Daemon {
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            read_timeout: None,
            write_timeout: None,
            drain_timeout: DEFAULT_DRAIN_TIMEOUT,
        }
    }
}

impl Daemon {
    /// Read/write timeouts for accepted sockets (`None` = block forever).
    pub fn with_socket_timeouts(mut self, read: Option<Duration>, write: Option<Duration>) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// How long a drain waits for live connections before force-closing
    /// them.
    pub fn with_drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Ask every listener to stop accepting and drain.
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested.
    pub fn draining(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Accept connections on `listener` and run `handle` on each, one
    /// thread per connection, until shutdown is requested; then drain
    /// (see the module docs). `name` labels the listener in log lines.
    /// Only the stop flag ends the loop: a failed accept (out of file
    /// descriptors, say) is logged once per run of failures and retried
    /// after the same 5 ms back-off as an idle poll.
    ///
    /// # Errors
    ///
    /// Fails only if `listener` cannot be made non-blocking;
    /// per-connection I/O errors are the handler's business.
    pub fn serve<F>(&self, listener: TcpListener, name: &str, handle: F) -> io::Result<()>
    where
        F: Fn(TcpStream) + Sync,
    {
        // Poll so the loop notices a stop flag raised by a `shutdown`
        // request on another connection or by the signal watcher.
        listener.set_nonblocking(true)?;
        let handle = &handle;
        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            let mut failing = false;
            while !self.draining() {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        failing = false;
                        let id = self.register(&stream);
                        log_debug!("{name}: conn {id} accepted from {peer}");
                        workers.push(scope.spawn(move || {
                            stream.set_nonblocking(false).ok();
                            // Responses are small back-to-back writes with
                            // no interleaved client data; Nagle + delayed
                            // ACK would stall each one for ~40ms.
                            stream.set_nodelay(true).ok();
                            stream.set_read_timeout(self.read_timeout).ok();
                            stream.set_write_timeout(self.write_timeout).ok();
                            handle(stream);
                            self.conns.lock().expect("conns lock").remove(&id);
                            log_debug!("{name}: conn {id} closed");
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        if e.kind() != io::ErrorKind::WouldBlock && !failing {
                            failing = true;
                            log_warn!("{name}: accept failed: {e}; retrying");
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                reap(&mut workers);
            }
            self.drain(name, workers);
            Ok(())
        })
    }

    fn register(&self, stream: &TcpStream) -> u64 {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(handle) = stream.try_clone() {
            self.conns.lock().expect("conns lock").insert(id, handle);
        }
        id
    }

    fn shutdown_all(&self, how: Shutdown) {
        for conn in self.conns.lock().expect("conns lock").values() {
            // shutdown(2) on an already-shut socket is a no-op, so
            // overlapping drains of two listeners are harmless.
            let _ = conn.shutdown(how);
        }
    }

    fn drain(&self, name: &str, mut workers: Vec<ScopedJoinHandle<'_, ()>>) {
        if !workers.is_empty() {
            log_info!(
                "{name} drain: waiting on {} live connection(s)",
                workers.len()
            );
        }
        self.shutdown_all(Shutdown::Read);
        let deadline = Instant::now() + self.drain_timeout;
        while !workers.is_empty() {
            if Instant::now() >= deadline {
                // Past the budget: sever both halves. The stragglers die
                // on their next socket operation.
                log_warn!(
                    "{name} drain: {} connection(s) still live after {:?}; force-closing",
                    workers.len(),
                    self.drain_timeout
                );
                self.shutdown_all(Shutdown::Both);
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
            reap(&mut workers);
        }
        for worker in workers {
            let _ = worker.join();
        }
        log_info!("{name} drain: complete; all connections closed");
    }
}

/// Join the finished connection threads. Joining (rather than dropping)
/// keeps a panicked handler from re-raising when the scope closes.
fn reap(workers: &mut Vec<ScopedJoinHandle<'_, ()>>) {
    let mut i = 0;
    while i < workers.len() {
        if workers[i].is_finished() {
            let _ = workers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Run `on_signal` once, on a watcher thread, when the process receives
/// SIGTERM or SIGINT. The daemons pass a closure that logs and calls
/// their `request_shutdown`, turning the signal into a graceful drain.
pub fn on_termination(on_signal: impl FnOnce() + Send + 'static) {
    signal::install();
    std::thread::spawn(move || {
        while !signal::received() {
            std::thread::sleep(Duration::from_millis(20));
        }
        on_signal();
    });
}

/// Signal handling without libc: a minimal handler installed through the
/// C `signal(2)` entry point (present in every Unix C runtime Rust links
/// against) that only sets a flag — the only thing an async-signal-safe
/// handler may do.
#[cfg(unix)]
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal(2)` is the C runtime's own entry point with
        // this exact signature, and `on_term` is an `extern "C"`
        // handler that only stores to an atomic — async-signal-safe.
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
            signal(SIGINT, on_term as *const () as usize);
        }
    }

    pub fn received() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signal {
    pub fn install() {}
    pub fn received() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    fn bind() -> (std::net::SocketAddr, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        (listener.local_addr().unwrap(), listener)
    }

    fn echo(stream: TcpStream) {
        let mut writer = stream.try_clone().unwrap();
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { return };
            if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                return;
            }
        }
    }

    #[test]
    fn capped_lines_strip_terminators_and_refuse_overruns() {
        let mut reader = BufReader::with_capacity(3, "ab\ncd\r\n\nwxyz\nlast".as_bytes());
        let mut buf = Vec::new();
        let mut next = |max| read_line_capped(&mut reader, &mut buf, max).map(|n| (n, buf.clone()));
        assert_eq!(next(4).unwrap(), (3, b"ab".to_vec()));
        assert_eq!(next(4).unwrap(), (4, b"cd".to_vec()));
        assert_eq!(
            next(0).unwrap(),
            (1, Vec::new()),
            "an empty line fits any cap"
        );
        assert_eq!(
            next(4).unwrap(),
            (5, b"wxyz".to_vec()),
            "the cap excludes the newline"
        );
        assert_eq!(
            next(4).unwrap(),
            (4, b"last".to_vec()),
            "no newline at the end"
        );
        assert_eq!(next(4).unwrap(), (0, Vec::new()), "end of input");

        for (input, max) in [("abcde\n", 4), ("abcde", 4), ("ab\r\n", 2), ("x", 0)] {
            let err = read_line_capped(&mut input.as_bytes(), &mut Vec::new(), max).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{input:?} under {max}"
            );
            assert_eq!(err.to_string(), "line too long");
        }
        // An overrun leaves the rest of the line unread: at most `max + 1`
        // bytes were taken.
        let mut rest = "abcdefgh\n".as_bytes();
        assert!(read_line_capped(&mut rest, &mut Vec::new(), 2).is_err());
        assert_eq!(rest, b"defgh\n");
    }

    #[test]
    fn shutdown_half_closes_idle_connections_and_returns() {
        let daemon = Daemon::default();
        let (addr, listener) = bind();
        std::thread::scope(|s| {
            let served = s.spawn(|| daemon.serve(listener, "test", echo));
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(b"hello\n").unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, "hello\n");
            daemon.request_shutdown();
            served.join().unwrap().unwrap();
            // The drain closed the server side: a clean EOF, not a hang.
            line.clear();
            assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        });
        assert!(daemon.conns.lock().unwrap().is_empty());
    }

    #[test]
    fn a_handler_that_ignores_the_half_close_is_severed_after_the_budget() {
        let budget = Duration::from_millis(50);
        let daemon = Daemon::default().with_drain_timeout(budget);
        let (addr, listener) = bind();
        std::thread::scope(|s| {
            // Writes keep succeeding after the read half closes, so only
            // the force-close ends this handler.
            let served = s.spawn(|| {
                daemon.serve(listener, "test", |mut stream| {
                    while stream.write_all(b"tick\n").is_ok() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                })
            });
            // The first tick proves the handler runs before the drain.
            let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());
            conn.read_line(&mut String::new()).unwrap();
            daemon.request_shutdown();
            let started = Instant::now();
            served.join().unwrap().unwrap();
            let took = started.elapsed();
            assert!(took >= budget && took < Duration::from_secs(5), "{took:?}");
        });
    }
}
