//! Shared scaffolding for the serve crate's integration tests: corpus
//! request builders, scratch directories, and the in-process daemons
//! every live-socket test runs against — [`TestDaemon`] (a serving
//! daemon behind both front-ends) and [`StoreDaemon`] (an
//! `optimist-stored` store peer).

#![allow(dead_code)] // each test binary uses a subset

use optimist_serve::{run_http, Client, Json, Server};
use optimist_store::net::StoreServer;
use optimist_store::{Store, StoreOptions};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ExitStatus};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The whole workloads corpus compiled to IR, one `(name, ir)` per program.
pub fn corpus_modules() -> Vec<(String, String)> {
    optimist_workloads::programs()
        .iter()
        .map(|p| {
            let module =
                optimist_frontend::compile(&p.source).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            (p.name.to_string(), module.to_string())
        })
        .collect()
}

/// The corpus as `alloc` request lines, ready for [`Server::handle_line`].
pub fn corpus_requests() -> Vec<String> {
    corpus_modules()
        .into_iter()
        .map(|(_, ir)| {
            let mut req = Json::obj([("req", Json::from("alloc"))]);
            req.push("ir", Json::from(ir));
            req.to_string()
        })
        .collect()
}

/// POST `body` (NDJSON request lines) to `/v1/alloc` at `addr` on a
/// fresh connection; returns the status code and the response body.
pub fn http_post_alloc(addr: SocketAddr, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("http connects");
    let head = format!(
        "POST /v1/alloc HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes()).expect("http head");
    conn.write_all(body.as_bytes()).expect("http body");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("http response");
    let (head, body) = response.split_once("\r\n\r\n").expect("a response head");
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
    (status.expect("a status code"), body.to_string())
}

/// A per-process scratch directory (removed first if it exists). The
/// caller removes it at the end of the test; a crashed test leaves it for
/// inspection.
pub fn scratch(prefix: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{prefix}-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bind `addr` and run `serve` on the listener in its own thread.
fn serve_on(
    addr: SocketAddr,
    serve: impl FnOnce(TcpListener) -> io::Result<()> + Send + 'static,
) -> (SocketAddr, JoinHandle<io::Result<()>>) {
    let listener = TcpListener::bind(addr).unwrap_or_else(|e| panic!("bind {addr}: {e}"));
    let addr = listener.local_addr().expect("bound address");
    (addr, std::thread::spawn(move || serve(listener)))
}

fn ephemeral() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

/// An in-process serving daemon: one [`Server`] behind the NDJSON
/// listener and the HTTP/1.1 front-end, each on an ephemeral port.
pub struct TestDaemon {
    server: Arc<Server>,
    addr: SocketAddr,
    http_addr: SocketAddr,
    threads: Vec<JoinHandle<io::Result<()>>>,
}

impl TestDaemon {
    /// Start both front-ends of `server`; they are accepting once this
    /// returns.
    pub fn spawn(server: Server) -> TestDaemon {
        let server = Arc::new(server);
        let ndjson = Arc::clone(&server);
        let (addr, ndjson) = serve_on(ephemeral(), move |l| ndjson.run_listener(l));
        let http = Arc::clone(&server);
        let (http_addr, http) = serve_on(ephemeral(), move |l| run_http(&http, l));
        TestDaemon {
            server,
            addr,
            http_addr,
            threads: vec![ndjson, http],
        }
    }

    /// The NDJSON listener's address, for [`Client::connect`].
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The HTTP front-end's address.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// A fresh NDJSON client connection to this daemon.
    pub fn client(&self) -> Client {
        Client::connect(self.addr).expect("client connects")
    }

    /// The daemon's server, for inspecting metrics and caches.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Join both front-ends after an out-of-band shutdown
    /// ([`Server::request_shutdown`] — the SIGTERM path) and return the
    /// final stats dump. Unlike [`TestDaemon::shutdown_with_stats`], no
    /// new connection is made: a draining daemon refuses them.
    pub fn join_with_stats(mut self) -> Json {
        for thread in self.threads.drain(..) {
            thread
                .join()
                .expect("listener thread")
                .expect("listener io");
        }
        self.server.stats_json()
    }

    /// Send a `shutdown` request, join both front-ends, and return the
    /// final stats dump.
    pub fn shutdown_with_stats(self) -> Json {
        self.client().shutdown().expect("shutdown acknowledged");
        self.join_with_stats()
    }
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        self.server.request_shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// An in-process `optimist-stored` store peer.
pub struct StoreDaemon {
    server: Arc<StoreServer>,
    addr: SocketAddr,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl StoreDaemon {
    /// Serve a store opened at `dir` on an ephemeral port.
    pub fn spawn(dir: impl AsRef<Path>) -> StoreDaemon {
        StoreDaemon::spawn_on(dir, ephemeral())
    }

    /// Serve a store opened at `dir` on `addr` — reviving a stopped peer
    /// on its old port.
    pub fn spawn_on(dir: impl AsRef<Path>, addr: SocketAddr) -> StoreDaemon {
        let store = Store::open(dir, StoreOptions::default()).expect("store opens");
        let server = Arc::new(StoreServer::new(store));
        let listener = Arc::clone(&server);
        let (addr, thread) = serve_on(addr, move |l| listener.run_listener(l));
        StoreDaemon {
            server,
            addr,
            thread: Some(thread),
        }
    }

    /// The peer's address, as `--store-peers` lists it.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store this peer serves.
    pub fn store(&self) -> &Store {
        self.server.store()
    }

    /// Drain and stop the peer, keeping its port free for a successor.
    pub fn stop(mut self) -> SocketAddr {
        self.server.request_shutdown();
        if let Some(thread) = self.thread.take() {
            thread
                .join()
                .expect("store daemon thread")
                .expect("store daemon io");
        }
        self.addr
    }
}

impl Drop for StoreDaemon {
    fn drop(&mut self) {
        self.server.request_shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A daemon process, killed on drop so a failing test leaves none behind.
pub struct Process(pub Child);

impl Process {
    /// The exit status if the process exits within `limit`; past it the
    /// process is killed and the answer is `None`.
    pub fn exit_within(&mut self, limit: Duration) -> Option<ExitStatus> {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if let Some(status) = self.0.try_wait().expect("child status") {
                return Some(status);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.0.kill();
        None
    }
}

impl Drop for Process {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}
