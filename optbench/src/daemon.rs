//! The real `optimist-serve` and `optimist-stored` processes: spawn,
//! address discovery, peak memory, stats and shutdown.

use crate::wire::Ndjson;
use optimist::serve::Json;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The store peers' addresses. They never change across runs or
/// commits: the ring hashes peer labels, so ephemeral ports would move
/// key placement from run to run.
pub const STORE_PEERS: [&str; 3] = ["127.0.0.1:47301", "127.0.0.1:47302", "127.0.0.1:47303"];

/// The peers the traced run's decomposed path writes to on `cold_fleet`,
/// apart from the daemon's so neither warms the other.
pub const TRACE_PEERS: [&str; 3] = ["127.0.0.1:47311", "127.0.0.1:47312", "127.0.0.1:47313"];

/// Replicas per key, as `--replicas` states it.
pub const REPLICAS: usize = 2;

const STARTUP: Duration = Duration::from_secs(30);
const EXIT: Duration = Duration::from_secs(20);

/// One daemon process, its stderr drained on a thread.
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<Vec<String>>>,
    /// NDJSON address (the store protocol for `optimist-stored`).
    pub addr: String,
    /// HTTP/1.1 address, when the daemon serves one.
    pub http: Option<String>,
}

impl Daemon {
    /// Start `optimist-serve` on ephemeral ports, over `peers` when given.
    pub fn serve(bin_dir: &Path, peers: &[&str], http: bool) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin_dir.join("optimist-serve"));
        cmd.args(["--listen", "127.0.0.1:0"]);
        if http {
            cmd.args(["--http", "127.0.0.1:0"]);
        }
        if !peers.is_empty() {
            cmd.arg("--store-peers").arg(peers.join(","));
            cmd.arg("--replicas").arg(REPLICAS.to_string());
        }
        Daemon::start(cmd, http)
    }

    /// Start `optimist-stored` on `addr` over the log in `dir`. A taken
    /// port is an error, never a silent move to another one.
    pub fn stored(bin_dir: &Path, dir: &Path, addr: &str) -> Result<Daemon, String> {
        TcpListener::bind(addr)
            .map_err(|e| format!("store peer port {addr} is taken ({e}); free it and rerun"))?;
        let mut cmd = Command::new(bin_dir.join("optimist-stored"));
        cmd.arg("--dir").arg(dir).args(["--listen", addr]);
        let d = Daemon::start(cmd, false)?;
        if d.addr != addr {
            return Err(format!("store peer announced {} instead of {addr}", d.addr));
        }
        Ok(d)
    }

    fn start(mut cmd: Command, http: bool) -> Result<Daemon, String> {
        let program = format!("{:?}", cmd.get_program());
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {program}: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || read_log(stderr, tx));
        let mut daemon = Daemon {
            child,
            drain: Some(drain),
            addr: String::new(),
            http: None,
        };
        let deadline = Instant::now() + STARTUP;
        while daemon.addr.is_empty() || (http && daemon.http.is_none()) {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some((_, a)) = line.split_once("http listening on ") {
                        daemon.http = Some(a.trim().to_string());
                    } else if let Some((_, a)) = line.split_once("listening on ") {
                        daemon.addr = a.trim().to_string();
                    }
                }
                Err(_) => {
                    let log = daemon.stop_hard();
                    return Err(format!("{program} did not come up:\n{}", log.join("\n")));
                }
            }
        }
        Ok(daemon)
    }

    /// Peak resident memory so far (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in daemon status".to_string())
    }

    /// The serving daemon's `stats` object.
    pub fn stats(&self) -> Result<Json, String> {
        let mut conn = Ndjson::connect(&self.addr)?;
        let (_, resp) = conn.call(r#"{"req":"stats"}"#)?;
        let v = optimist::serve::json::parse(&resp).map_err(|e| format!("bad stats: {e}"))?;
        v.get("stats")
            .cloned()
            .ok_or_else(|| format!("stats answer without stats: {resp:.200}"))
    }

    /// Ask the daemon to drain and exit, and wait until it has.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Ndjson::connect(&self.addr).and_then(|mut c| {
            c.send(r#"{"req":"shutdown"}"#)?;
            // The answer may be cut by the exit; only the exit matters.
            let _ = c.recv();
            Ok(())
        });
        let deadline = Instant::now() + EXIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let log = self.join_log();
                    return match (asked, status.success()) {
                        (Ok(()), true) => Ok(()),
                        (asked, _) => Err(format!(
                            "daemon {} exited with {status} ({asked:?}):\n{}",
                            self.addr,
                            log.join("\n")
                        )),
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let log = self.stop_hard();
                    return Err(format!(
                        "daemon {} did not exit after shutdown:\n{}",
                        self.addr,
                        log.join("\n")
                    ));
                }
            }
        }
    }

    fn stop_hard(&mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_log()
    }

    fn join_log(&mut self) -> Vec<String> {
        self.drain
            .take()
            .map(|t| t.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.stop_hard();
        }
    }
}

/// Forward log lines until the address is known, keep the last few for
/// error reports, and drain the pipe so the daemon never blocks on it.
fn read_log(stderr: ChildStderr, tx: mpsc::Sender<String>) -> Vec<String> {
    let mut tail = Vec::new();
    for line in BufReader::new(stderr).lines() {
        let Ok(line) = line else { break };
        let _ = tx.send(line.clone());
        if tail.len() == 20 {
            tail.remove(0);
        }
        tail.push(line);
    }
    tail
}

/// Fresh, empty store peers on fixed addresses, their logs under `root`.
pub struct Peers {
    daemons: Vec<Daemon>,
    dirs: Vec<PathBuf>,
}

impl Peers {
    pub fn start(bin_dir: &Path, root: &Path, addrs: &[&str]) -> Result<Peers, String> {
        let mut peers = Peers {
            daemons: Vec::new(),
            dirs: Vec::new(),
        };
        for addr in addrs {
            let dir = root.join(format!("peer-{}", addr.replace([':', '.'], "_")));
            let _ = std::fs::remove_dir_all(&dir);
            peers.dirs.push(dir.clone());
            peers.daemons.push(Daemon::stored(bin_dir, &dir, addr)?);
        }
        Ok(peers)
    }

    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        self.daemons.iter().map(Daemon::peak_rss_kib).sum()
    }

    pub fn shutdown(mut self) -> Result<(), String> {
        let mut result = Ok(());
        for d in self.daemons.drain(..) {
            result = result.and(d.shutdown());
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        result
    }
}
