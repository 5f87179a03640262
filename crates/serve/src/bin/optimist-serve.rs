//! The `optimist-serve` daemon binary.
//!
//! ```text
//! optimist-serve --listen 127.0.0.1:7878      # TCP daemon
//! optimist-serve                              # serve stdin → stdout
//! optimist-serve --oneshot < request.json     # answer one request, exit
//! optimist-serve --store CACHE_DIR            # results survive restarts
//! ```
//!
//! On shutdown — a `shutdown` request, SIGTERM/SIGINT (the daemon drains
//! in-flight work under `--drain-ms`, flushes the store, and exits 0), or
//! EOF in stdio mode — the final metrics dump is written to stderr as one
//! JSON line.

use optimist_serve::log::{self, Level};
use optimist_serve::{log_error, log_info, log_warn, Server};
use optimist_store::daemon::on_termination;
use optimist_store::{Store, StoreOptions};
use std::io;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: optimist-serve [options]

Serve register-allocation requests as newline-delimited JSON.

options:
  --listen ADDR         accept TCP connections on ADDR (e.g. 127.0.0.1:7878);
                        without this flag, requests are read from stdin
  --http ADDR           also serve HTTP/1.1 on ADDR: POST /v1/alloc (NDJSON
                        body), GET /v1/health, GET /v1/stats; may run beside
                        --listen or alone
  --oneshot             stdio mode: answer the first request and exit
  --cache-capacity N    cached function results across all shards [default 4096]
  --shards N            cache lock shards [default 16]
  --store PATH          persist results in a content-addressed store at PATH;
                        a restarted daemon pointed at the same PATH serves
                        previous results (and remembered failures) from disk
  --store-peers ADDRS   comma-separated optimist-stored daemon addresses to use
                        as the persistent tier instead of --store; two or more
                        are sharded by consistent hash
  --replicas N          store peers holding each key when --store-peers shards
                        (clamped to the peer count); N>=2 keeps every key warm
                        through any single store-daemon death [default 2]
  --store-max-bytes N   compact the store log when it exceeds N bytes
                        [default 67108864; 0 = never]
  --max-inflight N      batch items one connection runs at once; a connection
                        answers its requests one at a time [default 8]
  --max-load N          daemon-wide work-unit cap; past it requests are shed
                        with {\"err\":\"overloaded\"} [default 1024; 0 = unbounded]
  --deadline-ms N       default compute budget per work unit; a request's own
                        \"deadline_ms\" overrides it [default: unbounded]
  --drain-ms N          how long a shutdown waits for in-flight connections
                        before force-closing them [default 5000]
  --idle-timeout-ms N   reap a connection whose client sends nothing for N ms
                        [default 300000; 0 = never]
  --write-timeout-ms N  reap a connection whose client stops reading responses
                        for N ms [default 60000; 0 = never]
  --pool-threads N      allocation worker threads shared by all connections
                        [default: the machine]
  --log-level LEVEL     stderr verbosity: error, warn, info, debug [default info]
  --quiet               suppress the final metrics dump on stderr
  --help                show this help
";

struct Options {
    listen: Option<String>,
    http: Option<String>,
    oneshot: bool,
    cache_capacity: usize,
    shards: usize,
    store: Option<std::path::PathBuf>,
    store_peers: Vec<String>,
    replicas: usize,
    store_max_bytes: u64,
    max_inflight: usize,
    max_load: usize,
    deadline_ms: Option<u64>,
    drain_ms: u64,
    idle_timeout_ms: u64,
    write_timeout_ms: u64,
    pool_threads: Option<std::num::NonZeroUsize>,
    log_level: Level,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        listen: None,
        http: None,
        oneshot: false,
        cache_capacity: 4096,
        shards: 16,
        store: None,
        store_peers: Vec::new(),
        replicas: optimist_serve::DEFAULT_REPLICAS,
        store_max_bytes: 64 << 20,
        max_inflight: optimist_serve::DEFAULT_MAX_INFLIGHT,
        max_load: 1024,
        deadline_ms: None,
        drain_ms: 5000,
        idle_timeout_ms: 300_000,
        write_timeout_ms: 60_000,
        pool_threads: None,
        log_level: Level::Info,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--listen" => opts.listen = Some(value("--listen")?),
            "--http" => opts.http = Some(value("--http")?),
            "--oneshot" => opts.oneshot = true,
            "--cache-capacity" => {
                opts.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|_| "--cache-capacity needs an integer".to_string())?
            }
            "--shards" => {
                opts.shards = value("--shards")?
                    .parse()
                    .map_err(|_| "--shards needs an integer".to_string())?
            }
            "--store" => opts.store = Some(value("--store")?.into()),
            "--store-peers" => {
                opts.store_peers = value("--store-peers")?
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect();
                if opts.store_peers.is_empty() {
                    return Err("--store-peers needs at least one address".to_string());
                }
                // A repeated address would count one daemon as several
                // replicas of every key it holds.
                let peers = &opts.store_peers;
                if let Some(dup) = (1..peers.len()).find(|&i| peers[..i].contains(&peers[i])) {
                    return Err(format!("--store-peers lists {} twice", peers[dup]));
                }
            }
            "--replicas" => {
                opts.replicas = value("--replicas")?
                    .parse()
                    .map_err(|_| "--replicas needs an integer".to_string())?;
                if opts.replicas == 0 {
                    return Err("--replicas needs at least 1".to_string());
                }
            }
            "--store-max-bytes" => {
                opts.store_max_bytes = value("--store-max-bytes")?
                    .parse()
                    .map_err(|_| "--store-max-bytes needs an integer".to_string())?
            }
            "--max-inflight" => {
                opts.max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|_| "--max-inflight needs an integer".to_string())?
            }
            "--max-load" => {
                opts.max_load = value("--max-load")?
                    .parse()
                    .map_err(|_| "--max-load needs an integer".to_string())?
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|_| "--deadline-ms needs an integer".to_string())?,
                )
            }
            "--drain-ms" => {
                opts.drain_ms = value("--drain-ms")?
                    .parse()
                    .map_err(|_| "--drain-ms needs an integer".to_string())?
            }
            "--idle-timeout-ms" => {
                opts.idle_timeout_ms = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|_| "--idle-timeout-ms needs an integer".to_string())?
            }
            "--write-timeout-ms" => {
                opts.write_timeout_ms = value("--write-timeout-ms")?
                    .parse()
                    .map_err(|_| "--write-timeout-ms needs an integer".to_string())?
            }
            "--pool-threads" => {
                opts.pool_threads = Some(
                    value("--pool-threads")?
                        .parse()
                        .map_err(|_| "--pool-threads needs a positive integer".to_string())?,
                )
            }
            "--log-level" => {
                let spec = value("--log-level")?;
                opts.log_level = Level::parse(&spec)
                    .ok_or_else(|| format!("--log-level: unknown level {spec:?}"))?
            }
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.listen.is_some() && opts.oneshot {
        return Err("--oneshot is a stdio mode; drop --listen".to_string());
    }
    if opts.http.is_some() && opts.oneshot {
        return Err("--oneshot is a stdio mode; drop --http".to_string());
    }
    if opts.store.is_some() && !opts.store_peers.is_empty() {
        return Err("--store and --store-peers are mutually exclusive".to_string());
    }
    Ok(opts)
}

/// Bind `addr`, the value of `flag`, if the flag was given.
fn bind(flag: &str, addr: Option<&str>) -> Result<Option<TcpListener>, String> {
    addr.map(|addr| TcpListener::bind(addr).map_err(|e| format!("cannot bind {flag} {addr}: {e}")))
        .transpose()
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("optimist-serve: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    log::set_level(opts.log_level);

    let to_timeout = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let mut server = Server::new(opts.cache_capacity, opts.shards)
        .with_max_inflight(opts.max_inflight)
        .with_max_load(opts.max_load)
        .with_deadline(opts.deadline_ms.map(Duration::from_millis))
        .with_drain_timeout(Duration::from_millis(opts.drain_ms))
        .with_socket_timeouts(
            to_timeout(opts.idle_timeout_ms),
            to_timeout(opts.write_timeout_ms),
        );
    if let Some(threads) = opts.pool_threads {
        server = server.with_pool_threads(threads);
    }
    if let Some(dir) = &opts.store {
        let options = StoreOptions {
            max_bytes: opts.store_max_bytes,
        };
        match Store::open(dir, options) {
            Ok(store) => server = server.with_store(store),
            Err(e) => {
                eprintln!("optimist-serve: cannot open store {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    } else if !opts.store_peers.is_empty() {
        let replicas = opts.replicas.min(opts.store_peers.len());
        log_info!(
            "store tier: {} remote peer(s), {} replica(s) per key: {}",
            opts.store_peers.len(),
            replicas,
            opts.store_peers.join(", ")
        );
        server = server
            .with_remote_store(&opts.store_peers)
            .with_replicas(opts.replicas);
    }
    let server = Arc::new(server);

    // Turn SIGTERM/SIGINT into a graceful drain: the watcher raises the
    // stop flag and each listener finishes its drain phase on its own.
    {
        let server = Arc::clone(&server);
        on_termination(move || {
            log_info!("received termination signal; draining");
            server.request_shutdown();
        });
    }

    // Bind every requested listener before serving any, so a taken
    // address ends the process now rather than leaving one front-end
    // silently missing.
    let bound = (
        bind("--listen", opts.listen.as_deref()),
        bind("--http", opts.http.as_deref()),
    );
    let (ndjson, http) = match bound {
        (Ok(ndjson), Ok(http)) => (ndjson, http),
        (Err(e), _) | (_, Err(e)) => {
            log_error!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts scrape these lines for the ports.
    for (listener, front) in [(&ndjson, ""), (&http, "http ")] {
        if let Some(addr) = listener.as_ref().and_then(|l| l.local_addr().ok()) {
            log_info!("{front}listening on {addr}");
        }
    }

    // The HTTP front-end rides on its own thread beside the NDJSON
    // listener; given alone, it runs in the foreground. Both watch the
    // same stop flag and share the drain registry.
    let result = match (ndjson, http) {
        (Some(ndjson), Some(http)) => std::thread::scope(|scope| {
            let http = scope.spawn(|| optimist_serve::run_http(&server, http));
            let ndjson = server.run_listener(ndjson);
            ndjson.and(http.join().expect("the http accept loop does not panic"))
        }),
        (Some(ndjson), None) => server.run_listener(ndjson),
        (None, Some(http)) => optimist_serve::run_http(&server, http),
        (None, None) => server.serve_lines(io::stdin().lock(), io::stdout(), opts.oneshot),
    };

    // Flush the persistent tier before reporting: a drained daemon must
    // leave nothing for crash recovery to reconstruct.
    if let Some(store) = server.store() {
        if let Err(e) = store.sync() {
            log_warn!("store flush on shutdown failed: {e}");
        }
    }
    if !opts.quiet {
        eprintln!("{}", server.stats_json());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("optimist-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
