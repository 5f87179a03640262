//! `optimist-stored` — the fleet's shared store daemon.
//!
//! Serves one `optimist-store` log directory over NDJSON/TCP so many
//! `optimist-serve` daemons can share a single warm result tier. See
//! `optimist_store::net` for the protocol.

use optimist_store::daemon::on_termination;
use optimist_store::log::{self, Level};
use optimist_store::net::StoreServer;
use optimist_store::{log_error, log_info, log_warn, Store, StoreOptions};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
optimist-stored — serve an optimist-store log over NDJSON/TCP

USAGE:
    optimist-stored --dir PATH [OPTIONS]

OPTIONS:
    --dir PATH             Store directory (created if missing; required)
    --listen ADDR          Bind address (default 127.0.0.1:0; the bound
                           address is announced on stderr)
    --max-bytes N          Log size budget in bytes: the put that crosses
                           it compacts the log (default 64 MiB; 0 =
                           unbounded)
    --idle-timeout-ms N    Per-connection read timeout (default none)
    --write-timeout-ms N   Per-connection write timeout (default none)
    --drain-ms N           Drain budget after SIGTERM/shutdown (default 5000)
    --log-level LEVEL      error|warn|info|debug (default info)
    --help                 Show this help
";

struct Args {
    dir: Option<String>,
    listen: String,
    max_bytes: u64,
    idle_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    drain: Duration,
    level: Level,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        dir: None,
        listen: "127.0.0.1:0".to_string(),
        max_bytes: StoreOptions::default().max_bytes,
        idle_timeout: None,
        write_timeout: None,
        drain: Duration::from_millis(5000),
        level: Level::Info,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--dir" => parsed.dir = Some(value("--dir")?),
            "--listen" => parsed.listen = value("--listen")?,
            "--max-bytes" => {
                parsed.max_bytes = value("--max-bytes")?
                    .parse()
                    .map_err(|_| "--max-bytes needs an integer".to_string())?;
            }
            "--idle-timeout-ms" => {
                let ms: u64 = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|_| "--idle-timeout-ms needs an integer".to_string())?;
                parsed.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--write-timeout-ms" => {
                let ms: u64 = value("--write-timeout-ms")?
                    .parse()
                    .map_err(|_| "--write-timeout-ms needs an integer".to_string())?;
                parsed.write_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--drain-ms" => {
                let ms: u64 = value("--drain-ms")?
                    .parse()
                    .map_err(|_| "--drain-ms needs an integer".to_string())?;
                parsed.drain = Duration::from_millis(ms);
            }
            "--log-level" => {
                let name = value("--log-level")?;
                parsed.level =
                    Level::parse(&name).ok_or_else(|| format!("unknown log level `{name}`"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    if parsed.dir.is_none() {
        return Err(format!("--dir is required\n\n{USAGE}"));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    log::set_level(args.level);

    let dir = args.dir.expect("checked by parse_args");
    let store = match Store::open(
        &dir,
        StoreOptions {
            max_bytes: args.max_bytes,
        },
    ) {
        Ok(store) => store,
        Err(e) => {
            log_error!("cannot open store at {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let snap = store.snapshot();
    log_info!(
        "store {dir}: {} entries, {} bytes recovered",
        snap.entries,
        snap.file_bytes
    );

    let server = Arc::new(
        StoreServer::new(store)
            .with_socket_timeouts(args.idle_timeout, args.write_timeout)
            .with_drain_timeout(args.drain),
    );

    {
        let server = Arc::clone(&server);
        on_termination(move || {
            log_info!("received termination signal; draining");
            server.request_shutdown();
        });
    }

    let listener = match TcpListener::bind(&args.listen) {
        Ok(listener) => listener,
        Err(e) => {
            log_error!("cannot bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = server.run_listener(listener) {
        log_error!("serving failed: {e}");
        return ExitCode::FAILURE;
    }

    // Flush appends to stable storage before exit.
    if let Err(e) = server.store().sync() {
        log_warn!("final sync failed: {e}");
    }
    ExitCode::SUCCESS
}
