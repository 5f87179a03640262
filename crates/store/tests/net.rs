//! End-to-end tests for the `optimist-stored` network tier: a real
//! listener, real sockets, concurrent clients, and graceful drain.

use optimist_store::json::{self, Json};
use optimist_store::net::{StoreClient, StoreServer};
use optimist_store::{Store, StoreOptions};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("optimist-store-net-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawn a server on an ephemeral port; returns the address and the
/// serving thread (which exits once the server drains).
fn spawn(
    dir: PathBuf,
    max_bytes: u64,
) -> (
    Arc<StoreServer>,
    std::net::SocketAddr,
    std::thread::JoinHandle<()>,
) {
    let store = Store::open(dir, StoreOptions { max_bytes }).unwrap();
    let server = Arc::new(StoreServer::new(store).with_drain_timeout(Duration::from_secs(5)));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run_listener(listener).unwrap())
    };
    (server, addr, handle)
}

#[test]
fn two_clients_share_one_warm_tier() {
    let (server, addr, handle) = spawn(scratch("shared"), 0);

    let mut writer = StoreClient::connect(addr).unwrap();
    writer.ping().unwrap();
    writer.put(0xabc, 7, br#"{"result":"warm"}"#).unwrap();

    // A *different* connection — the fleet case: daemon B reads what
    // daemon A computed.
    let mut reader = StoreClient::connect(addr).unwrap();
    let (fp, payload) = reader.get(0xabc).unwrap().expect("cross-client hit");
    assert_eq!(fp, 7);
    assert_eq!(payload, br#"{"result":"warm"}"#);
    assert_eq!(reader.get(0xdef).unwrap(), None);

    let stats = reader.stats_line().unwrap();
    assert!(stats.contains(r#""get_hits":1"#), "{stats}");
    let health = reader.health_line().unwrap();
    assert!(health.contains(r#""state":"ok""#), "{health}");

    reader.shutdown().unwrap();
    handle.join().unwrap();
    assert!(server.draining());
}

#[test]
fn payloads_survive_escaping_and_a_daemon_restart() {
    let dir = scratch("restart");
    let gnarly = "line1\nline2\t\"quoted\" \\backslash\\ π\u{1F600}\u{1}".as_bytes();
    {
        let (_server, addr, handle) = spawn(dir.clone(), 0);
        let mut client = StoreClient::connect(addr).unwrap();
        client.put(0x77, 3, gnarly).unwrap();
        let (_, roundtrip) = client.get(0x77).unwrap().unwrap();
        assert_eq!(roundtrip, gnarly, "escaping must be lossless");
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
    // The record came off the wire, through the log, and back.
    let (_server, addr, handle) = spawn(dir, 0);
    let mut client = StoreClient::connect(addr).unwrap();
    let (fp, payload) = client
        .get(0x77)
        .unwrap()
        .expect("restart must keep the record");
    assert_eq!(fp, 3);
    assert_eq!(payload, gnarly);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn shutdown_drains_open_connections_cleanly() {
    let (_server, addr, handle) = spawn(scratch("drain"), 0);
    let mut idle = StoreClient::connect(addr).unwrap();
    idle.ping().unwrap();
    let mut stopper = StoreClient::connect(addr).unwrap();
    stopper.shutdown().unwrap();
    handle.join().unwrap();
    // The drained connection sees a clean EOF, not a reset-induced hang.
    match idle.ping() {
        Err(_) => {}
        Ok(()) => panic!("drained connection must not answer new requests"),
    }
}

#[test]
fn concurrent_writers_serialize_through_the_single_log() {
    // Unbounded, every put must read back. Under 2,048 bytes (about half
    // of what the 100 records take), puts compact and evict while the
    // other writers keep appending.
    for budget in [0, 2048] {
        concurrent_writers_under(budget);
    }
}

fn concurrent_writers_under(budget: u64) {
    let (_server, addr, handle) = spawn(scratch(&format!("writers-{budget}")), budget);
    let mut threads = Vec::new();
    for t in 0..4u64 {
        threads.push(std::thread::spawn(move || {
            let mut client = StoreClient::connect(addr).unwrap();
            for i in 0..25u64 {
                let key = t * 100 + i;
                client
                    .put(key, t, format!("{{\"t\":{t},\"i\":{i}}}").as_bytes())
                    .unwrap();
            }
        }));
    }
    for thread in threads {
        thread.join().unwrap();
    }
    let mut client = StoreClient::connect(addr).unwrap();
    let stats = json::parse(&client.stats_line().unwrap()).unwrap();
    let store = |name: &str| {
        stats
            .get("store")
            .and_then(|store| store.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats.store.{name} missing: {stats}"))
    };
    if budget == 0 {
        assert_eq!(store("compactions"), 0, "{stats}");
        assert_eq!(store("entries"), 100, "{stats}");
    } else {
        assert!(store("compactions") >= 1, "{stats}");
        assert!(store("file_bytes") <= budget, "{stats}");
    }
    // Every key was put once, so each one is either live or evicted.
    assert_eq!(store("entries") + store("evicted"), 100, "{stats}");

    let mut readable = 0;
    for t in 0..4u64 {
        for i in 0..25u64 {
            if let Some((fp, payload)) = client.get(t * 100 + i).unwrap() {
                assert_eq!(fp, t);
                assert_eq!(payload, format!("{{\"t\":{t},\"i\":{i}}}").as_bytes());
                readable += 1;
            }
        }
    }
    assert_eq!(readable, store("entries"), "live keys must all be readable");
    client.shutdown().unwrap();
    handle.join().unwrap();
}
