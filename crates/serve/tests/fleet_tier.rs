//! Fleet store-tier acceptance: serving daemons sharing warmth through
//! remote `optimist-stored` daemons — single peer and consistent-hash
//! sharded — including one peer dying and recovering under traffic.

mod serve_test_util;

use optimist_serve::{Json, Server};
use optimist_store::{Store, StoreOptions};
use serve_test_util::{corpus_requests, Process, StoreDaemon};
use std::io::Read;
use std::path::PathBuf;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    serve_test_util::scratch("optimist-fleet-tier", name)
}

fn assert_all_ok(server: &Server, requests: &[String], all_cached: bool) {
    for line in requests {
        let (resp, _) = server.handle_line(line);
        let v = optimist_serve::json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        if all_cached {
            for f in v.get("functions").and_then(Json::as_arr).unwrap() {
                assert_eq!(
                    f.get("cached").and_then(Json::as_bool),
                    Some(true),
                    "warm replay recomputed a function: {f}"
                );
            }
        }
    }
}

#[test]
fn two_daemons_share_warmth_through_one_store_peer() {
    let daemon = StoreDaemon::spawn(scratch("single"));
    let peer = daemon.addr().to_string();
    let requests = corpus_requests();

    // Daemon A computes everything and writes through over the network.
    let a = Server::new(4096, 16).with_remote_store(&[peer.as_str()]);
    assert_all_ok(&a, &requests, false);
    let computed = a.metrics().functions.get();
    assert!(computed > 0);
    assert!(a.store().is_none(), "remote tiers embed no local store");

    // Daemon B has a cold memory tier; its only warmth is the shared
    // store daemon. The whole corpus must come back cached.
    let b = Server::new(4096, 16).with_remote_store(&[peer.as_str()]);
    assert_all_ok(&b, &requests, true);
    assert_eq!(
        b.metrics().store_hits.get(),
        b.metrics().cache_hits.get(),
        "every hit on the cold daemon came from the store peer"
    );
    assert_eq!(
        b.metrics().phase_build.count(),
        0,
        "warm fleet replay must not enter Build–Simplify–Color"
    );

    // Topology shows up in health.
    let health = b.health_json().to_string();
    assert!(health.contains(r#""mode":"remote""#), "{health}");
    assert!(health.contains(&format!(r#""addr":"{peer}""#)), "{health}");

    // And per-peer counters in stats.
    let stats = b.stats_json().to_string();
    assert!(stats.contains(r#""mode":"remote""#), "{stats}");
    assert!(stats.contains(r#""degraded":false"#), "{stats}");
}

/// Poll `server`'s health until it reports `ok` (the recovery probe runs
/// inside the health request).
fn wait_until_ok(server: &Server) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(60));
        let health = server.health_json().to_string();
        if health.contains(r#""state":"ok""#) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "peer never recovered: {health}"
        );
    }
}

#[test]
fn replicated_tier_stays_warm_through_a_peer_death_and_read_repairs_an_empty_revival() {
    let d0 = StoreDaemon::spawn(scratch("shard0"));
    let d1 = StoreDaemon::spawn(scratch("shard1"));
    let peers = [d0.addr().to_string(), d1.addr().to_string()];
    let requests = corpus_requests();
    let outage = distinct_requests(12);

    let a = Server::new(4096, 16)
        .with_remote_store(&peers)
        .with_store_probe_interval(Duration::from_millis(50));
    assert_all_ok(&a, &requests, false);

    // With the default replication factor of 2, every put fanned out to
    // both peers: each store holds the whole corpus.
    let len0 = d0.store().len();
    let len1 = d1.store().len();
    assert!(len0 > 0, "stores must hold the corpus");
    assert_eq!(len0, len1, "replicas=2 over 2 peers fans every key out");

    let health = a.health_json().to_string();
    assert!(health.contains(r#""mode":"sharded""#), "{health}");
    assert!(health.contains(r#""ring_points""#), "{health}");
    assert!(health.contains(r#""replicas":2"#), "{health}");

    // Kill peer 1. Nothing goes cold: keys it owned fail over to their
    // replica on peer 0, and its tripwire trips after a few errors.
    let dead_addr = d1.stop();
    let b = Server::new(4096, 16)
        .with_remote_store(&peers)
        .with_store_probe_interval(Duration::from_millis(50));
    assert_all_ok(&b, &requests, true);
    assert!(
        b.metrics().store_failovers.get() > 0,
        "the dead peer's share must have been served by its replica"
    );
    assert_eq!(
        b.metrics().phase_build.count(),
        0,
        "a replicated fleet must not recompute for one dead peer"
    );
    assert!(b.store_degraded(), "the dead peer must trip its tripwire");
    let health = b.health_json().to_string();
    assert!(health.contains(r#""state":"degraded""#), "{health}");

    // Writes made during the outage land on peer 0 alone: the tripwired
    // peer's copies are skipped.
    assert_all_ok(&b, &outage, false);
    assert_eq!(
        d0.store().len(),
        len0 + outage.len(),
        "peer 0 holds every outage write"
    );

    // Resurrect the dead peer on the same address with an EMPTY store —
    // the disk-loss case. The next probe heals it and copies nothing:
    // the revived store holds only the probe sentinel.
    let revived = StoreDaemon::spawn_on(scratch("shard1-revived"), dead_addr);
    wait_until_ok(&b);
    assert!(!b.store_degraded());
    assert!(b.metrics().store_recoveries.get() >= 1);
    assert_eq!(revived.store().len(), 1, "only the probe sentinel");

    // A memory-cold daemon reads the corpus and the outage writes as
    // cached. Keys the wiped peer owns miss there, fail over to peer 0,
    // and each failover hit writes the value back (read repair).
    let c = Server::new(4096, 16).with_remote_store(&peers);
    assert_all_ok(&c, &requests, true);
    assert_all_ok(&c, &outage, true);
    assert_eq!(
        c.metrics().phase_build.count(),
        0,
        "a revived peer must not cost a recompute"
    );
    let failovers = c.metrics().store_failovers.get();
    let repairs = c.metrics().store_read_repairs.get();
    assert!(failovers > 0, "the wiped peer's share must fail over");
    assert_eq!(
        failovers, repairs,
        "every failover past a clean miss must repair it"
    );
    assert_eq!(
        revived.store().len() as u64,
        repairs + 1,
        "read repair refills exactly the keys that failed over, beside the probe sentinel"
    );
    drop(revived);
}

#[test]
fn failover_hits_read_repair_an_owner_that_lost_its_disk() {
    let d0 = StoreDaemon::spawn(scratch("repair0"));
    let d1 = StoreDaemon::spawn(scratch("repair1"));
    let peers = [d0.addr().to_string(), d1.addr().to_string()];
    let requests = corpus_requests();

    let a = Server::new(4096, 16).with_remote_store(&peers);
    assert_all_ok(&a, &requests, false);
    let full = d0.store().len();

    // Peer 0 loses its disk but comes back immediately: alive, healthy,
    // empty. No tripwire ever trips — its misses are clean.
    let dead_addr = d0.stop();
    let revived = StoreDaemon::spawn_on(scratch("repair0-revived"), dead_addr);

    // A cold daemon replays the corpus: keys the wiped peer owns miss
    // there, fail over to peer 1, and each failover hit writes the value
    // back to the wiped owner (read repair).
    let c = Server::new(4096, 16).with_remote_store(&peers);
    assert_all_ok(&c, &requests, true);
    let failovers = c.metrics().store_failovers.get();
    let repairs = c.metrics().store_read_repairs.get();
    assert!(failovers > 0, "the wiped owner's share must fail over");
    assert_eq!(
        failovers, repairs,
        "every failover past a clean miss must repair it"
    );
    assert!(!c.store_degraded(), "clean misses are not tripwire strikes");
    let repaired = revived.store().len();
    assert_eq!(
        repaired as u64, repairs,
        "read repair refills exactly the keys that failed over"
    );
    assert!(repaired > 0 && repaired <= full);
    drop(revived);
}

/// `n` distinct one-function modules as `alloc` request lines, each a
/// key of its own.
fn distinct_requests(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let ir = format!(
                "func f{i}(v0:int) -> int {{\nb0:\n    v1 = imm {i}\n    \
                 v2 = add.i v0, v1\n    ret v2\n}}\n"
            );
            let mut req = Json::obj([("req", Json::from("alloc"))]);
            req.push("ir", Json::from(ir));
            req.to_string()
        })
        .collect()
}

/// `v` with its counters and latencies masked: every number becomes 0
/// and histogram bucket lists empty, except the replica count and ring
/// size, which are topology rather than traffic.
fn masked(v: &Json) -> Json {
    match v {
        Json::Num(_) => Json::from(0u64),
        Json::Arr(items) => Json::Arr(items.iter().map(masked).collect()),
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| {
                    let v = match k.as_str() {
                        "replicas" | "ring_points" => v.clone(),
                        k if k.starts_with("buckets") => Json::Arr(Vec::new()),
                        _ => masked(v),
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

/// `stats.store` and `health.store` after one request, masked, with each
/// peer address replaced by its index.
fn store_surface(server: &Server, peers: &[String]) -> (String, String) {
    assert_all_ok(server, &distinct_requests(1), false);
    let render = |v: Option<&Json>| {
        let mut text = masked(v.expect("store section")).to_string();
        for (i, addr) in peers.iter().enumerate() {
            text = text.replace(addr.as_str(), &format!("peer{i}"));
        }
        text
    };
    let stats = server.stats_json();
    let health = server.health_json();
    (
        render(stats.get("store")),
        render(health.get("health").and_then(|h| h.get("store"))),
    )
}

#[test]
fn store_stats_and_health_keep_their_shape_for_every_tier() {
    const LATENCY: &str =
        r#""read_latency":{"count":0,"total_us":0,"mean_us":0,"max_us":0,"buckets_log2_us":[]}"#;

    let dir = scratch("surface-local");
    let local = Server::new(64, 1).with_store(Store::open(&dir, StoreOptions::default()).unwrap());
    let (stats, health) = store_surface(&local, &[]);
    assert_eq!(
        stats,
        format!(
            "{}{LATENCY}}}",
            concat!(
                r#"{"hits":0,"misses":0,"errors":0,"entries":0,"file_bytes":0,"live_bytes":0,"#,
                r#""dead_bytes":0,"recovered_entries":0,"dropped_corrupt":0,"dropped_torn":0,"#,
                r#""dropped_stale":0,"superseded":0,"evicted":0,"compactions":0,"#,
                r#""last_compaction_us":0,"read_errors":0,"#,
                r#""write_errors":0,"removed_tmp":0,"degraded":false,"#,
            )
        )
    );
    assert_eq!(
        health,
        r#"{"mode":"local","peers":[{"addr":"local","state":"ok"}]}"#
    );

    let peer = |i: usize| {
        format!(
            r#"{{"addr":"peer{i}","gets":0,"puts":0,"errors":0,"degraded":false,"retries":0,"failovers":0}}"#
        )
    };
    let topology_peer = |i: usize| format!(r#"{{"addr":"peer{i}","state":"ok"}}"#);

    let daemon = StoreDaemon::spawn(scratch("surface-remote"));
    let addrs = [daemon.addr().to_string()];
    let remote = Server::new(64, 1).with_remote_store(&addrs);
    let (stats, health) = store_surface(&remote, &addrs);
    assert_eq!(
        stats,
        format!(
            r#"{{"hits":0,"misses":0,"errors":0,"mode":"remote","replicas":1,"peers":[{}],{LATENCY}}}"#,
            peer(0)
        )
    );
    assert_eq!(
        health,
        format!(r#"{{"mode":"remote","peers":[{}]}}"#, topology_peer(0))
    );

    let shards: Vec<StoreDaemon> = (0..3)
        .map(|i| StoreDaemon::spawn(scratch(&format!("surface-shard{i}"))))
        .collect();
    let addrs: Vec<String> = shards.iter().map(|d| d.addr().to_string()).collect();
    let sharded = Server::new(64, 1).with_remote_store(&addrs);
    let (stats, health) = store_surface(&sharded, &addrs);
    assert_eq!(
        stats,
        format!(
            r#"{{"hits":0,"misses":0,"errors":0,"mode":"sharded","replicas":2,"peers":[{},{},{}],{LATENCY}}}"#,
            peer(0),
            peer(1),
            peer(2)
        )
    );
    assert_eq!(
        health,
        format!(
            r#"{{"mode":"sharded","ring_points":384,"replicas":2,"peers":[{},{},{}]}}"#,
            topology_peer(0),
            topology_peer(1),
            topology_peer(2)
        )
    );
    drop((daemon, shards));
    for name in ["local", "remote", "shard0", "shard1", "shard2"] {
        let _ = std::fs::remove_dir_all(scratch(&format!("surface-{name}")));
    }
}

#[test]
fn a_repeated_store_peer_is_a_usage_error() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_optimist-serve"))
        .args([
            "--store-peers",
            "127.0.0.1:7900,127.0.0.1:7901,127.0.0.1:7900",
            "--replicas",
            "2",
        ])
        .stdin(std::process::Stdio::null())
        .output()
        .expect("optimist-serve runs");
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--store-peers lists 127.0.0.1:7900 twice"),
        "{stderr}"
    );
}

#[test]
fn a_taken_listen_or_http_address_fails_at_startup() {
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let taken = taken.local_addr().unwrap().to_string();
    for (flag, other) in [("--http", "--listen"), ("--listen", "--http")] {
        let mut daemon = Process(
            std::process::Command::new(env!("CARGO_BIN_EXE_optimist-serve"))
                .args([other, "127.0.0.1:0", flag, taken.as_str(), "--quiet"])
                .stdin(std::process::Stdio::null())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("optimist-serve runs"),
        );
        let status = daemon.exit_within(Duration::from_secs(10));
        let mut stderr = String::new();
        daemon
            .0
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut stderr)
            .unwrap();
        let status = status.unwrap_or_else(|| panic!("{flag} {taken} kept serving: {stderr}"));
        assert!(!status.success(), "{flag}: {status}: {stderr}");
        assert!(stderr.contains(&format!("{flag} {taken}")), "{stderr}");
    }
}
