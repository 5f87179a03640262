//! End-to-end drills on in-process daemons over real TCP: store fault
//! injection (chaos), a replicated fleet losing and regaining a store
//! peer (fleet), giant kernels under intra-function parallel coloring
//! (giant), and the streaming batch transports (stream).
//!
//! Every correctness bar holds in every build. The timing bars count only
//! in release builds, run one drill at a time so that no drill times
//! another drill's load:
//!
//! ```text
//! cargo test --release -p optimist-serve --test drills -- --test-threads=1
//! ```

mod serve_test_util;

use optimist_serve::{Client, Json, RetryPolicy, Server};
use optimist_store::failpoint::FailKind;
use optimist_store::net::StoreClient;
use optimist_store::{Store, StoreOptions};
use serve_test_util::{corpus_modules, scratch, StoreDaemon, TestDaemon};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Timing bars are checked only when optimizations are on.
const TIMED: bool = !cfg!(debug_assertions);

/// How often a degraded store tier is re-probed in the drills.
const PROBE_INTERVAL: Duration = Duration::from_millis(50);

/// Each program's `functions` array from one corpus replay: the
/// byte-identity evidence.
type Answers = BTreeMap<String, String>;

/// Send every module of `corpus` through `client`, panicking on any
/// failed request; returns the answers and each request's latency.
fn replay(client: &mut Client, corpus: &[(String, String)]) -> (Answers, Vec<Duration>) {
    let mut answers = Answers::new();
    let mut latencies = Vec::new();
    for (name, ir) in corpus {
        let started = Instant::now();
        let resp = client
            .alloc(ir, Json::Null)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        latencies.push(started.elapsed());
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{name}: {resp}"
        );
        let functions = resp.get("functions").expect("functions");
        answers.insert(name.clone(), functions.to_string());
    }
    (answers, latencies)
}

/// The daemon's health state: `ok`, `degraded` or `draining`.
fn state(client: &mut Client) -> String {
    let health = client.health().expect("health answers");
    health.get("state").and_then(Json::as_str).unwrap().into()
}

#[test]
fn chaos_store_failures_cost_no_request_and_the_probe_recovers() {
    let corpus = corpus_modules();
    let dir = scratch("optimist-drills", "chaos");

    // Populate: a healthy store-backed daemon writes the corpus through.
    let open = || Store::open(&dir, StoreOptions::default()).expect("store opens");
    let daemon = TestDaemon::spawn(Server::new(4096, 16).with_store(open()));
    replay(&mut daemon.client(), &corpus);
    daemon.shutdown_with_stats();

    // A memory-cold daemon on the same store, with every store read
    // failing and every write failing with ENOSPC — what
    // `OPTIMIST_FAILPOINTS=get:fail,put:enospc` arms. A retrying client
    // replays the corpus three times and no request may fail.
    let store = open();
    store.failpoints().arm("get", FailKind::Fail);
    store.failpoints().arm("put", FailKind::Enospc);
    let daemon = TestDaemon::spawn(
        Server::new(4096, 16)
            .with_store(store)
            .with_store_probe_interval(PROBE_INTERVAL),
    );
    let mut client = daemon.client().with_retry(RetryPolicy::standard());
    for _ in 0..3 {
        replay(&mut client, &corpus);
    }
    assert_eq!(state(&mut client), "degraded", "the store must trip");

    // Heal the store and outwait the probe interval: the next store
    // access probes and puts the tier back in the serving path.
    daemon.server().store().unwrap().failpoints().clear_all();
    std::thread::sleep(PROBE_INTERVAL + Duration::from_millis(30));
    replay(&mut client, &corpus);
    assert_eq!(state(&mut client), "ok", "the probe must restore the tier");
    assert!(daemon.server().metrics().store_recoveries.get() >= 1);
    drop((client, daemon));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A serving daemon of the fleet: a sharded remote tier with 2 replicas
/// per key, behind both front-ends.
fn fleet_daemon(peers: &[String]) -> TestDaemon {
    TestDaemon::spawn(
        Server::new(4096, 16)
            .with_remote_store(peers)
            .with_replicas(2)
            .with_store_probe_interval(PROBE_INTERVAL),
    )
}

/// `GET path` on an HTTP front-end: the status code and the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut conn = std::net::TcpStream::connect(addr).expect("http connects");
    let request = format!("GET {path} HTTP/1.1\r\nHost: drill\r\nConnection: close\r\n\r\n");
    conn.write_all(request.as_bytes()).unwrap();
    let mut text = String::new();
    conn.read_to_string(&mut text).unwrap();
    let status = text.split(' ').nth(1).and_then(|s| s.parse().ok());
    let (_, body) = text.split_once("\r\n\r\n").unwrap_or_default();
    (status.unwrap_or(0), body.to_string())
}

/// The share of `daemon`'s `functions` answered from the store tier.
fn store_hit_rate(daemon: &TestDaemon, functions: usize) -> f64 {
    daemon.server().metrics().store_hits.get() as f64 / functions as f64
}

#[test]
fn fleet_stays_warm_and_byte_identical_through_a_store_peer_stop_and_empty_revival() {
    const WARM_HIT_BAR: f64 = 0.9;
    const RESYNC_BAR: f64 = 0.9;
    const TAIL_BAR: Duration = Duration::from_millis(250);
    let corpus = corpus_modules();

    // The single-process reference, warm: store-warm fleet records carry
    // `"cached":true` exactly like memory-warm ones.
    let baseline = TestDaemon::spawn(Server::new(4096, 16));
    let mut client = baseline.client();
    replay(&mut client, &corpus);
    let functions = baseline.server().metrics().functions.get() as usize;
    let (reference, _) = replay(&mut client, &corpus);
    drop((client, baseline));

    // Three store peers and three serving daemons over them.
    let dirs: Vec<_> = (0..4)
        .map(|i| scratch("optimist-drills", &format!("fleet{i}")))
        .collect();
    let mut stores: Vec<StoreDaemon> = dirs[..3].iter().map(StoreDaemon::spawn).collect();
    let peers: Vec<String> = stores.iter().map(|s| s.addr().to_string()).collect();
    let serves: Vec<TestDaemon> = (0..3).map(|_| fleet_daemon(&peers)).collect();

    // Daemon 0 computes the corpus and writes it through the ring.
    replay(&mut serves[0].client(), &corpus);
    for (i, peer) in stores.iter().enumerate() {
        assert!(!peer.store().is_empty(), "store peer {i} is empty");
    }

    // Every other daemon is memory-cold: its warmth is the store tier.
    let mut warm_latencies = Vec::new();
    for (d, serve) in serves.iter().enumerate().skip(1) {
        let (answers, latencies) = replay(&mut serve.client(), &corpus);
        assert_eq!(answers, reference, "daemon {d} differs from one process");
        let rate = store_hit_rate(serve, functions);
        assert!(rate >= WARM_HIT_BAR, "daemon {d} store hit rate {rate:.3}");
        warm_latencies.extend(latencies);
    }
    for (d, serve) in serves.iter().enumerate() {
        let (status, body) = http_get(serve.http_addr(), "/v1/health");
        assert_eq!(status, 200, "daemon {d}: {body}");
        assert!(body.contains(r#""mode":"sharded""#), "daemon {d}: {body}");
    }

    // A store peer stops a third of the way into a fresh daemon's replay.
    // Its keys all have a live replica, so nothing fails or goes cold.
    // (An in-process stop is a graceful drain; the CI smoke SIGKILLs a
    // real `optimist-stored`.)
    let owner_keys = stores[0].store().scan_keys(None, usize::MAX).0;
    let fresh = fleet_daemon(&peers);
    let mut client = fresh.client();
    let split = corpus.len() / 3;
    let (mut answers, _) = replay(&mut client, &corpus[..split]);
    let dead = stores.remove(0).stop();
    answers.extend(replay(&mut client, &corpus[split..]).0);
    assert_eq!(answers, reference, "the peer stop changed an answer");
    let rate = store_hit_rate(&fresh, functions);
    assert!(
        rate >= WARM_HIT_BAR,
        "store hit rate {rate:.3} with a dead peer"
    );
    assert!(fresh.server().metrics().store_failovers.get() > 0);
    assert_eq!(state(&mut client), "degraded", "the dead peer must trip");

    // Revive the peer empty on its old port — the disk-loss case. Health
    // polls probe it back, and anti-entropy repopulates it behind the
    // probe before the state returns to ok.
    stores.push(StoreDaemon::spawn_on(&dirs[3], dead));
    let deadline = Instant::now() + Duration::from_secs(30);
    while state(&mut client) != "ok" {
        assert!(
            Instant::now() < deadline,
            "the revived peer never recovered"
        );
        std::thread::sleep(Duration::from_millis(60));
    }
    let mut revived = BTreeSet::new();
    let mut scanner = StoreClient::connect(dead).expect("revived peer answers");
    let mut cursor = None;
    loop {
        let page = scanner.scan(cursor, None).expect("scan");
        cursor = page.keys.last().copied();
        revived.extend(page.keys);
        if page.done {
            break;
        }
    }
    let restored = owner_keys.iter().filter(|k| revived.contains(k)).count();
    let rate = restored as f64 / owner_keys.len() as f64;
    assert!(
        rate >= RESYNC_BAR,
        "resync restored {restored}/{}",
        owner_keys.len()
    );
    replay(&mut client, &corpus);
    assert!(fresh.server().metrics().store_recoveries.get() >= 1);

    // A last memory-cold daemon over the healed fleet: byte-identical and
    // warm.
    let last = fleet_daemon(&peers);
    let (answers, _) = replay(&mut last.client(), &corpus);
    assert_eq!(
        answers, reference,
        "the healed fleet differs from one process"
    );
    let rate = store_hit_rate(&last, functions);
    assert!(
        rate >= WARM_HIT_BAR,
        "healed fleet store hit rate {rate:.3}"
    );

    if TIMED {
        warm_latencies.sort_unstable();
        let p99 = ((warm_latencies.len() - 1) as f64 * 0.99).round() as usize;
        let p99 = warm_latencies[p99];
        assert!(p99 <= TAIL_BAR, "cross-daemon warm p99 {p99:?}");
    }
    drop((client, fresh, last, serves, stores));
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn giant_kernels_allocate_byte_identically_under_parallel_coloring() {
    use optimist_workloads::{giant_kernel, GiantConfig};
    const DEADLINE: Duration = Duration::from_secs(120);

    let cfg = if TIMED {
        GiantConfig::default()
    } else {
        GiantConfig::small()
    };
    // Two daemons, because the cache ignores threading knobs: one daemon
    // would answer the parallel lane from the sequential lane's cache.
    let seq = TestDaemon::spawn(Server::new(4096, 16));
    let par = TestDaemon::spawn(Server::new(4096, 16));
    let seq_config = Json::obj([("graph_threads", Json::from(1u64))]);
    // The daemon's 16-worker pool would clamp graph_threads back to 1
    // without a roomy thread budget.
    let par_config = Json::obj([
        ("graph_threads", Json::from(8u64)),
        ("thread_budget", Json::from(128u64)),
    ]);
    let alloc = |client: &mut Client, ir: &str, config: &Json| {
        let resp = client.alloc(ir, config.clone()).expect("alloc");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        resp.get("functions").expect("functions").to_string()
    };

    let (mut seq_client, mut par_client) = (seq.client(), par.client());
    let mut par_time = Duration::ZERO;
    for seed in 0..3u64 {
        let name = format!("GIANT{seed}");
        let module = optimist_frontend::compile(&giant_kernel(&name, seed, &cfg))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let ir = module.to_string();
        let sequential = alloc(&mut seq_client, &ir, &seq_config);
        let started = Instant::now();
        let parallel = alloc(&mut par_client, &ir, &par_config);
        par_time += started.elapsed();
        assert_eq!(parallel, sequential, "{name}: graph_threads 8 differs");
    }
    // A silently sequential lane would make the identity check vacuous.
    let stats = par_client.stats().expect("stats");
    let builds = stats.get("par").and_then(|p| p.get("parallel_builds"));
    assert!(builds.and_then(Json::as_u64) > Some(0), "{stats}");
    if TIMED {
        assert!(par_time <= DEADLINE, "parallel lane took {par_time:?}");
    }
}

#[test]
fn streamed_batches_match_serial_answers_byte_for_byte() {
    const ROUNDS: usize = 3;
    const KEY_SPEEDUP_BAR: f64 = 1.3;
    let corpus = corpus_modules();
    let daemon = TestDaemon::spawn(Server::new(4096, 16));
    let mut client = daemon.client();

    // Warm the cache, so every transport measures the same warm path.
    replay(&mut client, &corpus);

    // Serial: one round trip per program.
    let started = Instant::now();
    let mut serial = Answers::new();
    for _ in 0..ROUNDS {
        serial = replay(&mut client, &corpus).0;
    }
    let serial_time = started.elapsed();

    // The same work as streamed batches, by IR and by the content
    // address each serial function record carries. Every item must
    // answer exactly what the serial request did, in whatever order the
    // items complete.
    let batch = |client: &mut Client, items: &[(Json, Json)]| {
        let mut streamed = Answers::new();
        let done = client
            .batch(items, Json::Null, |record| {
                let id = record.get("id").and_then(Json::as_str).unwrap();
                let functions = record.get("functions").unwrap();
                streamed.insert(id.to_string(), functions.to_string());
            })
            .expect("batch");
        assert_eq!(done.get("errors").and_then(Json::as_u64), Some(0), "{done}");
        streamed
    };
    let ir_items: Vec<(Json, Json)> = corpus
        .iter()
        .map(|(name, ir)| {
            (
                Json::from(name.as_str()),
                Json::obj([("ir", Json::from(ir.as_str()))]),
            )
        })
        .collect();
    for _ in 0..ROUNDS {
        assert_eq!(batch(&mut client, &ir_items), serial, "an ir batch differs");
    }
    let mut key_items = Vec::new();
    let mut by_key = Answers::new(); // a key fetch answers one function
    for (name, functions) in &serial {
        let functions = optimist_serve::json::parse(functions).unwrap();
        for (i, f) in functions.as_arr().unwrap().iter().enumerate() {
            let id = format!("{name}/{i}");
            let key = f.get("key").unwrap().clone();
            key_items.push((Json::from(id.as_str()), Json::obj([("key", key)])));
            by_key.insert(id, Json::Arr(vec![f.clone()]).to_string());
        }
    }
    let started = Instant::now();
    for _ in 0..ROUNDS {
        assert_eq!(
            batch(&mut client, &key_items),
            by_key,
            "a key batch differs"
        );
    }
    let key_time = started.elapsed();
    if TIMED {
        let speedup = serial_time.as_secs_f64() / key_time.as_secs_f64();
        assert!(
            speedup >= KEY_SPEEDUP_BAR,
            "key batch only {speedup:.2}x serial"
        );
    }
}
