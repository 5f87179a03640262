//! The persistent cache tier behind the in-memory LRU: one list of store
//! peers plus the consistent-hash ring that spreads keys across them.
//!
//! Each [`Peer`] owns its label, degraded-mode tripwire, counters and a
//! [`Link`]: the embedded [`Store`] log (`--store DIR`, reported as
//! `local`) or a connection to one `optimist-stored` daemon
//! (`--store-peers`, reported as `remote` with one peer and `sharded`
//! with several). The link is the only place the tier cares where bytes
//! live. A one-peer tier sends every key to peer 0 without hashing; with
//! several peers a key goes to its [`HashRing`] successor list, owner
//! first.
//!
//! Behind [`StoreTier::get`] and [`StoreTier::put`] sit the per-peer
//! tripwire (after [`DEGRADE_THRESHOLD`] consecutive failures a peer
//! leaves the serving path until a sentinel probe succeeds), write
//! fan-out, and read failover with read repair, the one path that refills
//! a replica that missed writes or revived empty — see DESIGN.md §14.2
//! and §16. Store failures are counted, logged and fed to the tripwire,
//! never raised: the worst a dead tier costs is a recompute.

use crate::json::Json;
use crate::metrics::Metrics;
use crate::ring::HashRing;
use crate::{log_info, log_warn};
use optimist_store::net::{StoreClient, StoreClientError};
use optimist_store::Store;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Consecutive I/O failures before a peer trips out of the serving path.
const DEGRADE_THRESHOLD: u32 = 3;

/// How long a degraded peer waits between recovery probes unless
/// [`Server::with_store_probe_interval`](crate::Server::with_store_probe_interval)
/// says otherwise.
const DEFAULT_PROBE_INTERVAL: Duration = Duration::from_secs(5);

/// Default read/write timeout on remote store-peer sockets: long enough
/// for a loaded daemon, short enough that a hung one trips the per-peer
/// degraded tripwire instead of pinning request threads.
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_secs(2);

/// How many peers hold each key in sharded mode unless
/// [`Server::with_replicas`](crate::Server::with_replicas) says
/// otherwise. Two replicas survive any single store-daemon death — the
/// fleet's availability target.
pub const DEFAULT_REPLICAS: usize = 2;

/// Reserved content address used by degraded-mode recovery probes. A real
/// key is a 64-bit FNV-1a hash, so colliding with the all-ones sentinel is
/// no likelier than any other single-key collision the cache already
/// tolerates.
const PROBE_KEY: u64 = u64::MAX;

/// The store peers behind the LRU, the ring that routes keys across
/// them, and the replication policy (see the module docs).
#[derive(Debug)]
pub(crate) struct StoreTier {
    peers: Vec<Peer>,
    /// Routes keys to peer indices when there is more than one peer.
    ring: HashRing,
    /// Peers per key (clamped to the peer count when routing).
    replicas: usize,
    probe_interval: Duration,
}

/// How a peer's bytes move.
#[derive(Debug)]
enum Link {
    /// The embedded log; this process owns the directory.
    Local(Store),
    /// An `optimist-stored` daemon at the peer's label.
    Remote {
        /// The one blocking connection to the daemon. Dialed on first
        /// use, dropped on transport error, re-dialed by the next call or
        /// probe. The mutex serializes this process's requests to the
        /// peer — the same single-channel shape the local log's writer
        /// lock imposes.
        conn: Mutex<Option<StoreClient>>,
    },
}

/// One store peer: its label, link, tripwire and counters (surfaced
/// under `stats.store.peers`).
#[derive(Debug)]
struct Peer {
    /// `local`, or the daemon's address: the peer's name in logs, stats
    /// and health, and its label on the ring.
    label: String,
    link: Link,
    degraded: AtomicBool,
    consecutive_errors: AtomicU32,
    /// Earliest instant the next recovery probe may run (degraded only).
    next_probe: Mutex<Instant>,
    gets: AtomicU64,
    puts: AtomicU64,
    errors: AtomicU64,
    /// Transport errors absorbed by the one-shot reconnect-and-retry on
    /// gets (each would otherwise have been a tripwire strike).
    retries: AtomicU64,
    /// Reads this peer served for keys whose earlier replicas could not
    /// (the failover hits, counted at the peer that answered).
    failovers: AtomicU64,
}

impl Peer {
    fn new(label: String, link: Link) -> Peer {
        Peer {
            label,
            link,
            degraded: AtomicBool::new(false),
            consecutive_errors: AtomicU32::new(0),
            next_probe: Mutex::new(Instant::now()),
            gets: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        }
    }

    fn get(&self, key: u64) -> io::Result<Option<(u64, Vec<u8>)>> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        match &self.link {
            Link::Local(store) => store.try_get(key),
            Link::Remote { conn } => self.call_retry(conn, |c| c.get(key)),
        }
    }

    fn put(&self, key: u64, fingerprint: u64, payload: &[u8]) -> io::Result<()> {
        self.puts.fetch_add(1, Ordering::Relaxed);
        match &self.link {
            Link::Local(store) => store.put(key, fingerprint, payload),
            Link::Remote { conn } => self
                .call(conn, &mut |c| c.put(key, fingerprint, payload))
                .map_err(StoreClientError::into_io),
        }
    }

    /// One recovery round trip: a sentinel put+get exercising the full
    /// write and read path of this peer (not just liveness).
    fn probe(&self) -> bool {
        const PROBE_PAYLOAD: &[u8] = b"optimist degraded-mode probe";
        match &self.link {
            Link::Local(store) => store
                .put(PROBE_KEY, 0, PROBE_PAYLOAD)
                .and_then(|()| store.try_get(PROBE_KEY).map(drop))
                .is_ok(),
            Link::Remote { conn } => self
                .call(conn, &mut |c| {
                    c.put(PROBE_KEY, 0, PROBE_PAYLOAD)?;
                    c.get(PROBE_KEY).map(drop)
                })
                .is_ok(),
        }
    }

    /// Run one operation over the daemon connection in `conn`, dialing
    /// this peer first if needed, with [`DEFAULT_PEER_TIMEOUT`] on its
    /// socket. Transport failures and protocol garbage drop the
    /// connection so the next call re-dials from scratch; a well-formed
    /// refusal keeps it — the daemon is up, its store said no. No retry:
    /// puts and probes leave failure policy to the caller.
    fn call<T>(
        &self,
        conn: &Mutex<Option<StoreClient>>,
        op: &mut impl FnMut(&mut StoreClient) -> Result<T, StoreClientError>,
    ) -> Result<T, StoreClientError> {
        let mut slot = conn.lock().expect("peer conn lock");
        if slot.is_none() {
            let client = StoreClient::connect(self.label.as_str())?;
            client.set_timeout(DEFAULT_PEER_TIMEOUT)?;
            *slot = Some(client);
        }
        let result = op(slot.as_mut().expect("connection just established"));
        if result.as_ref().is_err_and(StoreClientError::is_transport) {
            *slot = None;
        }
        result
    }

    /// [`Peer::call`] with one immediate reconnect-and-retry on transport
    /// failure, for the idempotent get: a single dropped connection — an
    /// idle-timeout reap, a daemon restart between requests — costs one
    /// extra round trip instead of a third of the way to degraded mode.
    /// The retry is counted per peer; a refusal (the daemon answered
    /// `"ok":false`) is never retried, it would refuse identically again.
    fn call_retry<T>(
        &self,
        conn: &Mutex<Option<StoreClient>>,
        mut op: impl FnMut(&mut StoreClient) -> Result<T, StoreClientError>,
    ) -> io::Result<T> {
        match self.call(conn, &mut op) {
            Err(e) if e.is_transport() => {
                self.retries.fetch_add(1, Ordering::Relaxed);
                self.call(conn, &mut op).map_err(StoreClientError::into_io)
            }
            other => other.map_err(StoreClientError::into_io),
        }
    }

    fn stats_json(&self) -> Json {
        let count = |counter: &AtomicU64| Json::from(counter.load(Ordering::Relaxed));
        Json::obj([
            ("addr", Json::from(self.label.as_str())),
            ("gets", count(&self.gets)),
            ("puts", count(&self.puts)),
            ("errors", count(&self.errors)),
            (
                "degraded",
                Json::from(self.degraded.load(Ordering::Relaxed)),
            ),
            ("retries", count(&self.retries)),
            ("failovers", count(&self.failovers)),
        ])
    }
}

impl StoreTier {
    /// A tier over the embedded `store` log.
    pub(crate) fn local(store: Store) -> StoreTier {
        StoreTier::new(vec![Peer::new("local".to_string(), Link::Local(store))])
    }

    /// A tier over `optimist-stored` daemons at `addrs`, dialed lazily
    /// with [`DEFAULT_PEER_TIMEOUT`].
    pub(crate) fn remote<S: AsRef<str>>(addrs: &[S]) -> StoreTier {
        assert!(
            !addrs.is_empty(),
            "remote store tier needs at least one peer"
        );
        let link = || Link::Remote {
            conn: Mutex::new(None),
        };
        StoreTier::new(
            addrs
                .iter()
                .map(|addr| Peer::new(addr.as_ref().to_string(), link()))
                .collect(),
        )
    }

    fn new(peers: Vec<Peer>) -> StoreTier {
        let labels: Vec<&str> = peers.iter().map(|peer| peer.label.as_str()).collect();
        StoreTier {
            ring: HashRing::new(&labels),
            peers,
            probe_interval: DEFAULT_PROBE_INTERVAL,
            replicas: DEFAULT_REPLICAS,
        }
    }

    /// See [`crate::Server::with_replicas`].
    pub(crate) fn with_replicas(mut self, replicas: usize) -> StoreTier {
        self.replicas = replicas.max(1);
        self
    }

    /// See [`crate::Server::with_store_probe_interval`].
    pub(crate) fn with_probe_interval(mut self, interval: Duration) -> StoreTier {
        self.probe_interval = interval;
        self
    }

    /// The embedded log, when the tier is one local peer.
    pub(crate) fn local_store(&self) -> Option<&Store> {
        match &self.peers[..] {
            [Peer {
                link: Link::Local(store),
                ..
            }] => Some(store),
            _ => None,
        }
    }

    /// `local`, `remote` or `sharded`, as stats and health report it.
    fn mode(&self) -> &'static str {
        if self.local_store().is_some() {
            "local"
        } else if self.peers.len() == 1 {
            "remote"
        } else {
            "sharded"
        }
    }

    /// The replication factor actually in effect: `replicas` clamped to
    /// the peer count.
    fn effective_replicas(&self) -> usize {
        self.replicas.min(self.peers.len()).max(1)
    }

    /// The indices of the peers that hold `key`, owner first.
    fn chain(&self, key: u64) -> Vec<usize> {
        if self.peers.len() == 1 {
            vec![0]
        } else {
            self.ring.route_n(key, self.replicas)
        }
    }

    /// True if any peer is tripped out of the serving path.
    pub(crate) fn degraded(&self) -> bool {
        self.peers
            .iter()
            .any(|peer| peer.degraded.load(Ordering::Relaxed))
    }

    /// Give every degraded peer its recovery probe if one is due. A
    /// degraded peer re-probes on store traffic, but a memo-warm daemon
    /// may not touch the store for minutes — so a health poll counts as
    /// traffic too.
    pub(crate) fn reprobe(&self, m: &Metrics) {
        for i in 0..self.peers.len() {
            self.available(m, i);
        }
    }

    /// Read `key` from its replica chain, owner first, feeding each
    /// peer's degraded-mode tripwire. A hit past the owner counts as a
    /// failover and **read-repairs** every earlier replica that was up
    /// but answered a clean miss: a recovered or wiped owner gets each key
    /// back on its first read. Degraded or failing reads down the whole
    /// chain are served as misses — the caller falls through to compute.
    pub(crate) fn get(&self, m: &Metrics, key: u64) -> Option<(u64, Vec<u8>)> {
        // Earlier replicas that answered a clean miss: read-repair
        // targets if a later replica hits. Peers that were tripwired or
        // errored don't get repaired inline (the write would fail too);
        // a later read that misses on them and hits past them does.
        let mut missed = Vec::new();
        let mut passed_over = false;
        for i in self.chain(key) {
            if !self.available(m, i) {
                passed_over = true;
                continue;
            }
            let peer = &self.peers[i];
            match peer.get(key) {
                Ok(Some(found)) => {
                    peer.consecutive_errors.store(0, Ordering::SeqCst);
                    if passed_over || !missed.is_empty() {
                        m.store_failovers.inc();
                        peer.failovers.fetch_add(1, Ordering::Relaxed);
                        self.read_repair(m, key, &found, &missed);
                    }
                    return Some(found);
                }
                Ok(None) => {
                    peer.consecutive_errors.store(0, Ordering::SeqCst);
                    missed.push(i);
                }
                Err(e) => {
                    m.store_get_errors.inc();
                    m.store_errors.inc();
                    log_warn!("store[{}]: get {key:016x} failed: {e}", peer.label);
                    self.note_error(m, i);
                    passed_over = true;
                }
            }
        }
        None
    }

    /// Copy a value a later replica served back to the earlier replicas
    /// that missed it. Values are immutable, so repair is a plain put.
    fn read_repair(&self, m: &Metrics, key: u64, found: &(u64, Vec<u8>), missed: &[usize]) {
        let (fingerprint, payload) = found;
        for &i in missed {
            let peer = &self.peers[i];
            match peer.put(key, *fingerprint, payload) {
                Ok(()) => {
                    peer.consecutive_errors.store(0, Ordering::SeqCst);
                    m.store_read_repairs.inc();
                }
                Err(e) => {
                    m.store_put_errors.inc();
                    m.store_errors.inc();
                    log_warn!("store[{}]: read-repair {key:016x} failed: {e}", peer.label);
                    self.note_error(m, i);
                }
            }
        }
    }

    /// Write through to every replica of `key`, feeding each peer's
    /// degraded-mode tripwire. A replica that is tripwired (or fails the
    /// write) lacks this key until a read repairs it.
    /// Failures are counted and logged, never raised: the response
    /// already holds the result.
    pub(crate) fn put(&self, m: &Metrics, key: u64, fingerprint: u64, payload: &[u8]) {
        for i in self.chain(key) {
            if !self.available(m, i) {
                continue;
            }
            let peer = &self.peers[i];
            match peer.put(key, fingerprint, payload) {
                Ok(()) => peer.consecutive_errors.store(0, Ordering::SeqCst),
                Err(e) => {
                    m.store_put_errors.inc();
                    m.store_errors.inc();
                    log_warn!("store[{}]: put {key:016x} failed: {e}", peer.label);
                    self.note_error(m, i);
                }
            }
        }
    }

    /// One store I/O failure on peer `i`: count it toward that peer's
    /// degraded-mode tripwire and trip if the threshold is reached.
    fn note_error(&self, m: &Metrics, i: usize) {
        let peer = &self.peers[i];
        peer.errors.fetch_add(1, Ordering::Relaxed);
        let run = peer.consecutive_errors.fetch_add(1, Ordering::SeqCst) + 1;
        if run >= DEGRADE_THRESHOLD && !peer.degraded.swap(true, Ordering::SeqCst) {
            m.store_degraded.raise(1);
            *peer.next_probe.lock().expect("probe lock") = Instant::now() + self.probe_interval;
            log_warn!(
                "store[{}]: {run} consecutive I/O errors; peer leaves the serving path \
                 (re-probing every {:?})",
                peer.label,
                self.probe_interval
            );
        }
    }

    /// Whether peer `i` may be used right now. A healthy peer always
    /// may; a degraded one only probes — at most once per probe interval,
    /// a sentinel put+get — and recovers if the probe succeeds.
    fn available(&self, m: &Metrics, i: usize) -> bool {
        let peer = &self.peers[i];
        if !peer.degraded.load(Ordering::SeqCst) {
            return true;
        }
        {
            let mut next = peer.next_probe.lock().expect("probe lock");
            if Instant::now() < *next {
                return false;
            }
            *next = Instant::now() + self.probe_interval;
        }
        m.store_probes.inc();
        let recovered = peer.probe();
        if recovered {
            peer.consecutive_errors.store(0, Ordering::SeqCst);
            peer.degraded.store(false, Ordering::SeqCst);
            m.store_degraded.lower(1);
            m.store_recoveries.inc();
            log_info!(
                "store[{}]: recovery probe succeeded; peer rejoins the serving path",
                peer.label
            );
        }
        recovered
    }

    /// The topology an operator sees in `health.store`: the tier's mode,
    /// the ring size and replica count when there are several peers, and
    /// each peer's address and tripwire state.
    pub(crate) fn topology_json(&self) -> Json {
        let mut obj = Json::obj([("mode", Json::from(self.mode()))]);
        if self.peers.len() > 1 {
            obj.push("ring_points", Json::from(self.ring.point_count() as u64));
            obj.push("replicas", Json::from(self.effective_replicas() as u64));
        }
        let peers = self
            .peers
            .iter()
            .map(|peer| {
                let state = if peer.degraded.load(Ordering::Relaxed) {
                    "degraded"
                } else {
                    "ok"
                };
                Json::obj([
                    ("addr", Json::from(peer.label.as_str())),
                    ("state", Json::from(state)),
                ])
            })
            .collect();
        obj.push("peers", Json::Arr(peers));
        obj
    }

    /// `stats.store`: the tier's hit/miss/error counters, then the local
    /// log's health or each peer's counters, then the read latency.
    pub(crate) fn stats_json(&self, m: &Metrics) -> Json {
        let mut store = Json::obj([
            ("hits", Json::from(m.store_hits.get())),
            ("misses", Json::from(m.store_misses.get())),
            ("errors", Json::from(m.store_errors.get())),
        ]);
        if let Some(log) = self.local_store() {
            let snap = log.snapshot();
            for (name, value) in [
                ("entries", snap.entries as u64),
                ("file_bytes", snap.file_bytes),
                ("live_bytes", snap.live_bytes),
                ("dead_bytes", snap.dead_bytes),
                ("recovered_entries", snap.recovered_entries),
                ("dropped_corrupt", snap.dropped_corrupt),
                ("dropped_torn", snap.dropped_torn),
                ("dropped_stale", snap.dropped_stale),
                ("superseded", snap.superseded),
                ("evicted", snap.evicted),
                ("compactions", snap.compactions),
                ("last_compaction_us", snap.last_compaction_us),
                ("read_errors", snap.read_errors),
                ("write_errors", snap.write_errors),
                ("removed_tmp", snap.removed_tmp),
            ] {
                store.push(name, Json::from(value));
            }
            store.push("degraded", Json::from(self.degraded()));
        } else {
            store.push("mode", Json::from(self.mode()));
            store.push("replicas", Json::from(self.effective_replicas() as u64));
            store.push(
                "peers",
                Json::Arr(self.peers.iter().map(Peer::stats_json).collect()),
            );
        }
        store.push("read_latency", m.store_read_latency.to_json());
        store
    }
}
