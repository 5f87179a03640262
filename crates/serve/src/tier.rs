//! The persistent cache tier behind the in-memory LRU: one list of store
//! peers plus the consistent-hash ring that spreads keys across them.
//!
//! Each [`Peer`] owns its label, degraded-mode tripwire, counters,
//! hinted-handoff queue and a [`Link`]: the embedded [`Store`] log
//! (`--store DIR`, reported as `local`) or a connection to one
//! `optimist-stored` daemon (`--store-peers`, reported as `remote` with
//! one peer and `sharded` with several). The link is the only place the
//! tier cares where bytes live. A one-peer tier sends every key to peer 0
//! without hashing; with several peers a key goes to its [`HashRing`]
//! successor list, owner first.
//!
//! Behind [`StoreTier::get`] and [`StoreTier::put`] sit the per-peer
//! tripwire (after [`DEGRADE_THRESHOLD`] consecutive failures a peer
//! leaves the serving path until a sentinel probe succeeds), write
//! fan-out, read failover with read-repair, bounded hinted handoff and
//! the anti-entropy sweep of a peer that revives empty — see DESIGN.md
//! §14.2 and §16. Store failures are counted, logged and fed to the
//! tripwire, never raised: the worst a dead tier costs is a recompute.

use crate::json::Json;
use crate::metrics::Metrics;
use crate::ring::HashRing;
use crate::{log_info, log_warn};
use optimist_store::net::{ScanPage, StoreClient, StoreClientError};
use optimist_store::Store;
use std::collections::{HashSet, VecDeque};
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

/// Default cap on hinted-handoff queue length per tripwired peer.
const DEFAULT_HINT_MAX_ENTRIES: usize = 4096;

/// Default cap on hinted-handoff queue payload bytes per tripwired peer.
const DEFAULT_HINT_MAX_BYTES: usize = 16 << 20;

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
    /// Per-peer hinted-handoff caps (entries / payload bytes).
    hint_max_entries: usize,
    hint_max_bytes: usize,
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

/// One store peer: its label, link, tripwire, hinted-handoff queue and
/// counters (surfaced under `stats.store.peers`).
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
    /// Writes owed to this peer while it is tripwired.
    hints: Mutex<HintQueue>,
    /// True while an anti-entropy sweep is repopulating this peer.
    resyncing: AtomicBool,
    gets: AtomicU64,
    puts: AtomicU64,
    errors: AtomicU64,
    /// Transport errors absorbed by the one-shot reconnect-and-retry on
    /// idempotent verbs (each would otherwise have been a tripwire
    /// strike).
    retries: AtomicU64,
    /// Reads this peer served for keys whose earlier replicas could not
    /// (the failover hits, counted at the peer that answered).
    failovers: AtomicU64,
    hints_queued: AtomicU64,
    hints_dropped: AtomicU64,
    hints_drained: AtomicU64,
}

/// One write owed to a tripwired replica, parked in its hint queue.
#[derive(Debug)]
struct Hint {
    key: u64,
    fingerprint: u64,
    payload: Vec<u8>,
}

/// A bounded FIFO of writes owed to one tripwired peer (hinted
/// handoff). Values are content-addressed and immutable, so a re-queued
/// key *replaces* its older hint instead of duplicating it, and
/// overflow past either cap discards oldest-first — the dropped keys
/// are exactly what the anti-entropy sweep exists to repair.
#[derive(Debug, Default)]
struct HintQueue {
    hints: VecDeque<Hint>,
    bytes: usize,
}

impl HintQueue {
    /// Queue `hint` under the given caps. Returns how many older hints
    /// were discarded to make room (0 when the queue had space).
    fn push(&mut self, hint: Hint, max_entries: usize, max_bytes: usize) -> u64 {
        if let Some(at) = self.hints.iter().position(|h| h.key == hint.key) {
            let old = self.hints.remove(at).expect("indexed hint exists");
            self.bytes -= old.payload.len();
        }
        self.bytes += hint.payload.len();
        self.hints.push_back(hint);
        let mut dropped = 0;
        while self.hints.len() > max_entries || self.bytes > max_bytes {
            let Some(old) = self.hints.pop_front() else {
                break;
            };
            self.bytes -= old.payload.len();
            dropped += 1;
        }
        dropped
    }

    /// Pop the oldest hint, keeping the byte total honest.
    fn pop_adjusting(&mut self) -> Option<Hint> {
        let hint = self.hints.pop_front()?;
        self.bytes -= hint.payload.len();
        Some(hint)
    }

    /// Re-park a hint whose delivery failed, at the front so the drain
    /// resumes where it stopped.
    fn push_front_adjusting(&mut self, hint: Hint) {
        self.bytes += hint.payload.len();
        self.hints.push_front(hint);
    }
}

impl Peer {
    fn new(label: String, link: Link) -> Peer {
        Peer {
            label,
            link,
            degraded: AtomicBool::new(false),
            consecutive_errors: AtomicU32::new(0),
            next_probe: Mutex::new(Instant::now()),
            hints: Mutex::new(HintQueue::default()),
            resyncing: AtomicBool::new(false),
            gets: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            hints_queued: AtomicU64::new(0),
            hints_dropped: AtomicU64::new(0),
            hints_drained: AtomicU64::new(0),
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

    /// One page of the peer's sorted key space, for the anti-entropy
    /// sweep.
    fn scan(&self, after: Option<u64>, limit: Option<usize>) -> io::Result<ScanPage> {
        match &self.link {
            // The sweep needs a second replica, so it only runs on tiers
            // of several peers — and those are all remote.
            Link::Local(_) => unreachable!("a local store is never swept"),
            Link::Remote { conn } => self.call_retry(conn, |c| c.scan(after, limit)),
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
    /// failure, for idempotent verbs (get/scan): a single dropped
    /// connection — an idle-timeout reap, a daemon restart between
    /// requests — costs one extra round trip instead of a third of the
    /// way to degraded mode. The retry is counted per peer; a refusal
    /// (the daemon answered `"ok":false`) is never retried, it would
    /// refuse identically again.
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

    /// The queued-hint depth (for stats/health).
    fn hint_depth(&self) -> usize {
        self.hints.lock().expect("hint lock").hints.len()
    }

    /// The peer's replica-sync state as shown in stats/health:
    /// `resyncing` while an anti-entropy sweep runs, `hinted` while
    /// handoff hints are parked for it, else `in_sync`.
    fn sync_state(&self) -> &'static str {
        if self.resyncing.load(Ordering::Relaxed) {
            "resyncing"
        } else if self.hint_depth() > 0 {
            "hinted"
        } else {
            "in_sync"
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
            (
                "hints",
                Json::obj([
                    ("queued", count(&self.hints_queued)),
                    ("dropped", count(&self.hints_dropped)),
                    ("drained", count(&self.hints_drained)),
                    ("depth", Json::from(self.hint_depth() as u64)),
                ]),
            ),
            ("sync", Json::from(self.sync_state())),
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
            hint_max_entries: DEFAULT_HINT_MAX_ENTRIES,
            hint_max_bytes: DEFAULT_HINT_MAX_BYTES,
        }
    }

    /// See [`crate::Server::with_replicas`].
    pub(crate) fn with_replicas(mut self, replicas: usize) -> StoreTier {
        self.replicas = replicas.max(1);
        self
    }

    /// See [`crate::Server::with_hint_limits`].
    pub(crate) fn with_hint_limits(mut self, max_entries: usize, max_bytes: usize) -> StoreTier {
        self.hint_max_entries = max_entries.max(1);
        self.hint_max_bytes = max_bytes.max(1);
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
    /// but answered a clean miss (a recovered owner gets its warmth back
    /// on the first read, not only via the anti-entropy sweep). Degraded
    /// or failing reads down the whole chain are served as misses — the
    /// caller falls through to compute.
    pub(crate) fn get(&self, m: &Metrics, key: u64) -> Option<(u64, Vec<u8>)> {
        // Earlier replicas that answered a clean miss: read-repair
        // targets if a later replica hits. Peers that were tripwired or
        // errored don't get repaired inline (the write would fail too) —
        // hinted handoff and the anti-entropy sweep cover them.
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
    /// write) gets the record parked in its bounded hinted-handoff queue
    /// instead, to be drained when its recovery probe succeeds. Failures
    /// are counted and logged, never raised: the response already holds
    /// the result.
    pub(crate) fn put(&self, m: &Metrics, key: u64, fingerprint: u64, payload: &[u8]) {
        for i in self.chain(key) {
            if !self.available(m, i) {
                self.queue_hint(m, i, key, fingerprint, payload);
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
                    self.queue_hint(m, i, key, fingerprint, payload);
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
    /// a sentinel put+get — and recovers if the probe succeeds. Recovery
    /// drains the peer's hints, then resyncs it if it came back empty.
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
            // Drain first: a peer that revived with its log intact (or is
            // refilled by its own hints) then fails the resync emptiness
            // gate, suppressing a pointless sweep.
            self.drain_hints(m, i);
            self.resync(m, i);
        }
        recovered
    }

    /// Park a write owed to unavailable peer `i` in its hint queue
    /// (bounded by the tier's caps; overflow drops oldest-first and is
    /// counted). A local tier keeps no hints: the log is its own only
    /// copy, so degraded-mode misses there are simply recomputed.
    fn queue_hint(&self, m: &Metrics, i: usize, key: u64, fingerprint: u64, payload: &[u8]) {
        if self.local_store().is_some() {
            return;
        }
        let peer = &self.peers[i];
        let dropped = peer.hints.lock().expect("hint lock").push(
            Hint {
                key,
                fingerprint,
                payload: payload.to_vec(),
            },
            self.hint_max_entries,
            self.hint_max_bytes,
        );
        peer.hints_queued.fetch_add(1, Ordering::Relaxed);
        m.store_hints_queued.inc();
        if dropped > 0 {
            peer.hints_dropped.fetch_add(dropped, Ordering::Relaxed);
            m.store_hints_dropped.add(dropped);
        }
    }

    /// Deliver freshly-recovered peer `i` the writes parked for it. Hints
    /// pop before they send, so each retained hint is delivered at most
    /// once; a delivery failure re-parks the hint and stops the drain
    /// (the tripwire decides when to try again). Values are immutable,
    /// so even a hint that *was* sent but whose ack was lost would
    /// supersede identical bytes.
    fn drain_hints(&self, m: &Metrics, i: usize) {
        let peer = &self.peers[i];
        loop {
            let Some(hint) = peer.hints.lock().expect("hint lock").pop_adjusting() else {
                return;
            };
            match peer.put(hint.key, hint.fingerprint, &hint.payload) {
                Ok(()) => {
                    peer.hints_drained.fetch_add(1, Ordering::Relaxed);
                    m.store_hints_drained.inc();
                }
                Err(e) => {
                    log_warn!(
                        "store[{}]: hint drain {:016x} failed: {e}",
                        peer.label,
                        hint.key
                    );
                    peer.hints
                        .lock()
                        .expect("hint lock")
                        .push_front_adjusting(hint);
                    m.store_put_errors.inc();
                    m.store_errors.inc();
                    self.note_error(m, i);
                    return;
                }
            }
        }
    }

    /// Repopulate peer `revived` if it came back **empty** (disk loss) by
    /// walking every live peer's key space via paginated `scan` and
    /// copying over the keys whose replica chain includes it. Gated on
    /// replication (otherwise there is no second copy to sweep from) and
    /// on the revived store actually being empty — a peer that came back
    /// with its log intact (or was just refilled by its hint drain) needs
    /// nothing. Runs synchronously in the recovery path; fleet peers are
    /// loopback or LAN, and the sweep is one-time per revival.
    fn resync(&self, m: &Metrics, revived: usize) {
        let replicas = self.effective_replicas();
        if replicas < 2 {
            return;
        }
        let target = &self.peers[revived];
        // Emptiness gate: the recovery probe already wrote its sentinel,
        // so a store holding only that (or nothing) is "empty".
        match target.scan(None, Some(2)) {
            Ok(page) if page.total <= 1 => {}
            _ => return,
        }
        target.resyncing.store(true, Ordering::SeqCst);
        m.store_resyncs.inc();
        let mut copied = 0u64;
        let mut seen = HashSet::new();
        'sweep: for (idx, source) in self.peers.iter().enumerate() {
            if idx == revived || source.degraded.load(Ordering::SeqCst) {
                continue;
            }
            let mut cursor = None;
            loop {
                let page = match source.scan(cursor, None) {
                    Ok(page) => page,
                    Err(e) => {
                        log_warn!("store[{}]: resync scan failed: {e}", source.label);
                        self.note_error(m, idx);
                        break;
                    }
                };
                cursor = page.keys.last().copied();
                for key in page.keys {
                    if key == PROBE_KEY
                        || !seen.insert(key)
                        || !self.ring.route_n(key, replicas).contains(&revived)
                    {
                        continue;
                    }
                    let found = match source.get(key) {
                        Ok(found) => found,
                        Err(e) => {
                            log_warn!("store[{}]: resync get {key:016x} failed: {e}", source.label);
                            self.note_error(m, idx);
                            break;
                        }
                    };
                    let Some((fp, payload)) = found else {
                        continue; // evicted between scan and get
                    };
                    if let Err(e) = target.put(key, fp, &payload) {
                        log_warn!(
                            "store[{}]: resync put {key:016x} failed: {e}; sweep aborted",
                            target.label
                        );
                        self.note_error(m, revived);
                        break 'sweep;
                    }
                    copied += 1;
                }
                if page.done {
                    break;
                }
            }
        }
        m.store_resync_keys.add(copied);
        target.resyncing.store(false, Ordering::SeqCst);
        log_info!(
            "store[{}]: anti-entropy sweep restored {copied} keys",
            target.label
        );
    }

    /// The topology an operator sees in `health.store`: the tier's mode,
    /// the ring size and replica count when there are several peers, and
    /// each peer's address and tripwire state (plus its sync state and
    /// hint depth unless the tier is local).
    pub(crate) fn topology_json(&self) -> Json {
        let mut obj = Json::obj([("mode", Json::from(self.mode()))]);
        if self.peers.len() > 1 {
            obj.push("ring_points", Json::from(self.ring.point_count() as u64));
            obj.push("replicas", Json::from(self.effective_replicas() as u64));
        }
        let local = self.local_store().is_some();
        let peers = self
            .peers
            .iter()
            .map(|peer| {
                let state = if peer.degraded.load(Ordering::Relaxed) {
                    "degraded"
                } else {
                    "ok"
                };
                let mut entry = Json::obj([
                    ("addr", Json::from(peer.label.as_str())),
                    ("state", Json::from(state)),
                ]);
                if !local {
                    entry.push("sync", Json::from(peer.sync_state()));
                    entry.push("hint_depth", Json::from(peer.hint_depth() as u64));
                }
                entry
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_queue_dedups_and_enforces_both_caps() {
        let hint = |key: u64, len: usize| Hint {
            key,
            fingerprint: 1,
            payload: vec![b'x'; len],
        };
        let mut q = HintQueue::default();
        // Entry cap: four pushes under a cap of 3 drop the oldest.
        for k in 0..4 {
            let dropped = q.push(hint(k, 10), 3, 1000);
            assert_eq!(dropped, u64::from(k == 3));
        }
        assert_eq!(q.hints.len(), 3);
        assert_eq!(q.bytes, 30);
        assert_eq!(q.hints.front().unwrap().key, 1, "oldest dropped first");
        // Dedup: re-queueing a key replaces its hint (moving it to the
        // back) instead of growing the queue.
        assert_eq!(q.push(hint(2, 20), 3, 1000), 0);
        assert_eq!(q.hints.len(), 3);
        assert_eq!(q.bytes, 40);
        assert_eq!(q.hints.back().unwrap().key, 2);
        // Byte cap: one oversized push evicts until it fits.
        assert_eq!(q.push(hint(9, 35), 10, 60), 2);
        assert_eq!(q.hints.len(), 2);
        assert!(q.bytes <= 60);
        // Pop/push-front keep the byte total honest.
        let h = q.pop_adjusting().unwrap();
        let bytes = q.bytes;
        q.push_front_adjusting(h);
        assert_eq!(q.bytes, bytes + 20);
    }
}
