//! The request engine and the two front-ends (TCP listener, stdio).
//!
//! A [`Server`] owns the result cache tiers and the metrics registry;
//! [`Server::handle_line`] turns one request line into one response line.
//! The lookup path is **memory → disk → compute**: a sharded in-memory
//! LRU in front, an optional persistent [`Store`] behind it (attached
//! with [`Server::with_store`]), and the Build–Simplify–Color pipeline
//! only for functions neither tier knows. Disk hits are promoted into
//! memory; computed results (and [`NonConvergence`] failures — the
//! negative cache) are written through to both tiers.
//!
//! The front-ends are thin: `run_io` reads lines from a reader,
//! `run_listener` accepts TCP connections on the shared
//! [`Daemon`] loop and serves each on its own thread. Both stop
//! when a `shutdown` request arrives.
//!
//! ## Hardening
//!
//! Three production concerns live here too (see DESIGN.md §11):
//!
//! * **Deadlines** — every work unit races a cooperative
//!   [`Deadline`] (per-request
//!   `"deadline_ms"`, daemon default [`Server::with_deadline`]); past it
//!   the unit answers `{"err":"deadline"}` instead of wedging a worker.
//! * **Admission control** — a daemon-wide unit cap
//!   ([`Server::with_max_load`]); over it, requests are shed immediately
//!   with `{"err":"overloaded","retry_after_ms":N}`.
//! * **Degraded mode** — persistent-store I/O errors trip the disk tier
//!   out of the serving path after a few consecutive failures; the daemon
//!   keeps answering memory-only and re-probes the store periodically.
//!   The `health` request reports `ok`/`degraded`/`draining`.
//! * **Replication** — in sharded mode every key lives on
//!   [`Server::with_replicas`] peers (the ring's successor list): puts
//!   fan out to all live replicas, gets fail over down the chain (and
//!   read-repair an earlier replica that was up but missing the key),
//!   writes owed to a tripwired peer queue as bounded hinted handoff,
//!   and a peer that revives *empty* is repopulated by an anti-entropy
//!   sweep over a live replica's `scan` pages. Results are
//!   content-addressed and immutable, so replication needs no version
//!   vectors — any replica's answer is the answer. See DESIGN.md §16.
//!
//! [`NonConvergence`]: optimist_regalloc::AllocError::NonConvergence

use crate::cache::{cache_key, text_key, ShardedLru};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::persist::{self, CacheEntry};
use crate::protocol::{BatchItem, BatchPayload, FnResult, Request};
use crate::ring::HashRing;
use crate::stream::StreamOpts;
use crate::{log_info, log_warn};
use optimist_ir::parse_module;
use optimist_regalloc::{default_threads, AllocError, AllocatorConfig, Deadline, WorkerPool};
use optimist_store::daemon::Daemon;
use optimist_store::net::{StoreClient, StoreClientError};
use optimist_store::Store;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default bound on concurrently-executing work units per connection when
/// the server is not configured otherwise (see
/// [`Server::with_max_inflight`]).
pub const DEFAULT_MAX_INFLIGHT: usize = 8;

/// Consecutive store I/O failures before the disk tier trips into
/// memory-only degraded mode.
const DEGRADE_THRESHOLD: u32 = 3;

/// How long a degraded store waits between recovery probes unless
/// [`Server::with_store_probe_interval`] says otherwise.
const DEFAULT_PROBE_INTERVAL: Duration = Duration::from_secs(5);

/// Default read/write timeout on remote store-peer sockets: long enough
/// for a loaded daemon, short enough that a hung one trips the per-peer
/// degraded tripwire instead of pinning request threads.
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_secs(2);

/// How many peers hold each key in sharded mode unless
/// [`Server::with_replicas`] says otherwise. Two replicas survive any
/// single store-daemon death — the fleet's availability target.
pub const DEFAULT_REPLICAS: usize = 2;

/// Default cap on hinted-handoff queue length per tripwired peer.
pub const DEFAULT_HINT_MAX_ENTRIES: usize = 4096;

/// Default cap on hinted-handoff queue payload bytes per tripwired peer.
pub const DEFAULT_HINT_MAX_BYTES: usize = 16 << 20;

/// Reserved content address used by degraded-mode recovery probes. A real
/// key is a 64-bit FNV-1a hash, so colliding with the all-ones sentinel is
/// no likelier than any other single-key collision the cache already
/// tolerates.
const PROBE_KEY: u64 = u64::MAX;

/// How a handled request affects the serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Keep serving.
    Continue,
    /// The client asked the daemon to stop.
    Shutdown,
}

/// The allocation daemon: result cache tiers + metrics + request dispatch.
///
/// One `Server` serves any number of connections concurrently; all state
/// is internally synchronized.
#[derive(Debug)]
pub struct Server {
    cache: ShardedLru<CacheEntry>,
    store: Option<StoreTier>,
    /// Whole-response memo keyed on the *raw request text* (see
    /// [`text_key`]): a byte-identical resubmission skips IR parsing and
    /// per-function canonicalization entirely. Entries hold the
    /// latency-free success response with every function marked cached.
    memo: ShardedLru<TextMemo>,
    metrics: Metrics,
    pool: Arc<WorkerPool>,
    max_inflight: usize,
    /// Daemon-wide unit cap for admission control; 0 = unbounded.
    max_load: usize,
    /// Units currently admitted daemon-wide (the gauge behind `max_load`).
    load: AtomicUsize,
    /// Daemon-default compute budget per work unit; per-request
    /// `"deadline_ms"` overrides it.
    deadline: Option<Duration>,
    /// Stop flag, connection registry, socket timeouts and drain budget,
    /// shared by the NDJSON and HTTP listeners.
    pub(crate) daemon: Daemon,
}

/// The persistent tier plus its degraded-mode tripwires. Three backends
/// share one contract — `get`/`put` keyed records, failures reported as
/// `io::Error` — so the lookup path never cares where the bytes live:
///
/// * **Local** — the embedded [`Store`] log from the single-daemon
///   deployment; this process owns the directory.
/// * **Remote** — one shared `optimist-stored` daemon on the network.
/// * **Sharded** — several daemons, each owning the slice of the key
///   space a consistent-hash [`HashRing`] assigns it.
///
/// Degraded mode is **per peer**: after [`DEGRADE_THRESHOLD`]
/// consecutive failures a peer drops out of the serving path and only
/// periodic sentinel probes touch it until one succeeds. In sharded mode
/// the other peers keep serving their shares — and with `replicas ≥ 2`
/// a dead store daemon costs nothing warm at all: every key it owned
/// still has a live replica down its chain, writes owed to it queue as
/// hinted handoff, and revival (drained hints, or an anti-entropy sweep
/// when it comes back empty) restores it to full membership.
#[derive(Debug)]
struct StoreTier {
    backend: Backend,
    probe_interval: Duration,
    /// Peers per key in sharded mode (clamped to the peer count when
    /// routing); local/remote backends always have exactly one.
    replicas: usize,
    /// Per-peer hinted-handoff caps (entries / payload bytes).
    hint_max_entries: usize,
    hint_max_bytes: usize,
}

/// Where the persistent tier's bytes live (see [`StoreTier`]).
#[derive(Debug)]
enum Backend {
    Local {
        store: Store,
        state: PeerState,
    },
    Remote(RemotePeer),
    Sharded {
        ring: HashRing,
        peers: Vec<RemotePeer>,
    },
}

/// One peer's degraded-mode tripwire (PR 5's design, now per peer).
#[derive(Debug)]
struct PeerState {
    degraded: AtomicBool,
    consecutive_errors: AtomicU32,
    /// Earliest instant the next recovery probe may run (degraded only).
    next_probe: Mutex<Instant>,
}

impl PeerState {
    fn new() -> PeerState {
        PeerState {
            degraded: AtomicBool::new(false),
            consecutive_errors: AtomicU32::new(0),
            next_probe: Mutex::new(Instant::now()),
        }
    }
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
    hints: std::collections::VecDeque<Hint>,
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

    fn len(&self) -> usize {
        self.hints.len()
    }
}

/// One network store peer: its address, its single lazily-dialed
/// connection, its tripwire, its hinted-handoff queue, and its per-peer
/// counters (surfaced under `stats.store.peers`).
#[derive(Debug)]
struct RemotePeer {
    addr: String,
    /// The one blocking connection to this daemon. Dialed on first use,
    /// dropped on transport error, re-dialed by the next call or probe.
    /// The mutex serializes this daemon's requests to the peer — the
    /// same single-channel shape the local log's writer lock imposes.
    conn: Mutex<Option<StoreClient>>,
    timeout: Option<Duration>,
    state: PeerState,
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

impl RemotePeer {
    fn new(addr: String, timeout: Option<Duration>) -> RemotePeer {
        RemotePeer {
            addr,
            conn: Mutex::new(None),
            timeout,
            state: PeerState::new(),
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

    /// Run one operation over the peer's connection, dialing first if
    /// needed. Transport failures and protocol garbage drop the cached
    /// connection so the next call re-dials from scratch; a well-formed
    /// refusal keeps it — the daemon is up, its store said no.
    fn run_op<T>(
        &self,
        op: &mut impl FnMut(&mut StoreClient) -> Result<T, StoreClientError>,
    ) -> Result<T, StoreClientError> {
        let mut slot = self.conn.lock().expect("peer conn lock");
        if slot.is_none() {
            let client = StoreClient::connect(self.addr.as_str())?;
            client.set_timeout(self.timeout)?;
            *slot = Some(client);
        }
        let client = slot.as_mut().expect("connection just established");
        match op(client) {
            Ok(value) => Ok(value),
            Err(e) => {
                if e.is_transport() {
                    *slot = None;
                }
                Err(e)
            }
        }
    }

    /// [`RemotePeer::run_op`] flattened into `io::Result` — the shape
    /// the tripwire consumes. No retry: used for non-idempotent traffic
    /// (puts) and probes, where the caller owns failure policy.
    fn with_conn<T>(
        &self,
        mut op: impl FnMut(&mut StoreClient) -> Result<T, StoreClientError>,
    ) -> io::Result<T> {
        self.run_op(&mut op).map_err(StoreClientError::into_io)
    }

    /// [`RemotePeer::with_conn`] with one immediate reconnect-and-retry
    /// on transport failure, for idempotent verbs (get/scan/ping): a
    /// single dropped connection — an idle-timeout reap, a daemon
    /// restart between requests — costs one extra round trip instead of
    /// a third of the way to degraded mode. The retry is counted per
    /// peer; a refusal (the daemon answered `"ok":false`) is never
    /// retried, it would refuse identically again.
    fn with_conn_retry<T>(
        &self,
        mut op: impl FnMut(&mut StoreClient) -> Result<T, StoreClientError>,
    ) -> io::Result<T> {
        match self.run_op(&mut op) {
            Err(e) if e.is_transport() => {
                self.retries.fetch_add(1, Ordering::Relaxed);
                self.run_op(&mut op).map_err(StoreClientError::into_io)
            }
            other => other.map_err(StoreClientError::into_io),
        }
    }

    /// The queued-hint depth (for stats/health).
    fn hint_depth(&self) -> usize {
        self.hints.lock().expect("hint lock").len()
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
}

/// A borrowed view of the peer a given key routes to — the unit the
/// tripwire, probe, and I/O paths all operate on.
enum PeerRef<'a> {
    Local(&'a Store, &'a PeerState),
    Remote(&'a RemotePeer),
}

impl<'a> PeerRef<'a> {
    fn state(&self) -> &'a PeerState {
        match self {
            PeerRef::Local(_, state) => state,
            PeerRef::Remote(peer) => &peer.state,
        }
    }

    /// The peer's name in logs and health topology.
    fn label(&self) -> &'a str {
        match self {
            PeerRef::Local(..) => "local",
            PeerRef::Remote(peer) => &peer.addr,
        }
    }

    fn try_get(&self, key: u64) -> io::Result<Option<(u64, Vec<u8>)>> {
        match self {
            PeerRef::Local(store, _) => store.try_get(key),
            PeerRef::Remote(peer) => {
                peer.gets.fetch_add(1, Ordering::Relaxed);
                peer.with_conn_retry(|client| client.get(key))
            }
        }
    }

    fn put(&self, key: u64, fingerprint: u64, payload: &[u8]) -> io::Result<()> {
        match self {
            PeerRef::Local(store, _) => store.put(key, fingerprint, payload),
            PeerRef::Remote(peer) => {
                peer.puts.fetch_add(1, Ordering::Relaxed);
                peer.with_conn(|client| client.put(key, fingerprint, payload))
            }
        }
    }

    fn note_error(&self) {
        if let PeerRef::Remote(peer) = self {
            peer.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One recovery round trip: a sentinel put+get exercising the full
    /// write and read path of this peer (not just liveness).
    fn probe(&self) -> bool {
        const PROBE_PAYLOAD: &[u8] = b"optimist degraded-mode probe";
        match self {
            PeerRef::Local(store, _) => store
                .put(PROBE_KEY, 0, PROBE_PAYLOAD)
                .and_then(|()| store.try_get(PROBE_KEY).map(drop))
                .is_ok(),
            PeerRef::Remote(peer) => peer
                .with_conn(|client| {
                    client.put(PROBE_KEY, 0, PROBE_PAYLOAD)?;
                    client.get(PROBE_KEY).map(drop)
                })
                .is_ok(),
        }
    }
}

impl StoreTier {
    /// The peers that hold `key`, owner first: the only peer in
    /// local/remote mode, the ring's successor list in sharded mode.
    /// Every serving daemon computes the same chain, so a key's reads
    /// and writes meet at the same stores in the same order.
    fn replica_chain(&self, key: u64) -> Vec<PeerRef<'_>> {
        match &self.backend {
            Backend::Local { store, state } => vec![PeerRef::Local(store, state)],
            Backend::Remote(peer) => vec![PeerRef::Remote(peer)],
            Backend::Sharded { ring, peers } => ring
                .route_n(key, self.replicas)
                .into_iter()
                .map(|i| PeerRef::Remote(&peers[i]))
                .collect(),
        }
    }

    /// The replication factor actually in effect: `replicas` clamped to
    /// the peer count in sharded mode, 1 everywhere else.
    fn effective_replicas(&self) -> usize {
        match &self.backend {
            Backend::Sharded { peers, .. } => self.replicas.min(peers.len()).max(1),
            _ => 1,
        }
    }

    /// Every peer, for health topology and degraded-mode re-probes.
    fn peers(&self) -> Vec<PeerRef<'_>> {
        match &self.backend {
            Backend::Local { store, state } => vec![PeerRef::Local(store, state)],
            Backend::Remote(peer) => vec![PeerRef::Remote(peer)],
            Backend::Sharded { peers, .. } => peers.iter().map(PeerRef::Remote).collect(),
        }
    }

    /// True if any peer is tripped out of the serving path.
    fn degraded(&self) -> bool {
        self.peers()
            .iter()
            .any(|peer| peer.state().degraded.load(Ordering::Relaxed))
    }
}

/// One memoized response: the prebuilt reply and how many functions it
/// answers (so a memo hit keeps the per-function counters honest).
#[derive(Debug)]
struct TextMemo {
    response: Json,
    funcs: u64,
}

impl Server {
    /// A server whose in-memory cache holds `cache_capacity` function
    /// results across `shards` locks, with no persistent tier. The
    /// allocation worker pool is sized to the machine
    /// ([`default_threads`]); see [`Server::with_pool_threads`].
    pub fn new(cache_capacity: usize, shards: usize) -> Self {
        Server {
            cache: ShardedLru::new(cache_capacity, shards),
            store: None,
            // Memo entries are whole modules, not functions, so a fraction
            // of the function-cache budget covers a working set of them.
            memo: ShardedLru::new(cache_capacity.div_ceil(4).max(16), shards),
            metrics: Metrics::default(),
            pool: Arc::new(WorkerPool::new(default_threads())),
            max_inflight: DEFAULT_MAX_INFLIGHT,
            max_load: 0,
            load: AtomicUsize::new(0),
            deadline: None,
            daemon: Daemon::default(),
        }
    }

    /// Attach a persistent [`Store`] as the second cache tier. Lookups
    /// that miss the in-memory LRU consult the store before computing;
    /// computed results are written through to it.
    pub fn with_store(mut self, store: Store) -> Self {
        self.store = Some(StoreTier {
            backend: Backend::Local {
                store,
                state: PeerState::new(),
            },
            probe_interval: DEFAULT_PROBE_INTERVAL,
            replicas: DEFAULT_REPLICAS,
            hint_max_entries: DEFAULT_HINT_MAX_ENTRIES,
            hint_max_bytes: DEFAULT_HINT_MAX_BYTES,
        });
        self
    }

    /// Attach one or more `optimist-stored` daemons as the second cache
    /// tier instead of an embedded log. One address is a plain remote
    /// store; several are sharded by consistent hash ([`HashRing`]), so
    /// every serving daemon sends a given key to the same store peer.
    /// Connections are dialed lazily and round trips are bounded by
    /// [`DEFAULT_PEER_TIMEOUT`] (see [`Server::with_store_peer_timeout`]).
    pub fn with_remote_store<S: AsRef<str>>(mut self, addrs: &[S]) -> Self {
        assert!(
            !addrs.is_empty(),
            "remote store tier needs at least one peer"
        );
        let timeout = Some(DEFAULT_PEER_TIMEOUT);
        let backend = if addrs.len() == 1 {
            Backend::Remote(RemotePeer::new(addrs[0].as_ref().to_string(), timeout))
        } else {
            Backend::Sharded {
                ring: HashRing::new(addrs),
                peers: addrs
                    .iter()
                    .map(|a| RemotePeer::new(a.as_ref().to_string(), timeout))
                    .collect(),
            }
        };
        self.store = Some(StoreTier {
            backend,
            probe_interval: DEFAULT_PROBE_INTERVAL,
            replicas: DEFAULT_REPLICAS,
            hint_max_entries: DEFAULT_HINT_MAX_ENTRIES,
            hint_max_bytes: DEFAULT_HINT_MAX_BYTES,
        });
        self
    }

    /// How many store peers hold each key in sharded mode (default
    /// [`DEFAULT_REPLICAS`], clamped to at least 1 and at most the peer
    /// count when routing). A deployment knob, not a request field: the
    /// result fingerprint never sees it, so responses are byte-identical
    /// across replication factors. No effect on local or single-remote
    /// tiers, which always have exactly one copy.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        if let Some(tier) = &mut self.store {
            tier.replicas = replicas.max(1);
        }
        self
    }

    /// Bound each tripwired peer's hinted-handoff queue (entries and
    /// payload bytes). Overflow discards oldest-first and counts the
    /// drops; the anti-entropy sweep repairs whatever the caps lost.
    pub fn with_hint_limits(mut self, max_entries: usize, max_bytes: usize) -> Self {
        if let Some(tier) = &mut self.store {
            tier.hint_max_entries = max_entries.max(1);
            tier.hint_max_bytes = max_bytes.max(1);
        }
        self
    }

    /// Bound each store-peer round trip. A peer that stops answering
    /// fails fast into the per-peer tripwire instead of wedging request
    /// threads; `None` leaves the sockets blocking. No effect on a local
    /// store tier.
    pub fn with_store_peer_timeout(mut self, timeout: Option<Duration>) -> Self {
        if let Some(tier) = &mut self.store {
            match &mut tier.backend {
                Backend::Local { .. } => {}
                Backend::Remote(peer) => peer.timeout = timeout,
                Backend::Sharded { peers, .. } => {
                    for peer in peers {
                        peer.timeout = timeout;
                    }
                }
            }
        }
        self
    }

    /// Change how often a degraded store is re-probed for recovery.
    /// Tests shrink this to exercise the recovery path without waiting
    /// out the production interval.
    pub fn with_store_probe_interval(mut self, interval: Duration) -> Self {
        if let Some(tier) = &mut self.store {
            tier.probe_interval = interval;
        }
        self
    }

    /// Set the daemon-default compute budget per work unit. A request's
    /// own `"deadline_ms"` field overrides it; `None` (the default) means
    /// unbounded.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Cap the number of work units admitted daemon-wide. Past the cap,
    /// requests are refused immediately with
    /// `{"err":"overloaded","retry_after_ms":N}` instead of queueing —
    /// the client retries with backoff ([`crate::client::RetryPolicy`]);
    /// requests are content-addressed and idempotent, so retrying is
    /// always safe. `0` (the default) means unbounded.
    pub fn with_max_load(mut self, max_load: usize) -> Self {
        self.max_load = max_load;
        self
    }

    /// Apply read/write timeouts to accepted TCP connections. A
    /// connection whose client stops sending (read) or stops consuming
    /// responses (write) past the timeout is reaped — counted in
    /// [`Metrics::idle_reaps`] — instead of holding its thread and window
    /// forever. `None` (the default) leaves the socket blocking
    /// indefinitely.
    pub fn with_socket_timeouts(mut self, read: Option<Duration>, write: Option<Duration>) -> Self {
        self.daemon = self.daemon.with_socket_timeouts(read, write);
        self
    }

    /// How long [`Server::run_listener`] waits for live connections to
    /// drain after shutdown is requested, before force-closing them.
    pub fn with_drain_timeout(mut self, timeout: Duration) -> Self {
        self.daemon = self.daemon.with_drain_timeout(timeout);
        self
    }

    /// Replace the allocation worker pool with one of `threads` workers.
    /// The pool is shared by every connection and request for the
    /// server's lifetime — per-request `config.threads` is ignored on the
    /// serving path.
    pub fn with_pool_threads(mut self, threads: NonZeroUsize) -> Self {
        self.pool = Arc::new(WorkerPool::new(threads));
        self
    }

    /// Bound the number of work units (plain `alloc` requests and batch
    /// items) a single connection may have executing concurrently. The
    /// window also bounds memory: a unit's slot is returned only once its
    /// response bytes are written, so a client that stops reading stops
    /// being served new compute once its window fills.
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight.max(1);
        self
    }

    /// The per-connection in-flight window size.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// The shared allocation worker pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The in-memory result cache.
    pub fn cache(&self) -> &ShardedLru<CacheEntry> {
        &self.cache
    }

    /// The persistent store when this daemon embeds one (local tier
    /// only); a remote or sharded tier lives in other processes and has
    /// no `Store` to hand out.
    pub fn store(&self) -> Option<&Store> {
        match self.store.as_ref().map(|tier| &tier.backend) {
            Some(Backend::Local { store, .. }) => Some(store),
            _ => None,
        }
    }

    /// True while any store peer is tripped out of the serving path.
    pub fn store_degraded(&self) -> bool {
        self.store.as_ref().is_some_and(StoreTier::degraded)
    }

    /// Ask the serving loops to stop: `run_listener` finishes its drain,
    /// `run_io` stops at its next line. This is the programmatic face of
    /// the `shutdown` request — the binary's SIGTERM handler calls it.
    pub fn request_shutdown(&self) {
        self.daemon.request_shutdown();
    }

    /// True once shutdown has been requested (drain in progress).
    pub fn draining(&self) -> bool {
        self.daemon.draining()
    }

    /// The absolute [`Deadline`] for a work unit admitted now:
    /// per-request `deadline_ms` if present, else the daemon default,
    /// else unbounded.
    pub(crate) fn deadline_for(&self, deadline_ms: Option<u64>) -> Deadline {
        match deadline_ms.map(Duration::from_millis).or(self.deadline) {
            Some(budget) => Deadline::after(budget),
            None => Deadline::none(),
        }
    }

    /// Try to admit one work unit under the daemon-wide load cap. On
    /// refusal the caller answers [`Server::overloaded_response`]; on
    /// success it must call [`Server::release_unit`] when the unit's
    /// response is built.
    pub(crate) fn try_admit_unit(&self) -> bool {
        if self.max_load > 0 {
            let admitted = self
                .load
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < self.max_load).then_some(n + 1)
                })
                .is_ok();
            if !admitted {
                self.metrics.shed.inc();
                return false;
            }
        } else {
            self.load.fetch_add(1, Ordering::SeqCst);
        }
        self.metrics.load.raise(1);
        true
    }

    /// Return the slot taken by [`Server::try_admit_unit`].
    pub(crate) fn release_unit(&self) {
        self.load.fetch_sub(1, Ordering::SeqCst);
        self.metrics.load.lower(1);
    }

    /// The shed response: refused now, retry later. `retry_after_ms`
    /// scales with the worker pool's backlog so a deep queue pushes
    /// clients further out instead of having them hammer a busy daemon.
    pub(crate) fn overloaded_response(&self) -> Json {
        let retry_after_ms = ((self.pool.pending() as u64 + 1) * 20).clamp(10, 2_000);
        Json::obj([
            ("ok", Json::from(false)),
            ("err", Json::from("overloaded")),
            ("error", Json::from("overloaded: admission limit reached")),
            ("retry_after_ms", Json::from(retry_after_ms)),
        ])
    }

    /// The `health` response: serving state plus the counters an operator
    /// (or an orchestrator's probe) needs to decide whether to route here.
    pub fn health_json(&self) -> Json {
        // A degraded peer re-probes on store traffic, but a memo-warm
        // daemon may not touch the store for minutes — so a health poll
        // counts as traffic too. The probe gate still rate-limits to one
        // sentinel round trip per peer per probe interval.
        if let Some(tier) = &self.store {
            if !self.draining() {
                for peer in tier.peers() {
                    if peer.state().degraded.load(Ordering::SeqCst) {
                        self.peer_available(tier, &peer);
                    }
                }
            }
        }
        let state = if self.draining() {
            "draining"
        } else if self.store_degraded() {
            "degraded"
        } else {
            "ok"
        };
        let m = &self.metrics;
        let mut health = Json::obj([
            ("state", Json::from(state)),
            ("load", Json::from(m.load.get())),
            ("inflight", Json::from(m.inflight.get())),
            ("shed", Json::from(m.shed.get())),
            ("deadline_exceeded", Json::from(m.deadline_exceeded.get())),
            (
                "store_degraded",
                Json::from(u64::from(self.store_degraded())),
            ),
            ("store_put_errors", Json::from(m.store_put_errors.get())),
            ("store_get_errors", Json::from(m.store_get_errors.get())),
            ("store_probes", Json::from(m.store_probes.get())),
            ("store_recoveries", Json::from(m.store_recoveries.get())),
        ]);
        health.push("store", self.store_topology_json());
        Json::obj([("ok", Json::from(true)), ("health", health)])
    }

    /// The store-tier topology an operator sees in `health`: which mode
    /// the tier runs in, the consistent-hash ring size, and each peer's
    /// address and tripwire state.
    fn store_topology_json(&self) -> Json {
        let Some(tier) = &self.store else {
            return Json::obj([("mode", Json::from("none"))]);
        };
        let mode = match &tier.backend {
            Backend::Local { .. } => "local",
            Backend::Remote(_) => "remote",
            Backend::Sharded { .. } => "sharded",
        };
        let mut obj = Json::obj([("mode", Json::from(mode))]);
        if let Backend::Sharded { ring, .. } = &tier.backend {
            obj.push("ring_points", Json::from(ring.point_count() as u64));
            obj.push("replicas", Json::from(tier.effective_replicas() as u64));
        }
        let peers: Vec<Json> = tier
            .peers()
            .iter()
            .map(|peer| {
                let state = if peer.state().degraded.load(Ordering::Relaxed) {
                    "degraded"
                } else {
                    "ok"
                };
                let mut entry = Json::obj([
                    ("addr", Json::from(peer.label())),
                    ("state", Json::from(state)),
                ]);
                if let PeerRef::Remote(remote) = peer {
                    entry.push("sync", Json::from(remote.sync_state()));
                    entry.push("hint_depth", Json::from(remote.hint_depth() as u64));
                }
                entry
            })
            .collect();
        obj.push("peers", Json::Arr(peers));
        obj
    }

    /// One store I/O failure on `peer`: count it toward that peer's
    /// degraded-mode tripwire and trip if the threshold is reached.
    fn note_peer_error(&self, tier: &StoreTier, peer: &PeerRef<'_>) {
        peer.note_error();
        let state = peer.state();
        let run = state.consecutive_errors.fetch_add(1, Ordering::SeqCst) + 1;
        if run >= DEGRADE_THRESHOLD && !state.degraded.swap(true, Ordering::SeqCst) {
            self.metrics.store_degraded.raise(1);
            *state.next_probe.lock().expect("probe lock") = Instant::now() + tier.probe_interval;
            log_warn!(
                "store[{}]: {run} consecutive I/O errors; peer leaves the serving path \
                 (re-probing every {:?})",
                peer.label(),
                tier.probe_interval
            );
        }
    }

    /// Whether `peer` may be used right now. A healthy peer always may; a
    /// degraded one only probes — at most once per probe interval, a
    /// sentinel put+get — and recovers if the probe succeeds.
    fn peer_available(&self, tier: &StoreTier, peer: &PeerRef<'_>) -> bool {
        let state = peer.state();
        if !state.degraded.load(Ordering::SeqCst) {
            return true;
        }
        {
            let mut next = state.next_probe.lock().expect("probe lock");
            if Instant::now() < *next {
                return false;
            }
            *next = Instant::now() + tier.probe_interval;
        }
        self.metrics.store_probes.inc();
        let recovered = peer.probe();
        if recovered {
            state.consecutive_errors.store(0, Ordering::SeqCst);
            state.degraded.store(false, Ordering::SeqCst);
            self.metrics.store_degraded.lower(1);
            self.metrics.store_recoveries.inc();
            log_info!(
                "store[{}]: recovery probe succeeded; peer rejoins the serving path",
                peer.label()
            );
            if let PeerRef::Remote(remote) = peer {
                // Drain first: a peer that revived with its log intact
                // (or is refilled by its own hints) then fails the
                // resync emptiness gate, suppressing a pointless sweep.
                self.drain_hints(tier, remote);
                self.resync_peer(tier, remote);
            }
        }
        recovered
    }

    /// Read `key` from its replica chain, owner first, feeding each
    /// peer's degraded-mode tripwire. A hit past the owner counts as a
    /// failover and **read-repairs** every earlier replica that was up
    /// but answered a clean miss (a recovered owner gets its warmth back
    /// on the first read, not only via the anti-entropy sweep). Degraded
    /// or failing reads down the whole chain are served as misses — the
    /// caller falls through to compute.
    fn store_get(&self, key: u64) -> Option<(u64, Vec<u8>)> {
        let tier = self.store.as_ref()?;
        // Earlier replicas that answered a clean miss: read-repair
        // targets if a later replica hits. Peers that were tripwired or
        // errored don't get repaired inline (the write would fail too) —
        // hinted handoff and the anti-entropy sweep cover them.
        let mut missed: Vec<PeerRef<'_>> = Vec::new();
        let mut passed_over = false;
        for peer in tier.replica_chain(key) {
            if !self.peer_available(tier, &peer) {
                passed_over = true;
                continue;
            }
            match peer.try_get(key) {
                Ok(Some(found)) => {
                    peer.state().consecutive_errors.store(0, Ordering::SeqCst);
                    if passed_over || !missed.is_empty() {
                        self.metrics.store_failovers.inc();
                        if let PeerRef::Remote(remote) = &peer {
                            remote.failovers.fetch_add(1, Ordering::Relaxed);
                        }
                        self.read_repair(tier, key, &found, &missed);
                    }
                    return Some(found);
                }
                Ok(None) => {
                    peer.state().consecutive_errors.store(0, Ordering::SeqCst);
                    missed.push(peer);
                }
                Err(e) => {
                    self.metrics.store_get_errors.inc();
                    self.metrics.store_errors.inc();
                    log_warn!("store[{}]: get {key:016x} failed: {e}", peer.label());
                    self.note_peer_error(tier, &peer);
                    passed_over = true;
                }
            }
        }
        None
    }

    /// Copy a value a later replica served back to the earlier replicas
    /// that missed it. Values are immutable, so repair is a plain put.
    fn read_repair(
        &self,
        tier: &StoreTier,
        key: u64,
        found: &(u64, Vec<u8>),
        missed: &[PeerRef<'_>],
    ) {
        let (fingerprint, payload) = found;
        for peer in missed {
            match peer.put(key, *fingerprint, payload) {
                Ok(()) => {
                    peer.state().consecutive_errors.store(0, Ordering::SeqCst);
                    self.metrics.store_read_repairs.inc();
                }
                Err(e) => {
                    self.metrics.store_put_errors.inc();
                    self.metrics.store_errors.inc();
                    log_warn!(
                        "store[{}]: read-repair {key:016x} failed: {e}",
                        peer.label()
                    );
                    self.note_peer_error(tier, peer);
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
    fn store_put(&self, key: u64, fingerprint: u64, payload: &[u8]) {
        let Some(tier) = self.store.as_ref() else {
            return;
        };
        for peer in tier.replica_chain(key) {
            if !self.peer_available(tier, &peer) {
                self.queue_hint(tier, &peer, key, fingerprint, payload);
                continue;
            }
            match peer.put(key, fingerprint, payload) {
                Ok(()) => peer.state().consecutive_errors.store(0, Ordering::SeqCst),
                Err(e) => {
                    self.metrics.store_put_errors.inc();
                    self.metrics.store_errors.inc();
                    log_warn!("store[{}]: put {key:016x} failed: {e}", peer.label());
                    self.note_peer_error(tier, &peer);
                    self.queue_hint(tier, &peer, key, fingerprint, payload);
                }
            }
        }
    }

    /// Park a write owed to an unavailable replica in its hint queue
    /// (bounded by the tier's caps; overflow drops oldest-first and is
    /// counted). Local peers have no queue — the local backend has no
    /// other replica to drain from, so degraded-mode misses there are
    /// simply recomputed.
    fn queue_hint(
        &self,
        tier: &StoreTier,
        peer: &PeerRef<'_>,
        key: u64,
        fingerprint: u64,
        payload: &[u8],
    ) {
        let PeerRef::Remote(remote) = peer else {
            return;
        };
        let dropped = remote.hints.lock().expect("hint lock").push(
            Hint {
                key,
                fingerprint,
                payload: payload.to_vec(),
            },
            tier.hint_max_entries,
            tier.hint_max_bytes,
        );
        remote.hints_queued.fetch_add(1, Ordering::Relaxed);
        self.metrics.store_hints_queued.inc();
        if dropped > 0 {
            remote.hints_dropped.fetch_add(dropped, Ordering::Relaxed);
            self.metrics.store_hints_dropped.add(dropped);
        }
    }

    /// Deliver a freshly-recovered peer the writes parked for it. Hints
    /// pop before they send, so each retained hint is delivered at most
    /// once; a delivery failure re-parks the hint and stops the drain
    /// (the tripwire decides when to try again). Values are immutable,
    /// so even a hint that *was* sent but whose ack was lost would
    /// supersede identical bytes.
    fn drain_hints(&self, tier: &StoreTier, remote: &RemotePeer) {
        loop {
            let Some(hint) = remote.hints.lock().expect("hint lock").pop_adjusting() else {
                return;
            };
            remote.puts.fetch_add(1, Ordering::Relaxed);
            let sent =
                remote.with_conn(|client| client.put(hint.key, hint.fingerprint, &hint.payload));
            match sent {
                Ok(()) => {
                    remote.hints_drained.fetch_add(1, Ordering::Relaxed);
                    self.metrics.store_hints_drained.inc();
                }
                Err(e) => {
                    log_warn!(
                        "store[{}]: hint drain {:016x} failed: {e}",
                        remote.addr,
                        hint.key
                    );
                    remote
                        .hints
                        .lock()
                        .expect("hint lock")
                        .push_front_adjusting(hint);
                    self.metrics.store_put_errors.inc();
                    self.metrics.store_errors.inc();
                    self.note_peer_error(tier, &PeerRef::Remote(remote));
                    return;
                }
            }
        }
    }

    /// Repopulate a replica that revived **empty** (disk loss) by
    /// walking every live peer's key space via paginated `scan` and
    /// copying over the keys whose replica chain includes the revived
    /// peer. Gated on sharded mode with replication (otherwise there is
    /// no second copy to sweep from) and on the revived store actually
    /// being empty — a peer that came back with its log intact (or was
    /// just refilled by its hint drain) needs nothing. Runs
    /// synchronously in the recovery path; fleet peers are loopback or
    /// LAN, and the sweep is one-time per revival.
    fn resync_peer(&self, tier: &StoreTier, revived: &RemotePeer) {
        let Backend::Sharded { ring, peers } = &tier.backend else {
            return;
        };
        let replicas = tier.effective_replicas();
        if replicas < 2 {
            return;
        }
        let Some(revived_idx) = peers.iter().position(|p| p.addr == revived.addr) else {
            return;
        };
        // Emptiness gate: the recovery probe already wrote its sentinel,
        // so a store holding only that (or nothing) is "empty".
        match revived.with_conn_retry(|client| client.scan(None, Some(2))) {
            Ok(page) if page.total <= 1 => {}
            _ => return,
        }
        revived.resyncing.store(true, Ordering::SeqCst);
        self.metrics.store_resyncs.inc();
        let mut copied = 0u64;
        let mut seen = std::collections::HashSet::new();
        'sweep: for (idx, source) in peers.iter().enumerate() {
            if idx == revived_idx || source.state.degraded.load(Ordering::SeqCst) {
                continue;
            }
            let mut cursor = None;
            loop {
                let page = match source.with_conn_retry(|c| c.scan(cursor, None)) {
                    Ok(page) => page,
                    Err(e) => {
                        log_warn!("store[{}]: resync scan failed: {e}", source.addr);
                        self.note_peer_error(tier, &PeerRef::Remote(source));
                        break;
                    }
                };
                cursor = page.keys.last().copied();
                for key in page.keys {
                    if key == PROBE_KEY
                        || !seen.insert(key)
                        || !ring.route_n(key, replicas).contains(&revived_idx)
                    {
                        continue;
                    }
                    source.gets.fetch_add(1, Ordering::Relaxed);
                    let found = match source.with_conn_retry(|c| c.get(key)) {
                        Ok(found) => found,
                        Err(e) => {
                            log_warn!("store[{}]: resync get {key:016x} failed: {e}", source.addr);
                            self.note_peer_error(tier, &PeerRef::Remote(source));
                            break;
                        }
                    };
                    let Some((fp, payload)) = found else {
                        continue; // evicted between scan and get
                    };
                    revived.puts.fetch_add(1, Ordering::Relaxed);
                    if let Err(e) = revived.with_conn(|c| c.put(key, fp, &payload)) {
                        log_warn!(
                            "store[{}]: resync put {key:016x} failed: {e}; sweep aborted",
                            revived.addr
                        );
                        self.note_peer_error(tier, &PeerRef::Remote(revived));
                        break 'sweep;
                    }
                    copied += 1;
                }
                if page.done {
                    break;
                }
            }
        }
        self.metrics.store_resync_keys.add(copied);
        revived.resyncing.store(false, Ordering::SeqCst);
        log_info!(
            "store[{}]: anti-entropy sweep restored {copied} keys",
            revived.addr
        );
    }

    /// Handle one request line, returning the response text (no trailing
    /// newline) and whether the server should keep running. A `batch`
    /// request returns multiple newline-separated response lines — the
    /// item records **in submission order** (this is the serial mode; the
    /// streaming front-end answers out of order) followed by the `done`
    /// record.
    pub fn handle_line(&self, line: &str) -> (String, Disposition) {
        self.metrics.requests.inc();
        let response = match Request::parse(line) {
            Err(e) => {
                self.metrics.parse_errors.inc();
                return (
                    error_response(&e.to_string()).to_string(),
                    Disposition::Continue,
                );
            }
            Ok(req) => req,
        };
        match response {
            Request::Ping => (
                Json::obj([("ok", Json::from(true)), ("pong", Json::from(true))]).to_string(),
                Disposition::Continue,
            ),
            Request::Stats => {
                let mut obj = Json::obj([("ok", Json::from(true))]);
                obj.push("stats", self.stats_json());
                (obj.to_string(), Disposition::Continue)
            }
            Request::Health => (self.health_json().to_string(), Disposition::Continue),
            Request::Shutdown => {
                self.request_shutdown();
                (
                    Json::obj([("ok", Json::from(true)), ("shutdown", Json::from(true))])
                        .to_string(),
                    Disposition::Shutdown,
                )
            }
            Request::Alloc {
                ir,
                config,
                deadline_ms,
            } => {
                if !self.try_admit_unit() {
                    return (
                        self.overloaded_response().to_string(),
                        Disposition::Continue,
                    );
                }
                let deadline = self.deadline_for(deadline_ms);
                let resp = self.alloc_response(&ir, &config, true, &deadline);
                self.release_unit();
                (resp.to_string(), Disposition::Continue)
            }
            Request::Batch {
                items,
                config,
                deadline_ms,
            } => {
                let started = Instant::now();
                self.metrics.batch_requests.inc();
                // Serial mode admits the whole batch as one unit: items
                // run one at a time here, so the daemon-wide load the
                // batch adds is one.
                if !self.try_admit_unit() {
                    return (
                        self.overloaded_response().to_string(),
                        Disposition::Continue,
                    );
                }
                // One absolute deadline for the whole batch; every item
                // races it.
                let deadline = self.deadline_for(deadline_ms);
                let mut lines = Vec::with_capacity(items.len() + 1);
                let mut errors = 0usize;
                for item in &items {
                    self.metrics.batch_items.inc();
                    let record = self.item_response(item, &config, &deadline);
                    if record.get("ok").and_then(Json::as_bool) != Some(true) {
                        errors += 1;
                    }
                    lines.push(record.to_string());
                }
                self.release_unit();
                lines.push(done_record(items.len(), errors, started.elapsed()).to_string());
                (lines.join("\n"), Disposition::Continue)
            }
        }
    }

    /// The metrics registry plus cache geometry (and, when a persistent
    /// store is attached, its health), as dumped by the `stats` request
    /// and the shutdown hook.
    pub fn stats_json(&self) -> Json {
        let mut stats = self.metrics.to_json();
        stats.push(
            "cache_entries",
            Json::obj([
                ("len", Json::from(self.cache.len())),
                ("capacity", Json::from(self.cache.capacity())),
                ("shards", Json::from(self.cache.num_shards())),
            ]),
        );
        // Intra-function parallelism counters. These live in a process-wide
        // registry rather than AllocStats because they depend on the thread
        // count: putting them in per-function results would break the cache's
        // byte-for-byte response identity across graph_threads settings.
        let par = optimist_regalloc::par_stats();
        stats.push(
            "par",
            Json::obj([
                ("parallel_builds", Json::from(par.parallel_builds)),
                ("shards_built", Json::from(par.shards_built)),
                ("shard_build_us", Json::from(par.shard_build_nanos / 1_000)),
                ("parallel_selects", Json::from(par.parallel_selects)),
                ("speculation_rounds", Json::from(par.speculation_rounds)),
                ("conflict_nodes", Json::from(par.conflict_nodes)),
            ]),
        );
        if let Some(tier) = &self.store {
            let mut store = Json::obj([
                ("hits", Json::from(self.metrics.store_hits.get())),
                ("misses", Json::from(self.metrics.store_misses.get())),
                ("errors", Json::from(self.metrics.store_errors.get())),
            ]);
            match &tier.backend {
                Backend::Local { store: log, state } => {
                    let snap = log.snapshot();
                    store.push("entries", Json::from(snap.entries as u64));
                    store.push("file_bytes", Json::from(snap.file_bytes));
                    store.push("live_bytes", Json::from(snap.live_bytes));
                    store.push("dead_bytes", Json::from(snap.dead_bytes));
                    store.push("recovered_entries", Json::from(snap.recovered_entries));
                    store.push("dropped_corrupt", Json::from(snap.dropped_corrupt));
                    store.push("dropped_torn", Json::from(snap.dropped_torn));
                    store.push("dropped_stale", Json::from(snap.dropped_stale));
                    store.push("superseded", Json::from(snap.superseded));
                    store.push("evicted", Json::from(snap.evicted));
                    store.push("compactions", Json::from(snap.compactions));
                    store.push("compaction_stalls", Json::from(snap.compaction_stalls));
                    store.push("last_compaction_us", Json::from(snap.last_compaction_us));
                    store.push("read_errors", Json::from(snap.read_errors));
                    store.push("write_errors", Json::from(snap.write_errors));
                    store.push("removed_tmp", Json::from(snap.removed_tmp));
                    store.push(
                        "degraded",
                        Json::from(state.degraded.load(Ordering::Relaxed)),
                    );
                }
                Backend::Remote(_) | Backend::Sharded { .. } => {
                    let mode = match &tier.backend {
                        Backend::Remote(_) => "remote",
                        _ => "sharded",
                    };
                    store.push("mode", Json::from(mode));
                    store.push("replicas", Json::from(tier.effective_replicas() as u64));
                    let peers: Vec<Json> = tier
                        .peers()
                        .iter()
                        .map(|peer| {
                            let PeerRef::Remote(remote) = peer else {
                                unreachable!("remote tiers hold remote peers");
                            };
                            Json::obj([
                                ("addr", Json::from(remote.addr.as_str())),
                                ("gets", Json::from(remote.gets.load(Ordering::Relaxed))),
                                ("puts", Json::from(remote.puts.load(Ordering::Relaxed))),
                                ("errors", Json::from(remote.errors.load(Ordering::Relaxed))),
                                (
                                    "degraded",
                                    Json::from(remote.state.degraded.load(Ordering::Relaxed)),
                                ),
                                (
                                    "retries",
                                    Json::from(remote.retries.load(Ordering::Relaxed)),
                                ),
                                (
                                    "failovers",
                                    Json::from(remote.failovers.load(Ordering::Relaxed)),
                                ),
                                (
                                    "hints",
                                    Json::obj([
                                        (
                                            "queued",
                                            Json::from(remote.hints_queued.load(Ordering::Relaxed)),
                                        ),
                                        (
                                            "dropped",
                                            Json::from(
                                                remote.hints_dropped.load(Ordering::Relaxed),
                                            ),
                                        ),
                                        (
                                            "drained",
                                            Json::from(
                                                remote.hints_drained.load(Ordering::Relaxed),
                                            ),
                                        ),
                                        ("depth", Json::from(remote.hint_depth() as u64)),
                                    ]),
                                ),
                                ("sync", Json::from(remote.sync_state())),
                            ])
                        })
                        .collect();
                    store.push("peers", Json::Arr(peers));
                }
            }
            store.push("read_latency", self.metrics.store_read_latency.to_json());
            stats.push("store", store);
        }
        stats
    }

    /// Look a key up in the persistent tier, decoding and promoting a hit
    /// into the in-memory cache. Anything short of a decodable entry with
    /// the expected fingerprint is a miss (and, where it indicates damage,
    /// a `store_errors` tick) — corrupt data is never served.
    fn store_lookup(&self, key: u64, fingerprint: u64) -> Option<Arc<CacheEntry>> {
        self.store.as_ref()?;
        let read_started = Instant::now();
        let found = self.store_get(key);
        self.metrics
            .store_read_latency
            .record(read_started.elapsed());
        let entry = match found {
            Some((fp, payload)) if fp == fingerprint => {
                let decoded = std::str::from_utf8(&payload)
                    .ok()
                    .and_then(persist::decode_entry);
                if decoded.is_none() {
                    self.metrics.store_errors.inc();
                }
                decoded
            }
            // Same content address written under a different allocator
            // fingerprint: a key collision across configs, not damage —
            // but not servable either.
            Some(_) => None,
            None => None,
        };
        match entry {
            Some(e) => {
                self.metrics.store_hits.inc();
                let entry = Arc::new(e);
                if self.cache.insert(key, Arc::clone(&entry)) {
                    self.metrics.cache_evictions.inc();
                }
                Some(entry)
            }
            None => {
                self.metrics.store_misses.inc();
                None
            }
        }
    }

    /// Count a negative hit and build the error object a cached
    /// non-convergence produces: the same message a live run would
    /// report, plus `"cached":true` so callers can tell the fast-fail
    /// from a fresh failure.
    fn negative_fail(&self, name: &str, max_passes: usize) -> Json {
        self.metrics.negative_hits.inc();
        let err = AllocError::NonConvergence {
            function: name.to_string(),
            passes: max_passes,
        };
        Json::obj([
            ("name", Json::from(name)),
            ("error", Json::from(err.to_string())),
            ("cached", Json::from(true)),
        ])
    }

    /// Insert a computed entry into the in-memory cache and write it
    /// through to the persistent tier (when attached). Write failures are
    /// counted, logged, and strike toward degraded mode
    /// ([`Server::store_put`]) — never raised: the response already holds
    /// the result.
    fn insert_both_tiers(&self, key: u64, fingerprint: u64, entry: &Arc<CacheEntry>) {
        if self.cache.insert(key, Arc::clone(entry)) {
            self.metrics.cache_evictions.inc();
        }
        if self.store.is_some() {
            let payload = persist::encode_entry(entry);
            self.store_put(key, fingerprint, payload.as_bytes());
        }
    }

    /// Answer one IR payload under `config`: the engine behind both the
    /// plain `alloc` request and IR batch items. Batch item records omit
    /// `latency_us` (`include_latency = false`) so a batch answered twice
    /// is byte-identical — the guarantee the stream tests lean on.
    ///
    /// Cache and memo hits never race `deadline` (they are effectively
    /// free); only cold functions do, inside the allocator's
    /// phase-boundary checks. A function that loses the race answers
    /// per-function `"error"` text plus a top-level `"err":"deadline"`
    /// marker, and is **never** negatively cached — the same function
    /// under a laxer deadline must still compute.
    pub(crate) fn alloc_response(
        &self,
        ir: &str,
        config: &AllocatorConfig,
        include_latency: bool,
        deadline: &Deadline,
    ) -> Json {
        let started = Instant::now();
        self.metrics.alloc_requests.inc();

        // Fast path: the exact request bytes were answered before under
        // this configuration and bound. Serve the memoized response —
        // no IR parse, no canonicalization, one text hash.
        let memo_key = text_key(ir, config);
        if let Some(memo) = self.memo.get(memo_key) {
            self.metrics.memo_hits.inc();
            self.metrics.cache_hits.add(memo.funcs);
            let strat = self.metrics.strategies.of(config.strategy);
            strat.requests.add(memo.funcs);
            strat.hits.add(memo.funcs);
            self.metrics.functions.add(memo.funcs);
            let mut resp = memo.response.clone();
            let latency = started.elapsed();
            self.metrics.request_latency.record(latency);
            if include_latency {
                resp.push(
                    "latency_us",
                    Json::from(latency.as_micros().min(u128::from(u64::MAX)) as u64),
                );
            }
            return resp;
        }

        let module = match parse_module(ir) {
            Ok(m) => m,
            Err(e) => {
                self.metrics.parse_errors.inc();
                return error_response(&format!("bad IR: {e}"));
            }
        };

        // Split the module into cache hits (either tier), remembered
        // failures, and functions that must run. The fingerprint excludes
        // `max_passes`, so both entry kinds answer bound-sensitive
        // questions here: a positive entry that needed `p` passes serves
        // only requests with `max_passes ≥ p` (and *proves* failure for
        // tighter bounds); a negative entry fails fast only for bounds no
        // larger than the one it recorded.
        let fingerprint = config.fingerprint();
        let max_passes = config.max_passes;
        let funcs = module.functions();
        let mut entries: Vec<Option<(Arc<CacheEntry>, bool)>> = vec![None; funcs.len()];
        let mut keys = Vec::with_capacity(funcs.len());
        let mut cold = Vec::new(); // (index into `entries`, key, function clone)
        let mut errors = Vec::new();
        for (i, f) in funcs.iter().enumerate() {
            self.metrics.strategies.of(config.strategy).requests.inc();
            let key = cache_key(f, config);
            keys.push(key);
            let found = self
                .cache
                .get(key)
                .or_else(|| self.store_lookup(key, fingerprint));
            match found {
                Some(entry) => match &*entry {
                    CacheEntry::Ok(result) if result.stats.passes <= max_passes => {
                        self.metrics.cache_hits.inc();
                        self.metrics.strategies.of(config.strategy).hits.inc();
                        entries[i] = Some((Arc::clone(&entry), true));
                    }
                    CacheEntry::Ok(_) => {
                        // Converged, but only beyond the caller's bound —
                        // rerunning would burn the full bound and fail.
                        errors.push(self.negative_fail(f.name(), max_passes));
                    }
                    CacheEntry::NonConvergence { max_passes: known } => {
                        if max_passes <= *known {
                            errors.push(self.negative_fail(f.name(), max_passes));
                        } else {
                            // The caller will spend more passes than the
                            // recorded failure: invalidate and recompute.
                            self.metrics.cache_misses.inc();
                            cold.push((i, key, f.clone()));
                        }
                    }
                },
                None => {
                    self.metrics.cache_misses.inc();
                    cold.push((i, key, f.clone()));
                }
            }
        }

        // Run the allocator over the cold functions only; cache hits never
        // touch the Build–Simplify–Color machinery. The shared worker pool
        // executes the jobs, so concurrent requests interleave at function
        // granularity instead of queueing whole modules.
        let mut deadline_hit = false;
        if !cold.is_empty() {
            self.metrics
                .pool_queue_depth
                .record_value(self.pool.pending() as u64);
            self.metrics.workers_busy.raise(1);
            let inputs: Vec<_> = cold.iter().map(|(_, _, f)| f.clone()).collect();
            let results = self
                .pool
                .allocate_functions_with_deadline(config, &inputs, deadline);
            self.metrics.workers_busy.lower(1);

            for ((i, key, f), result) in cold.into_iter().zip(results) {
                match result {
                    Ok(alloc) => {
                        for pass in &alloc.passes {
                            self.metrics.phase_build.record(pass.times.build);
                            self.metrics.phase_simplify.record(pass.times.simplify);
                            self.metrics.phase_color.record(pass.times.color);
                            self.metrics.phase_spill.record(pass.times.spill);
                        }
                        let entry =
                            Arc::new(CacheEntry::Ok(FnResult::from_allocation(f.name(), &alloc)));
                        self.insert_both_tiers(key, fingerprint, &entry);
                        entries[i] = Some((entry, false));
                    }
                    Err(e) => {
                        self.metrics.alloc_errors.inc();
                        // Remember non-convergence in both tiers so the
                        // next identical request fails fast instead of
                        // burning the whole pass budget again. Deadline
                        // losses are NOT cached — they say nothing about
                        // the function, only about this request's budget.
                        if matches!(e, AllocError::NonConvergence { .. }) {
                            let entry = Arc::new(CacheEntry::NonConvergence { max_passes });
                            self.insert_both_tiers(key, fingerprint, &entry);
                        }
                        if matches!(e, AllocError::DeadlineExceeded { .. }) {
                            self.metrics.deadline_exceeded.inc();
                            deadline_hit = true;
                        }
                        errors.push(Json::obj([
                            ("name", Json::from(f.name())),
                            ("error", Json::from(e.to_string())),
                        ]));
                    }
                }
            }
        }

        self.metrics.functions.add(funcs.len() as u64);
        let mut out = Vec::new();
        // Built alongside `out` for the text memo: the same response as a
        // future warm resubmission would get, i.e. every function marked
        // cached — a freshly computed entry IS a hit the next time this
        // exact text arrives.
        let mut memo_out = Vec::new();
        for ((entry, f), key) in entries.into_iter().zip(funcs).zip(keys) {
            if let Some((entry, cached)) = entry {
                let CacheEntry::Ok(result) = &*entry else {
                    continue; // negative entries never reach `entries`
                };
                // A cache hit may carry a different submitted name (names
                // are not part of the key); respond with the caller's.
                let mut r = result.to_json(cached);
                if result.name != f.name() {
                    r.set("name", Json::from(f.name()));
                }
                // The content address, so the client can re-fetch this
                // result by reference (a batch `"key"` item) instead of
                // resubmitting the text.
                r.push("key", Json::from(format!("{key:016x}")));
                if errors.is_empty() {
                    if cached {
                        memo_out.push(r.clone());
                    } else {
                        let mut m = result.to_json(true);
                        if result.name != f.name() {
                            m.set("name", Json::from(f.name()));
                        }
                        m.push("key", Json::from(format!("{key:016x}")));
                        memo_out.push(m);
                    }
                }
                out.push(r);
            }
        }

        // Only fully successful responses are memoized: failures stay on
        // the slow path, where the bound-sensitive negative-cache logic
        // can re-examine them.
        if errors.is_empty() {
            let response =
                Json::obj([("ok", Json::from(true)), ("functions", Json::Arr(memo_out))]);
            self.memo.insert(
                memo_key,
                Arc::new(TextMemo {
                    response,
                    funcs: out.len() as u64,
                }),
            );
        }

        let latency = started.elapsed();
        self.metrics.request_latency.record(latency);

        let mut resp = Json::obj([
            ("ok", Json::from(errors.is_empty())),
            ("functions", Json::Arr(out)),
        ]);
        if include_latency {
            resp.push(
                "latency_us",
                Json::from(latency.as_micros().min(u128::from(u64::MAX)) as u64),
            );
        }
        if !errors.is_empty() {
            resp.push("errors", Json::Arr(errors));
        }
        if deadline_hit {
            resp.push("err", Json::from("deadline"));
        }
        resp
    }

    /// Answer one batch item: allocate its IR, or look up its cache key.
    /// The record carries the client-supplied `id` so out-of-order stream
    /// delivery stays attributable.
    pub(crate) fn item_response(
        &self,
        item: &BatchItem,
        config: &AllocatorConfig,
        deadline: &Deadline,
    ) -> Json {
        let mut record = match &item.payload {
            // Key items never compute, so they never race the deadline.
            BatchPayload::Ir(ir) => self.alloc_response(ir, config, false, deadline),
            BatchPayload::Key(key) => self.key_response(*key, config),
        };
        record.push("id", item.id.clone());
        record
    }

    /// Answer a by-key batch item from the cache tiers alone. A key only
    /// the compute path could satisfy is an error: the client referenced a
    /// result it never submitted (or one that was evicted), and silently
    /// recomputing is impossible without the IR.
    fn key_response(&self, key: u64, config: &AllocatorConfig) -> Json {
        let fingerprint = config.fingerprint();
        self.metrics.strategies.of(config.strategy).requests.inc();
        let found = self
            .cache
            .get(key)
            .or_else(|| self.store_lookup(key, fingerprint));
        match found.as_deref() {
            Some(CacheEntry::Ok(result)) if result.stats.passes <= config.max_passes => {
                self.metrics.cache_hits.inc();
                self.metrics.strategies.of(config.strategy).hits.inc();
                let mut r = result.to_json(true);
                r.push("key", Json::from(format!("{key:016x}")));
                Json::obj([("ok", Json::from(true)), ("functions", Json::Arr(vec![r]))])
            }
            Some(CacheEntry::Ok(result)) => {
                let fail = self.negative_fail(&result.name, config.max_passes);
                Json::obj([
                    ("ok", Json::from(false)),
                    ("functions", Json::Arr(Vec::new())),
                    ("errors", Json::Arr(vec![fail])),
                ])
            }
            Some(CacheEntry::NonConvergence { max_passes: known })
                if config.max_passes <= *known =>
            {
                let fail = self.negative_fail(&format!("{key:016x}"), config.max_passes);
                Json::obj([
                    ("ok", Json::from(false)),
                    ("functions", Json::Arr(Vec::new())),
                    ("errors", Json::Arr(vec![fail])),
                ])
            }
            _ => {
                self.metrics.cache_misses.inc();
                error_response(&format!("unknown key {key:016x}"))
            }
        }
    }

    /// Serve newline-delimited requests from `input`, writing one response
    /// line each to `output`. Stops at EOF, after a `shutdown` request, or
    /// after the first request if `oneshot` is set.
    pub fn run_io(
        &self,
        input: impl io::Read,
        mut output: impl Write,
        oneshot: bool,
    ) -> io::Result<()> {
        for line in BufReader::new(input).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let (mut resp, disposition) = self.handle_line(&line);
            resp.push('\n');
            // One write per response: a formatted write into a raw socket
            // would emit a syscall per fragment and stall on Nagle.
            output.write_all(resp.as_bytes())?;
            output.flush()?;
            if oneshot || disposition == Disposition::Shutdown {
                break;
            }
        }
        Ok(())
    }

    /// Bind `addr` and serve TCP connections, one thread per connection,
    /// until a `shutdown` request (or [`Server::request_shutdown`] — the
    /// SIGTERM path) arrives. Returns the bound local address via
    /// `on_bound` before entering the accept loop (tests bind port 0 and
    /// need to learn the real port).
    ///
    /// Shutdown is the shared [`Daemon`] loop's **graceful drain**: the
    /// listener stops accepting, every live connection's read half is
    /// closed (its reader sees EOF; responses already in flight still go
    /// out), and the connection threads are joined under
    /// [`Server::with_drain_timeout`]. Stragglers past the deadline are
    /// force-closed.
    pub fn run_listener(
        &self,
        addr: impl ToSocketAddrs,
        on_bound: impl FnOnce(std::net::SocketAddr),
    ) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        on_bound(listener.local_addr()?);
        let opts = StreamOpts {
            max_inflight: self.max_inflight,
        };
        self.daemon.serve(listener, "ndjson", |stream| {
            if let Ok(reader) = stream.try_clone() {
                let _ = crate::stream::run_stream(self, reader, stream, opts);
            }
        })
    }
}

fn error_response(message: &str) -> Json {
    Json::obj([("ok", Json::from(false)), ("error", Json::from(message))])
}

/// The aggregate record that terminates a batch response: item count,
/// error count, and wall time for the whole batch.
pub(crate) fn done_record(items: usize, errors: usize, elapsed: Duration) -> Json {
    Json::obj([
        ("done", Json::from(true)),
        ("ok", Json::from(errors == 0)),
        ("items", Json::from(items as u64)),
        ("errors", Json::from(errors as u64)),
        (
            "latency_us",
            Json::from(elapsed.as_micros().min(u128::from(u64::MAX)) as u64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const FUNC: &str = "func double(v0:int) -> int {\nb0:\n    v1 = add.i v0, v0\n    ret v1\n}\n";

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
        assert_eq!(q.len(), 3);
        assert_eq!(q.bytes, 30);
        assert_eq!(q.hints.front().unwrap().key, 1, "oldest dropped first");
        // Dedup: re-queueing a key replaces its hint (moving it to the
        // back) instead of growing the queue.
        assert_eq!(q.push(hint(2, 20), 3, 1000), 0);
        assert_eq!(q.len(), 3);
        assert_eq!(q.bytes, 40);
        assert_eq!(q.hints.back().unwrap().key, 2);
        // Byte cap: one oversized push evicts until it fits.
        assert_eq!(q.push(hint(9, 35), 10, 60), 2);
        assert_eq!(q.len(), 2);
        assert!(q.bytes <= 60);
        // Pop/push-front keep the byte total honest.
        let h = q.pop_adjusting().unwrap();
        let bytes = q.bytes;
        q.push_front_adjusting(h);
        assert_eq!(q.bytes, bytes + 20);
    }

    fn alloc_line(ir: &str) -> String {
        let mut req = Json::obj([("req", Json::from("alloc"))]);
        req.push("ir", Json::from(ir));
        req.to_string()
    }

    #[test]
    fn alloc_request_returns_assignment() {
        let server = Server::new(16, 1);
        let (resp, disposition) = server.handle_line(&alloc_line(FUNC));
        assert_eq!(disposition, Disposition::Continue);
        let v = crate::json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let funcs = v.get("functions").and_then(Json::as_arr).unwrap();
        assert_eq!(funcs.len(), 1);
        assert_eq!(funcs[0].get("name").and_then(Json::as_str), Some("double"));
        assert_eq!(funcs[0].get("cached").and_then(Json::as_bool), Some(false));
        let assignment = funcs[0].get("assignment").and_then(Json::as_arr).unwrap();
        assert_eq!(assignment.len(), 2);
        for r in assignment {
            let r = r.as_str().unwrap();
            assert!(r.starts_with('r'), "integer vreg got {r}");
        }
    }

    #[test]
    fn second_identical_request_is_served_from_cache() {
        let server = Server::new(16, 1);
        server.handle_line(&alloc_line(FUNC));
        let (resp, _) = server.handle_line(&alloc_line(FUNC));
        let v = crate::json::parse(&resp).unwrap();
        let funcs = v.get("functions").and_then(Json::as_arr).unwrap();
        assert_eq!(funcs[0].get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(server.metrics().cache_hits.get(), 1);
        assert_eq!(server.metrics().cache_misses.get(), 1);
        // The cold run recorded phase samples; the warm one added none.
        let build_samples = server.metrics().phase_build.count();
        server.handle_line(&alloc_line(FUNC));
        assert_eq!(server.metrics().phase_build.count(), build_samples);
    }

    #[test]
    fn renamed_function_hits_the_same_cache_entry() {
        let server = Server::new(16, 1);
        server.handle_line(&alloc_line(FUNC));
        // Same function, but the registers carry source names — α-renaming
        // must not change the content address.
        let renamed = FUNC.replace("b0:", "    reg v0:int \"lhs\"\n    reg v1:int \"sum\"\nb0:");
        let (resp, _) = server.handle_line(&alloc_line(&renamed));
        let v = crate::json::parse(&resp).unwrap();
        let funcs = v.get("functions").and_then(Json::as_arr).unwrap();
        assert_eq!(
            funcs[0].get("cached").and_then(Json::as_bool),
            Some(true),
            "α-renamed function must hit: {resp}"
        );
    }

    #[test]
    fn bad_requests_are_counted_not_fatal() {
        let server = Server::new(4, 1);
        let (resp, d) = server.handle_line("{broken");
        assert_eq!(d, Disposition::Continue);
        assert!(resp.contains("\"ok\":false"));
        let (resp, _) = server.handle_line(&alloc_line("fn oops( {"));
        assert!(resp.contains("bad IR"));
        assert_eq!(server.metrics().parse_errors.get(), 2);
    }

    /// IR with `n` simultaneously-live integer values: every `imm` is
    /// defined before any is consumed, then a reduction chain drains them.
    /// With `n` above the 16 RT/PC integer registers this spills, so the
    /// allocator needs a second Build–Simplify–Color pass to converge.
    fn pressure_ir(n: usize) -> String {
        let mut ir = String::from("func pressure() -> int {\nb0:\n");
        for i in 1..=n {
            ir.push_str(&format!("    v{i} = imm {i}\n"));
        }
        ir.push_str(&format!("    v{} = add.i v1, v2\n", n + 1));
        for i in 3..=n {
            ir.push_str(&format!(
                "    v{} = add.i v{}, v{i}\n",
                n + i - 1,
                n + i - 2
            ));
        }
        ir.push_str(&format!("    ret v{}\n}}\n", 2 * n - 1));
        ir
    }

    fn alloc_line_with_passes(ir: &str, max_passes: usize) -> String {
        let mut req = Json::obj([("req", Json::from("alloc"))]);
        req.push("ir", Json::from(ir));
        req.push(
            "config",
            Json::obj([("max_passes", Json::from(max_passes as u64))]),
        );
        req.to_string()
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "optimist-serve-server-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn nonconvergence_is_remembered_and_fails_fast() {
        let server = Server::new(16, 1);
        let ir = pressure_ir(24);

        // Cold: one pass is not enough, and the failure is fresh.
        let (resp, _) = server.handle_line(&alloc_line_with_passes(&ir, 1));
        assert!(resp.contains("did not converge"), "{resp}");
        assert!(!resp.contains("\"cached\":true"), "{resp}");
        assert_eq!(server.metrics().negative_hits.get(), 0);
        assert_eq!(
            server.metrics().alloc_errors.get(),
            1,
            "cold failure ran the allocator"
        );

        // Same request again: answered from the negative cache without
        // touching Build–Simplify–Color.
        let (resp, _) = server.handle_line(&alloc_line_with_passes(&ir, 1));
        assert!(resp.contains("did not converge"), "{resp}");
        assert!(resp.contains("\"cached\":true"), "{resp}");
        assert_eq!(server.metrics().negative_hits.get(), 1);
        assert_eq!(
            server.metrics().alloc_errors.get(),
            1,
            "fast-fail must not rerun the allocator"
        );

        // A larger bound invalidates the negative entry and succeeds.
        let (resp, _) = server.handle_line(&alloc_line_with_passes(&ir, 8));
        let v = crate::json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");

        // And a positive entry that needed p passes proves failure for a
        // tighter bound — without rerunning the allocator.
        let after_success = server.metrics().phase_build.count();
        let (resp, _) = server.handle_line(&alloc_line_with_passes(&ir, 1));
        assert!(resp.contains("did not converge"), "{resp}");
        assert!(resp.contains("\"cached\":true"), "{resp}");
        assert_eq!(server.metrics().phase_build.count(), after_success);
        assert_eq!(server.metrics().negative_hits.get(), 2);
    }

    #[test]
    fn store_tier_answers_after_a_restart() {
        let dir = scratch("restart");
        let first = Server::new(16, 1).with_store(Store::open(&dir, Default::default()).unwrap());
        let (resp, _) = first.handle_line(&alloc_line(FUNC));
        assert!(resp.contains("\"cached\":false"), "{resp}");
        assert_eq!(first.metrics().store_misses.get(), 1);
        drop(first);

        // A fresh server with an empty memory tier but the same store:
        // the disk answers, promotes into memory, and no phases run.
        let second = Server::new(16, 1).with_store(Store::open(&dir, Default::default()).unwrap());
        assert_eq!(second.store().unwrap().snapshot().recovered_entries, 1);
        let (resp, _) = second.handle_line(&alloc_line(FUNC));
        assert!(resp.contains("\"cached\":true"), "{resp}");
        assert_eq!(second.metrics().store_hits.get(), 1);
        assert_eq!(second.metrics().cache_hits.get(), 1);
        assert_eq!(second.metrics().phase_build.count(), 0);

        // Promoted: the next hit comes from memory, not disk.
        second.handle_line(&alloc_line(FUNC));
        assert_eq!(second.metrics().store_hits.get(), 1);
        assert_eq!(second.metrics().cache_hits.get(), 2);

        let stats = second.stats_json().to_string();
        assert!(stats.contains("\"store\":{\"hits\":1"), "{stats}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn negative_entries_survive_a_restart() {
        let dir = scratch("negative");
        let ir = pressure_ir(24);
        let first = Server::new(16, 1).with_store(Store::open(&dir, Default::default()).unwrap());
        first.handle_line(&alloc_line_with_passes(&ir, 1));
        drop(first);

        let second = Server::new(16, 1).with_store(Store::open(&dir, Default::default()).unwrap());
        let (resp, _) = second.handle_line(&alloc_line_with_passes(&ir, 1));
        assert!(resp.contains("did not converge"), "{resp}");
        assert!(resp.contains("\"cached\":true"), "{resp}");
        assert_eq!(second.metrics().negative_hits.get(), 1);
        assert_eq!(second.metrics().phase_build.count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stdio_oneshot_serves_exactly_one_request() {
        let server = Server::new(4, 1);
        let input = format!("{}\n{}\n", alloc_line(FUNC), alloc_line(FUNC));
        let mut out = Vec::new();
        server.run_io(input.as_bytes(), &mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "oneshot must answer one line");
    }

    #[test]
    fn shutdown_request_stops_the_loop_and_reports() {
        let server = Server::new(4, 1);
        let input = "{\"req\":\"shutdown\"}\n{\"req\":\"ping\"}\n";
        let mut out = Vec::new();
        server.run_io(input.as_bytes(), &mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"shutdown\":true"));
    }
}
