//! The request engine and the two front-ends (TCP listener, stdio).
//!
//! A [`Server`] owns the result cache tiers and the metrics registry;
//! [`Server::handle_line`] turns one request line into one response line.
//! The lookup path is **memory → store → compute**: a sharded in-memory
//! LRU in front, an optional persistent store tier behind it — an
//! embedded [`Store`] ([`Server::with_store`]) or `optimist-stored` peers
//! ([`Server::with_remote_store`]) — and the Build–Simplify–Color
//! pipeline only for functions neither tier knows. Store hits are
//! promoted into memory; computed results (and [`NonConvergence`]
//! failures — the negative cache) are written through to both tiers.
//! The store tier itself — routing, failover, replication and degraded
//! mode — lives in `tier.rs`; this module keeps only the glue between it
//! and the cache (`store_lookup`, `insert_both_tiers`).
//!
//! The front-ends are thin: `run_io` reads lines from a reader,
//! `run_listener` accepts TCP connections on the shared
//! [`Daemon`] loop and serves each on its own thread. Both stop
//! when a `shutdown` request arrives.
//!
//! ## Hardening
//!
//! Two production concerns live here too (see DESIGN.md §11):
//!
//! * **Deadlines** — every work unit races a cooperative
//!   [`Deadline`] (per-request
//!   `"deadline_ms"`, daemon default [`Server::with_deadline`]); past it
//!   the unit answers `{"err":"deadline"}` instead of wedging a worker.
//! * **Admission control** — a daemon-wide unit cap
//!   ([`Server::with_max_load`]); over it, requests are shed immediately
//!   with `{"err":"overloaded","retry_after_ms":N}`.
//!
//! The third, store **degraded mode**, is the tier's: a peer whose I/O
//! keeps failing leaves the serving path and the daemon answers from
//! memory and compute until a probe brings it back. The `health` request
//! reports `ok`/`degraded`/`draining`.
//!
//! [`NonConvergence`]: optimist_regalloc::AllocError::NonConvergence

use crate::cache::{cache_key, text_key, ShardedLru};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::persist::{self, CacheEntry};
use crate::protocol::{BatchItem, BatchPayload, FnResult, Request};
use crate::stream::StreamOpts;
use crate::tier::StoreTier;
use optimist_ir::parse_module;
use optimist_regalloc::{default_threads, AllocError, AllocatorConfig, Deadline, WorkerPool};
use optimist_store::daemon::{read_line_capped, Daemon, MAX_LINE_BYTES};
use optimist_store::Store;
use std::io::{self, BufReader, Write};
use std::net::TcpListener;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on concurrently-executing work units per connection when
/// the server is not configured otherwise (see
/// [`Server::with_max_inflight`]).
pub const DEFAULT_MAX_INFLIGHT: usize = 8;

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
        self.store = Some(StoreTier::local(store));
        self
    }

    /// Attach one or more `optimist-stored` daemons as the second cache
    /// tier instead of an embedded log. One address is a plain remote
    /// store; several are sharded by consistent hash
    /// ([`HashRing`](crate::HashRing)), so every serving daemon sends a
    /// given key to the same store peer. Connections are dialed lazily
    /// and round trips are bounded by [`crate::DEFAULT_PEER_TIMEOUT`]
    /// (see [`Server::with_store_peer_timeout`]).
    pub fn with_remote_store<S: AsRef<str>>(mut self, addrs: &[S]) -> Self {
        self.store = Some(StoreTier::remote(addrs));
        self
    }

    /// How many store peers hold each key in sharded mode (default
    /// [`crate::DEFAULT_REPLICAS`], clamped to at least 1 and at most the
    /// peer count when routing). A deployment knob, not a request field:
    /// the result fingerprint never sees it, so responses are
    /// byte-identical across replication factors. No effect on local or
    /// single-remote tiers, which always have exactly one copy.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.store = self.store.map(|tier| tier.with_replicas(replicas));
        self
    }

    /// Bound each tripwired peer's hinted-handoff queue (entries and
    /// payload bytes). Overflow discards oldest-first and counts the
    /// drops; the anti-entropy sweep repairs whatever the caps lost.
    pub fn with_hint_limits(mut self, max_entries: usize, max_bytes: usize) -> Self {
        self.store = self
            .store
            .map(|tier| tier.with_hint_limits(max_entries, max_bytes));
        self
    }

    /// Bound each store-peer round trip. A peer that stops answering
    /// fails fast into the per-peer tripwire instead of wedging request
    /// threads; `None` leaves the sockets blocking. No effect on a local
    /// store tier.
    pub fn with_store_peer_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.store = self.store.map(|tier| tier.with_peer_timeout(timeout));
        self
    }

    /// Change how often a degraded store is re-probed for recovery.
    /// Tests shrink this to exercise the recovery path without waiting
    /// out the production interval.
    pub fn with_store_probe_interval(mut self, interval: Duration) -> Self {
        self.store = self.store.map(|tier| tier.with_probe_interval(interval));
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
        self.store.as_ref().and_then(StoreTier::local_store)
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
        if let Some(tier) = &self.store {
            if !self.draining() {
                tier.reprobe(&self.metrics);
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
        let topology = self.store.as_ref().map_or_else(
            || Json::obj([("mode", Json::from("none"))]),
            StoreTier::topology_json,
        );
        health.push("store", topology);
        Json::obj([("ok", Json::from(true)), ("health", health)])
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
            stats.push("store", tier.stats_json(&self.metrics));
        }
        stats
    }

    /// Look a key up in the persistent tier, decoding and promoting a hit
    /// into the in-memory cache. Anything short of a decodable entry with
    /// the expected fingerprint is a miss (and, where it indicates damage,
    /// a `store_errors` tick) — corrupt data is never served.
    fn store_lookup(&self, key: u64, fingerprint: u64) -> Option<Arc<CacheEntry>> {
        let tier = self.store.as_ref()?;
        let read_started = Instant::now();
        let found = tier.get(&self.metrics, key);
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
    /// counted, logged, and strike toward degraded mode — never raised:
    /// the response already holds the result.
    fn insert_both_tiers(&self, key: u64, fingerprint: u64, entry: &Arc<CacheEntry>) {
        if self.cache.insert(key, Arc::clone(entry)) {
            self.metrics.cache_evictions.inc();
        }
        if let Some(tier) = &self.store {
            let payload = persist::encode_entry(entry);
            tier.put(&self.metrics, key, fingerprint, payload.as_bytes());
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
    /// after the first request if `oneshot` is set. A line longer than
    /// [`MAX_LINE_BYTES`] is answered `{"ok":false,"error":"line too
    /// long"}` and ends the stream with that error.
    pub fn run_io(
        &self,
        input: impl io::Read,
        mut output: impl Write,
        oneshot: bool,
    ) -> io::Result<()> {
        let mut reader = BufReader::new(input);
        let mut buf = Vec::new();
        loop {
            match read_line_capped(&mut reader, &mut buf, MAX_LINE_BYTES) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    if e.kind() == io::ErrorKind::InvalidData {
                        let refusal = format!("{}\n", error_response("line too long"));
                        output.write_all(refusal.as_bytes())?;
                    }
                    return Err(e);
                }
            }
            let line = std::str::from_utf8(&buf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if line.trim().is_empty() {
                continue;
            }
            let (mut resp, disposition) = self.handle_line(line);
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

    /// Serve NDJSON connections on the bound `listener`, one thread per
    /// connection, until a `shutdown` request (or
    /// [`Server::request_shutdown`] — the SIGTERM path) arrives. The
    /// caller binds, so it learns the real port (tests bind port 0) and
    /// reports a taken address before anything serves.
    ///
    /// Shutdown is the shared [`Daemon`] loop's **graceful drain**: the
    /// listener stops accepting, every live connection's read half is
    /// closed (its reader sees EOF; responses already in flight still go
    /// out), and the connection threads are joined under
    /// [`Server::with_drain_timeout`]. Stragglers past the deadline are
    /// force-closed.
    pub fn run_listener(&self, listener: TcpListener) -> io::Result<()> {
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

pub(crate) fn error_response(message: &str) -> Json {
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
