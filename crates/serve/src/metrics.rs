//! The server's observability surface.
//!
//! A [`Metrics`] registry holds monotonically-increasing [`Counter`]s,
//! [`Gauge`]s with a high-water mark, and log₂-bucketed latency
//! [`Histogram`]s. Everything is lock-free atomics so the hot path pays a
//! handful of relaxed increments; [`Metrics::to_json`] snapshots the whole
//! registry for the `stats` request and the shutdown dump.

use crate::json::Json;
use optimist_regalloc::Strategy;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically-increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (e.g. busy workers) that also remembers the
/// highest level ever held.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    /// Raise the level by `n`, updating the high-water mark.
    pub fn raise(&self, n: u64) {
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Lower the level by `n` (saturating at zero).
    pub fn lower(&self, n: u64) {
        // fetch_update to saturate rather than wrap if callers misbalance.
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever observed.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket *i* counts samples in
/// `[2^i, 2^(i+1))` microseconds, with bucket 0 also catching 0 and the
/// last bucket open-ended.
const BUCKETS: usize = 32;

/// A latency histogram over microseconds with power-of-two buckets.
///
/// Coarse, fixed-size, and mergeable — enough to tell a cache hit
/// (microseconds) from a cold Build–Simplify–Color pass (milliseconds)
/// without the server allocating per sample.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one duration.
    pub fn record(&self, d: Duration) {
        self.record_value(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Record one raw sample. Durations land here as microseconds; the
    /// queue-depth histograms feed plain counts through the same buckets
    /// (and [`Histogram::to_json_with_unit`] labels them accordingly).
    pub fn record_value(&self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            (63 - value.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(value, Ordering::Relaxed);
        self.max_us.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, in microseconds.
    pub fn total_us(&self) -> u64 {
        self.total_us.load(Ordering::Relaxed)
    }

    /// Largest sample, in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Snapshot as JSON: count, total, mean, max, and the occupied
    /// `[lower_bound_us, count]` buckets.
    pub fn to_json(&self) -> Json {
        self.to_json_with_unit("us")
    }

    /// [`Histogram::to_json`] with an explicit sample unit in the key
    /// names (`total_<unit>`, …) — the queue-depth histograms are counts,
    /// not microseconds.
    pub fn to_json_with_unit(&self, unit: &str) -> Json {
        let count = self.count();
        let total = self.total_us();
        // Only the occupied prefix matters; print `[lower_bound, count]`
        // pairs for non-empty buckets to keep the dump readable.
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                let lower = if i == 0 { 0u64 } else { 1u64 << i };
                buckets.push(Json::Arr(vec![Json::from(lower), Json::from(n)]));
            }
        }
        let mut obj = Json::obj([("count", Json::from(count))]);
        obj.push(format!("total_{unit}"), Json::from(total));
        obj.push(
            format!("mean_{unit}"),
            if count == 0 {
                Json::from(0u64)
            } else {
                Json::from(total as f64 / count as f64)
            },
        );
        obj.push(format!("max_{unit}"), Json::from(self.max_us()));
        obj.push(format!("buckets_log2_{unit}"), Json::Arr(buckets));
        obj
    }
}

/// Request/hit counters for one allocation [`Strategy`].
#[derive(Debug, Default)]
pub struct StrategyStats {
    /// Functions requested under this strategy (hit or miss).
    pub requests: Counter,
    /// Functions answered from any cache tier under this strategy.
    pub hits: Counter,
}

impl StrategyStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::from(self.requests.get())),
            ("hits", Json::from(self.hits.get())),
        ])
    }
}

/// Per-strategy request/hit breakdown, so an A/B comparison between
/// `chaitin`, `briggs`, `irc` and `ssa` traffic needs nothing beyond the
/// stats dump.
#[derive(Debug, Default)]
pub struct PerStrategy {
    /// Traffic under [`Strategy::Chaitin`].
    pub chaitin: StrategyStats,
    /// Traffic under [`Strategy::Briggs`].
    pub briggs: StrategyStats,
    /// Traffic under [`Strategy::Irc`].
    pub irc: StrategyStats,
    /// Traffic under [`Strategy::Ssa`].
    pub ssa: StrategyStats,
}

impl PerStrategy {
    /// The counters for `strategy`.
    pub fn of(&self, strategy: Strategy) -> &StrategyStats {
        match strategy {
            Strategy::Chaitin => &self.chaitin,
            Strategy::Briggs => &self.briggs,
            Strategy::Irc => &self.irc,
            Strategy::Ssa => &self.ssa,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("chaitin", self.chaitin.to_json()),
            ("briggs", self.briggs.to_json()),
            ("irc", self.irc.to_json()),
            ("ssa", self.ssa.to_json()),
        ])
    }
}

/// Every statistic the server exports, dumpable as one JSON object.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Lines received (any request kind).
    pub requests: Counter,
    /// `alloc` requests received.
    pub alloc_requests: Counter,
    /// Functions allocated or served from cache.
    pub functions: Counter,
    /// Functions answered from the result cache.
    pub cache_hits: Counter,
    /// Functions that had to run the allocator.
    pub cache_misses: Counter,
    /// Cache entries evicted to make room.
    pub cache_evictions: Counter,
    /// Functions answered negatively from either tier: a remembered
    /// `NonConvergence` (or a positive entry whose pass count exceeds the
    /// request's `max_passes`) failed the request without running the
    /// allocator.
    pub negative_hits: Counter,
    /// Whole requests answered from the text memo: the raw request bytes
    /// were seen before under the same configuration and pass bound, so
    /// the stored response was served without parsing the IR. Each memo
    /// hit also counts its functions in [`Metrics::cache_hits`].
    pub memo_hits: Counter,
    /// Functions served from the persistent store (a memory miss that the
    /// disk tier answered; also counted in [`Metrics::cache_hits`]).
    pub store_hits: Counter,
    /// Disk-tier lookups that found nothing usable.
    pub store_misses: Counter,
    /// Store anomalies: undecodable payloads, fingerprint mismatches, and
    /// failed write-throughs. Each is served as a miss or ignored — never
    /// fatal.
    pub store_errors: Counter,
    /// Requests rejected as unparsable (bad JSON or bad IR text).
    pub parse_errors: Counter,
    /// Functions the allocator itself rejected.
    pub alloc_errors: Counter,
    /// `batch` requests received.
    pub batch_requests: Counter,
    /// Items carried by `batch` requests.
    pub batch_items: Counter,
    /// Work units (plain `alloc` requests and batch items) admitted, on
    /// every front-end.
    pub stream_units: Counter,
    /// Unit responses emitted. Every admitted unit emits exactly one, so
    /// once its connection drains this equals [`Metrics::stream_units`].
    pub stream_responses: Counter,
    /// Worker-pool occupancy: how many requests are inside the allocator
    /// right now, with a high-water mark.
    pub workers_busy: Gauge,
    /// Work units concurrently in flight across all connections (admitted
    /// but not yet responded), with a high-water mark. Returns
    /// to zero whenever every connection has drained — including after a
    /// mid-batch client disconnect.
    pub inflight: Gauge,
    /// The [`Metrics::inflight`] gauge sampled at each unit admission —
    /// how many units were in flight when each one entered (a count, not
    /// a duration).
    pub inflight_depth: Histogram,
    /// Allocation worker-pool queue depth sampled at each submission to
    /// the pool — how many jobs were already waiting (a count, not a
    /// duration).
    pub pool_queue_depth: Histogram,
    /// End-to-end latency of `alloc` requests.
    pub request_latency: Histogram,
    /// Latency of persistent-store lookups (hit or miss), when a store is
    /// attached.
    pub store_read_latency: Histogram,
    /// Time spent building interference graphs (cold functions only).
    pub phase_build: Histogram,
    /// Time spent simplifying (cold functions only).
    pub phase_simplify: Histogram,
    /// Time spent coloring (cold functions only).
    pub phase_color: Histogram,
    /// Time spent inserting spill code (cold functions only).
    pub phase_spill: Histogram,
    /// Work units refused with `deadline` because their deadline expired
    /// before (or while) the allocator ran.
    pub deadline_exceeded: Counter,
    /// Work units refused with `overloaded` by admission control.
    pub shed: Counter,
    /// Connections reaped by the socket read/write timeouts (dead or
    /// stalled clients).
    pub idle_reaps: Counter,
    /// Work units currently admitted daemon-wide (the load the admission
    /// gate compares against `--max-load`), with a high-water mark.
    pub load: Gauge,
    /// Store write-throughs that failed (each strikes toward degraded
    /// mode).
    pub store_put_errors: Counter,
    /// Store lookups that failed at the I/O layer — distinct from
    /// [`Metrics::store_misses`], which found nothing but read fine.
    pub store_get_errors: Counter,
    /// Degraded-mode recovery probes attempted against the store.
    pub store_probes: Counter,
    /// Times the store came back: a probe succeeded and degraded mode
    /// cleared.
    pub store_recoveries: Counter,
    /// 1 while the persistent store is tripped out of the serving path
    /// (memory-only degraded mode), else 0. The high-water mark records
    /// whether the daemon was *ever* degraded.
    pub store_degraded: Gauge,
    /// Reads served by a replica further down the chain because an
    /// earlier replica was unavailable or missing the key.
    pub store_failovers: Counter,
    /// Keys written back to an earlier replica after a failover hit
    /// found it alive but missing the entry.
    pub store_read_repairs: Counter,
    /// Per-strategy function request/hit counters.
    pub strategies: PerStrategy,
}

impl Metrics {
    /// Snapshot the registry as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "requests",
                Json::obj([
                    ("total", Json::from(self.requests.get())),
                    ("alloc", Json::from(self.alloc_requests.get())),
                    ("batch", Json::from(self.batch_requests.get())),
                    ("batch_items", Json::from(self.batch_items.get())),
                    ("parse_errors", Json::from(self.parse_errors.get())),
                    ("alloc_errors", Json::from(self.alloc_errors.get())),
                ]),
            ),
            (
                "stream",
                Json::obj([
                    ("units", Json::from(self.stream_units.get())),
                    ("responses", Json::from(self.stream_responses.get())),
                    ("inflight", Json::from(self.inflight.get())),
                    (
                        "inflight_high_water",
                        Json::from(self.inflight.high_water()),
                    ),
                    (
                        "inflight_depth",
                        self.inflight_depth.to_json_with_unit("units"),
                    ),
                    (
                        "pool_queue_depth",
                        self.pool_queue_depth.to_json_with_unit("jobs"),
                    ),
                ]),
            ),
            (
                "cache",
                Json::obj([
                    ("hits", Json::from(self.cache_hits.get())),
                    ("misses", Json::from(self.cache_misses.get())),
                    ("evictions", Json::from(self.cache_evictions.get())),
                    ("memo_hits", Json::from(self.memo_hits.get())),
                    ("negative_hits", Json::from(self.negative_hits.get())),
                    ("hit_rate", {
                        let h = self.cache_hits.get();
                        let m = self.cache_misses.get();
                        if h + m == 0 {
                            Json::Null
                        } else {
                            Json::from(h as f64 / (h + m) as f64)
                        }
                    }),
                ]),
            ),
            (
                "workers",
                Json::obj([
                    ("busy", Json::from(self.workers_busy.get())),
                    ("high_water", Json::from(self.workers_busy.high_water())),
                ]),
            ),
            (
                "hardening",
                Json::obj([
                    (
                        "deadline_exceeded",
                        Json::from(self.deadline_exceeded.get()),
                    ),
                    ("shed", Json::from(self.shed.get())),
                    ("idle_reaps", Json::from(self.idle_reaps.get())),
                    ("load", Json::from(self.load.get())),
                    ("load_high_water", Json::from(self.load.high_water())),
                ]),
            ),
            (
                "store_health",
                Json::obj([
                    ("degraded", Json::from(self.store_degraded.get())),
                    (
                        "ever_degraded",
                        Json::from(self.store_degraded.high_water() > 0),
                    ),
                    ("put_errors", Json::from(self.store_put_errors.get())),
                    ("get_errors", Json::from(self.store_get_errors.get())),
                    ("probes", Json::from(self.store_probes.get())),
                    ("recoveries", Json::from(self.store_recoveries.get())),
                ]),
            ),
            (
                "replication",
                Json::obj([
                    ("failovers", Json::from(self.store_failovers.get())),
                    ("read_repairs", Json::from(self.store_read_repairs.get())),
                ]),
            ),
            ("strategies", self.strategies.to_json()),
            ("functions", Json::from(self.functions.get())),
            ("request_latency", self.request_latency.to_json()),
            (
                "phases",
                Json::obj([
                    ("build", self.phase_build.to_json()),
                    ("simplify", self.phase_simplify.to_json()),
                    ("color", self.phase_color.to_json()),
                    ("spill", self.phase_spill.to_json()),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_microseconds() {
        let h = Histogram::default();
        h.record(Duration::from_micros(0));
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        assert_eq!(h.count(), 4);
        assert_eq!(h.total_us(), 1004);
        assert_eq!(h.max_us(), 1000);
        let dump = h.to_json().to_string();
        // 0 and 1 share bucket 0; 3 lands in [2,4); 1000 in [512,1024).
        assert!(dump.contains("[0,2]"), "{dump}");
        assert!(dump.contains("[2,1]"), "{dump}");
        assert!(dump.contains("[512,1]"), "{dump}");
    }

    #[test]
    fn gauge_tracks_high_water_and_saturates() {
        let g = Gauge::default();
        g.raise(3);
        g.lower(1);
        g.raise(1);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high_water(), 3);
        g.lower(10);
        assert_eq!(g.get(), 0, "lower saturates at zero");
        assert_eq!(g.high_water(), 3);
    }

    #[test]
    fn per_strategy_counters_land_in_the_dump() {
        let m = Metrics::default();
        m.strategies.of(Strategy::Irc).requests.add(5);
        m.strategies.of(Strategy::Irc).hits.add(2);
        m.strategies.of(Strategy::Briggs).requests.inc();
        let dump = m.to_json().to_string();
        let back = crate::json::parse(&dump).expect("dump must reparse");
        let irc = back.get("strategies").and_then(|s| s.get("irc")).unwrap();
        assert_eq!(irc.get("requests").and_then(Json::as_u64), Some(5));
        assert_eq!(irc.get("hits").and_then(Json::as_u64), Some(2));
        let chaitin = back
            .get("strategies")
            .and_then(|s| s.get("chaitin"))
            .unwrap();
        assert_eq!(chaitin.get("requests").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn registry_dump_is_valid_json() {
        let m = Metrics::default();
        m.requests.inc();
        m.alloc_requests.inc();
        m.cache_hits.add(9);
        m.cache_misses.add(1);
        m.request_latency.record(Duration::from_micros(42));
        let dump = m.to_json().to_string();
        let back = crate::json::parse(&dump).expect("dump must reparse");
        assert_eq!(
            back.get("cache")
                .and_then(|c| c.get("hits"))
                .and_then(Json::as_u64),
            Some(9)
        );
        let rate = back
            .get("cache")
            .and_then(|c| c.get("hit_rate"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((rate - 0.9).abs() < 1e-9);
    }
}
