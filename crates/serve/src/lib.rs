//! A batch register-allocation service over the `optimist` pipeline.
//!
//! `optimist-serve` is a long-running daemon that accepts allocation
//! requests — textual IR plus allocator knobs — as newline-delimited JSON
//! over TCP or stdin, drives them through
//! [`Pipeline`](optimist_regalloc::Pipeline), and answers with register
//! assignments, spill sets, and headline statistics.
//!
//! Its centerpiece is a **content-addressed result cache**
//! ([`cache::cache_key`]): allocation is a pure function of the function
//! text and the configuration, so results are stored under a stable hash
//! of the α-renamed (canonical) function text combined with the
//! configuration fingerprint. Re-submitting an unchanged function — even
//! with different register *names* — skips Build–Simplify–Color entirely.
//! The cache has two tiers: a sharded in-memory LRU, and an optional
//! persistent [`optimist_store::Store`] behind it
//! ([`Server::with_store`]) that survives daemon restarts and also
//! remembers *failures* — the negative cache of [`persist::CacheEntry`].
//! A [`metrics::Metrics`] registry (counters, worker-occupancy gauge,
//! per-phase latency histograms) is dumpable as JSON via the `stats`
//! request and on shutdown.
//!
//! Beyond one-request-one-response, the protocol has a **streaming batch
//! mode** ([`protocol::BatchItem`]): one `batch` request carries many
//! modules (or references to already-cached keys), and over TCP the item
//! records stream back *as each finishes*, out of order, tagged with the
//! client's ids, terminated by an aggregate `done` record. Inside one
//! connection, work units execute concurrently under a bounded in-flight
//! window ([`stream::run_stream`], `--max-inflight`), feeding a worker
//! pool shared across connections — see the [`stream`] module docs for
//! the ordering and backpressure rules.
//!
//! Front-ends: the `optimist-serve` binary (TCP `--listen`, HTTP
//! `--http`, stdio, and `--oneshot` modes) and the [`client::Client`]
//! used by `optimist remote`. The crate's `tests/drills.rs` drives real
//! listeners end to end: store chaos, a fleet losing a store peer, giant
//! kernels under parallel coloring, and streamed batches.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod persist;
pub mod protocol;
pub mod ring;
pub mod server;
pub mod stream;
mod tier;

/// The JSON codec and the leveled logger live in `optimist-store`, the
/// crate both daemons link; the serving crate re-exports them under its
/// own names.
pub use optimist_store::{json, log, log_debug, log_error, log_info, log_warn};

pub use cache::{cache_key, ShardedLru};
pub use client::{Client, ClientError, RetryPolicy};
pub use http::run_http;
pub use json::Json;
pub use metrics::Metrics;
pub use persist::CacheEntry;
pub use protocol::{BatchItem, BatchPayload, FnResult, ProtocolError, Request};
pub use ring::HashRing;
pub use server::{Disposition, Server, DEFAULT_MAX_INFLIGHT};
pub use stream::{run_stream, StreamOpts};
pub use tier::{DEFAULT_PEER_TIMEOUT, DEFAULT_REPLICAS};
