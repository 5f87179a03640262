//! # optimist-store
//!
//! A persistent, content-addressed result store: the disk tier behind
//! `optimist-serve`'s in-memory LRU. Allocation results are pure functions
//! of their content address, so a result computed before a daemon restart
//! is exactly as good as one computed after — this crate makes them
//! survive the restart.
//!
//! ## Shape
//!
//! One [`Store`] owns one directory holding a single **append-only,
//! log-structured file** (`store.log`). Writes append a length-prefixed,
//! checksummed record of `(key, schema_version, config_fingerprint,
//! payload)` — see [`mod@format`] for the byte layout; payloads are opaque to
//! the store (the serving layer encodes them as JSON).
//! An in-memory index maps each key to its newest record's offset, so
//! reads are one seek. Updating a key appends a superseding record; the
//! old bytes become *dead* and are reclaimed by compaction.
//!
//! ## Crash recovery
//!
//! Opening a store scans the log from the top, verifying every record's
//! checksum. A crash mid-append leaves a **torn tail**, which is truncated
//! back to the last record boundary; a flipped bit mid-file leaves a
//! **corrupt record**, which is skipped as dead bytes; a record written by
//! a different [`format::SCHEMA_VERSION`] is **stale** and ignored rather
//! than mis-decoded. Every drop is counted and surfaced in
//! [`StoreSnapshot`] — recovery never panics and never serves bytes that
//! failed their checksum.
//!
//! ## Compaction
//!
//! When the log grows past [`StoreOptions::max_bytes`], live records are
//! rewritten into a fresh file which atomically **renames over** the old
//! one (write → fsync → rename → fsync directory), so a crash at any
//! point leaves either the old complete log or the new complete log. If
//! live data alone exceeds ¾ of the budget, the oldest-written entries
//! are evicted until it fits — the store is a bounded cache, not an
//! archive.
//!
//! Compaction runs on a **background thread**, off the request path: the
//! `put` that crosses the budget just signals the compactor and returns.
//! The bulk copy of live records runs without the store lock (reads and
//! writes proceed concurrently); only the final delta-append and atomic
//! swap hold it. A put stalls only when the log has outgrown *twice* the
//! budget — the disk is falling behind — and each such wait is counted as
//! [`StoreSnapshot::compaction_stalls`].
//!
//! ```
//! # use optimist_store::{Store, StoreOptions};
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let store = Store::open(&dir, StoreOptions::default())?;
//! store.put(0xc0ffee, 42, b"result bytes")?;
//! assert_eq!(store.get(0xc0ffee), Some((42, b"result bytes".to_vec())));
//! drop(store);
//! // A new process sees the same entry.
//! let reopened = Store::open(&dir, StoreOptions::default())?;
//! assert_eq!(reopened.get(0xc0ffee), Some((42, b"result bytes".to_vec())));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! ## Daemon plumbing
//!
//! This crate is the one both daemons link, so it also carries their
//! shared plumbing: the JSON codec ([`mod@json`]), the leveled stderr
//! logger ([`mod@log`]), and the accept/drain loop plus signal watcher
//! ([`daemon`]). `optimist-stored` ([`net`]) uses them directly;
//! `optimist-serve` re-exports the codec and logger as its own
//! `json` and `log` modules.

#![warn(missing_docs)]

pub mod daemon;
pub mod failpoint;
pub mod format;
pub mod json;
pub mod log;
pub mod net;

pub use json::Json;

use failpoint::{FailKind, FailpointRegistry};
use format::{ScannedRecord, MAGIC, RECORD_HEADER_LEN, SCHEMA_VERSION};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Name of the log file inside the store directory.
const LOG_FILE: &str = "store.log";
/// Name of the compaction scratch file (atomically renamed over the log).
const TMP_FILE: &str = "store.log.tmp";

/// Tuning knobs for [`Store::open`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Compaction trigger: when the log file exceeds this many bytes, live
    /// records are rewritten (and the oldest evicted if live data alone
    /// exceeds ¾ of the budget). `0` means unbounded — never compact on
    /// size.
    pub max_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            max_bytes: 64 << 20, // 64 MiB
        }
    }
}

/// Where one live entry's record sits in the log.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Byte offset of the record header.
    offset: u64,
    /// Header + body bytes (distance to the next record).
    record_len: u32,
    /// Payload bytes within the record.
    payload_len: u32,
    /// The config fingerprint stamped at write time.
    fingerprint: u64,
}

/// Monotonic event counts, all surfaced through [`StoreSnapshot`].
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    recovered_entries: u64,
    dropped_corrupt: u64,
    dropped_torn: u64,
    dropped_stale: u64,
    superseded: u64,
    evicted: u64,
    compactions: u64,
    compaction_stalls: u64,
    last_compaction_us: u64,
    read_errors: u64,
    write_errors: u64,
    removed_tmp: u64,
}

#[derive(Debug)]
struct Inner {
    file: File,
    index: HashMap<u64, IndexEntry>,
    /// Total log length, header included.
    file_bytes: u64,
    /// Bytes of the records currently in the index.
    live_bytes: u64,
    counters: Counters,
    /// A put crossed the size budget; the compactor should run a pass.
    compact_requested: bool,
    /// A compaction pass is in flight (background or synchronous).
    compacting: bool,
    /// The store is being dropped; the compactor thread should exit.
    shutdown: bool,
}

/// A point-in-time view of the store's size and history, dumped into the
/// daemon's `stats` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Live entries (distinct keys).
    pub entries: usize,
    /// Total log-file size in bytes, header included.
    pub file_bytes: u64,
    /// Bytes held by live records.
    pub live_bytes: u64,
    /// Bytes held by superseded, corrupt, or stale records (reclaimable).
    pub dead_bytes: u64,
    /// Entries rebuilt from the log by the last open.
    pub recovered_entries: u64,
    /// Records dropped at recovery for checksum mismatch.
    pub dropped_corrupt: u64,
    /// Records dropped at recovery as a torn tail (file truncated).
    pub dropped_torn: u64,
    /// Records dropped at recovery for a foreign schema version (plus
    /// whole files recycled for a foreign magic).
    pub dropped_stale: u64,
    /// Updates that overwrote an existing key (the old record died).
    pub superseded: u64,
    /// Entries evicted by compaction to respect the size budget.
    pub evicted: u64,
    /// Completed compaction passes.
    pub compactions: u64,
    /// Puts that had to wait for the background compactor because the log
    /// had outgrown twice its budget (the disk is falling behind).
    pub compaction_stalls: u64,
    /// Wall-clock duration of the most recent compaction, in microseconds.
    pub last_compaction_us: u64,
    /// Reads that failed at the I/O layer (served as misses).
    pub read_errors: u64,
    /// Appends that failed at the I/O layer (rolled back before the
    /// error was returned), plus failed compaction passes.
    pub write_errors: u64,
    /// Stale compaction scratch files (`store.log.tmp`, left by a crash
    /// between the tmp write and the atomic rename) removed by the last
    /// open.
    pub removed_tmp: u64,
}

/// State shared between the [`Store`] handle and its compactor thread.
#[derive(Debug)]
struct Shared {
    dir: PathBuf,
    max_bytes: u64,
    inner: Mutex<Inner>,
    /// Injected faults for this store's I/O sites (see [`mod@failpoint`]).
    /// Armed from `OPTIMIST_FAILPOINTS` at open; re-armable at runtime.
    failpoints: FailpointRegistry,
    /// Wakes the compactor thread (work requested, or shutdown).
    work: Condvar,
    /// Wakes waiters — stalled puts, [`Store::quiesce`], a synchronous
    /// [`Store::compact`] queued behind a background pass — when a pass
    /// finishes (successfully or not).
    done: Condvar,
}

/// The persistent content-addressed store. All methods take `&self`; the
/// index and log handle live behind one mutex (this is the tier *behind*
/// a sharded in-memory cache — by the time a request gets here it has
/// already missed the fast path). Size-triggered compaction runs on a
/// dedicated background thread owned by this handle.
#[derive(Debug)]
pub struct Store {
    shared: Arc<Shared>,
    compactor: Option<JoinHandle<()>>,
}

impl Store {
    /// Open (or create) the store in directory `dir`, recovering the index
    /// from the log: checksums verified, torn tails truncated, corrupt and
    /// stale records dropped and counted.
    ///
    /// One store directory belongs to one process at a time; concurrent
    /// writers would interleave appends and clobber each other's
    /// compactions.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the directory cannot be created, the
    /// log cannot be opened or truncated). Data-level damage is *not* an
    /// error — it is recovered around and reported in the snapshot.
    pub fn open(dir: impl AsRef<Path>, options: StoreOptions) -> io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut counters = Counters::default();

        // A crash between compaction's tmp write and its atomic rename
        // leaves a stale scratch file. It was never renamed, so nothing in
        // it is committed: remove it rather than let a later compaction
        // trust (or trip over) a file of unknown vintage.
        if std::fs::remove_file(dir.join(TMP_FILE)).is_ok() {
            counters.removed_tmp += 1;
        }

        let log_path = dir.join(LOG_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)?;

        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        // A missing/foreign header means the file is not ours (or is from
        // an incompatible container revision): recycle it wholesale.
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            if !bytes.is_empty() {
                counters.dropped_stale += 1;
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&MAGIC)?;
            bytes = MAGIC.to_vec();
        }

        // Recovery scan: walk record to record, indexing the newest record
        // per key and classifying everything else.
        let mut index: HashMap<u64, IndexEntry> = HashMap::new();
        let mut live_bytes: u64 = 0;
        let mut offset = MAGIC.len();
        while offset < bytes.len() {
            match format::scan_record(&bytes, offset) {
                ScannedRecord::Valid {
                    key,
                    schema_version,
                    fingerprint,
                    payload,
                    record_len,
                } => {
                    if schema_version == SCHEMA_VERSION {
                        let entry = IndexEntry {
                            offset: offset as u64,
                            record_len: record_len as u32,
                            payload_len: payload.len() as u32,
                            fingerprint,
                        };
                        if let Some(old) = index.insert(key, entry) {
                            live_bytes -= u64::from(old.record_len);
                            counters.superseded += 1;
                        }
                        live_bytes += record_len as u64;
                    } else {
                        counters.dropped_stale += 1;
                    }
                    offset += record_len;
                }
                ScannedRecord::Corrupt { record_len } => {
                    counters.dropped_corrupt += 1;
                    offset += record_len;
                }
                ScannedRecord::Torn => {
                    counters.dropped_torn += 1;
                    file.set_len(offset as u64)?;
                    bytes.truncate(offset);
                    break;
                }
            }
        }
        counters.recovered_entries = index.len() as u64;

        file.seek(SeekFrom::End(0))?;
        let shared = Arc::new(Shared {
            dir,
            max_bytes: options.max_bytes,
            inner: Mutex::new(Inner {
                file,
                index,
                file_bytes: bytes.len() as u64,
                live_bytes,
                counters,
                compact_requested: false,
                compacting: false,
                shutdown: false,
            }),
            failpoints: FailpointRegistry::from_env(),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let compactor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("store-compactor".into())
                .spawn(move || Shared::compactor_loop(&shared))?
        };
        Ok(Store {
            shared,
            compactor: Some(compactor),
        })
    }

    /// This store's fault-injection registry (see [`mod@failpoint`]).
    /// Production stores carry an empty registry unless
    /// `OPTIMIST_FAILPOINTS` armed one at open.
    pub fn failpoints(&self) -> &FailpointRegistry {
        &self.shared.failpoints
    }

    /// The directory this store lives in.
    pub fn path(&self) -> &Path {
        &self.shared.dir
    }

    /// Fetch the payload and write-time config fingerprint stored under
    /// `key`. I/O failures are served as misses (and counted as
    /// [`StoreSnapshot::read_errors`]) — a flaky disk degrades the cache,
    /// it does not take the daemon down. Callers that need to distinguish
    /// a miss from a failing disk use [`Store::try_get`].
    pub fn get(&self, key: u64) -> Option<(u64, Vec<u8>)> {
        self.try_get(key).ok().flatten()
    }

    /// [`Store::get`], but surfacing I/O failures instead of flattening
    /// them into misses — the signal the serving tier's degraded-mode
    /// tripwire runs on. A missing key is `Ok(None)`; a failed read is
    /// `Err` (and still counted as [`StoreSnapshot::read_errors`]).
    ///
    /// # Errors
    ///
    /// Propagates the read failure (real or injected by an armed `get`
    /// failpoint).
    pub fn try_get(&self, key: u64) -> io::Result<Option<(u64, Vec<u8>)>> {
        self.shared.try_get(key)
    }

    /// A sorted page of live keys strictly greater than `after` (or from
    /// the smallest key when `after` is `None`), at most `limit` long,
    /// plus the total live-entry count. Sorting the index keys gives a
    /// stable pagination cursor — callers walk the whole key space by
    /// feeding the last key of each page back in as `after` — which is
    /// what the fleet's anti-entropy sweep streams over the `scan` wire
    /// verb to repopulate a replica that came back empty.
    pub fn scan_keys(&self, after: Option<u64>, limit: usize) -> (Vec<u64>, usize) {
        let inner = self.shared.lock();
        let total = inner.index.len();
        let floor = after.map_or(0, |a| a.saturating_add(1));
        let mut keys: Vec<u64> = if after == Some(u64::MAX) {
            Vec::new()
        } else {
            inner
                .index
                .keys()
                .copied()
                .filter(|&k| k >= floor)
                .collect()
        };
        keys.sort_unstable();
        keys.truncate(limit);
        (keys, total)
    }

    /// Append `payload` under `key`, superseding any previous record. If
    /// the log has outgrown its budget the background compactor is
    /// signaled; the put itself returns immediately unless the log is
    /// past *twice* the budget, in which case it waits for the compactor
    /// (counted as [`StoreSnapshot::compaction_stalls`]).
    ///
    /// # Errors
    ///
    /// Propagates write failures. A failed append is rolled back before
    /// returning: the file is truncated to its pre-write length, so a
    /// half-written record never lingers for the next append to bury
    /// mid-log (where the open-time scan would drop every record after
    /// it, not just the torn one). The in-memory index is only updated
    /// after the bytes land, so an error leaves the store exactly as it
    /// was.
    pub fn put(&self, key: u64, fingerprint: u64, payload: &[u8]) -> io::Result<()> {
        self.shared.put(key, fingerprint, payload)
    }

    /// Rewrite live records into a fresh log, dropping dead bytes, then
    /// atomically rename it over the old one. Normally run by the
    /// background compactor when [`Store::put`] crosses the size budget;
    /// public (and synchronous) for tests and maintenance — queued behind
    /// any in-flight background pass.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on failure the original log is untouched.
    pub fn compact(&self) -> io::Result<()> {
        self.shared.compact_pass()
    }

    /// Block until no compaction pass is requested or in flight. Gives
    /// tests (and orderly shutdown paths) a deterministic point at which
    /// the log reflects every signaled compaction.
    pub fn quiesce(&self) {
        let mut inner = self.shared.lock();
        while inner.compact_requested || inner.compacting {
            inner = self.shared.done.wait(inner).expect("store mutex poisoned");
        }
    }

    /// Flush buffered appends to stable storage (`fdatasync`). Called on
    /// daemon shutdown; recovery handles anything lost before a crash.
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.shared.lock();
        if let Some(kind) = self.shared.failpoints.check("fsync") {
            inner.counters.write_errors += 1;
            return Err(kind.to_error());
        }
        inner.file.sync_data()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.shared.lock().index.len()
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time view of sizes and recovery/compaction history.
    pub fn snapshot(&self) -> StoreSnapshot {
        let inner = self.shared.lock();
        let header = MAGIC.len() as u64;
        StoreSnapshot {
            entries: inner.index.len(),
            file_bytes: inner.file_bytes,
            live_bytes: inner.live_bytes,
            dead_bytes: inner.file_bytes - inner.live_bytes - header.min(inner.file_bytes),
            recovered_entries: inner.counters.recovered_entries,
            dropped_corrupt: inner.counters.dropped_corrupt,
            dropped_torn: inner.counters.dropped_torn,
            dropped_stale: inner.counters.dropped_stale,
            superseded: inner.counters.superseded,
            evicted: inner.counters.evicted,
            compactions: inner.counters.compactions,
            compaction_stalls: inner.counters.compaction_stalls,
            last_compaction_us: inner.counters.last_compaction_us,
            read_errors: inner.counters.read_errors,
            write_errors: inner.counters.write_errors,
            removed_tmp: inner.counters.removed_tmp,
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        {
            let mut inner = self.shared.lock();
            inner.shutdown = true;
            self.shared.work.notify_all();
        }
        if let Some(handle) = self.compactor.take() {
            let _ = handle.join();
        }
        // Best-effort durability on clean shutdown; recovery covers the rest.
        if let Ok(inner) = self.shared.inner.lock() {
            let _ = inner.file.sync_data();
        }
    }
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("store mutex poisoned")
    }

    /// The background compactor: sleep until a put signals work (or the
    /// store is dropped), run one pass, repeat. A failed pass is already
    /// counted and has woken any stalled puts; the store simply keeps
    /// growing until the disk heals, so the loop just waits for the next
    /// request.
    fn compactor_loop(shared: &Shared) {
        loop {
            {
                let mut inner = shared.lock();
                while !inner.shutdown && !inner.compact_requested {
                    inner = shared.work.wait(inner).expect("store mutex poisoned");
                }
                if inner.shutdown {
                    return;
                }
            }
            let _ = shared.compact_pass();
        }
    }

    fn try_get(&self, key: u64) -> io::Result<Option<(u64, Vec<u8>)>> {
        let mut inner = self.lock();
        let Some(entry) = inner.index.get(&key).copied() else {
            return Ok(None);
        };
        let injected = self.failpoints.check("get");
        if let Some(kind) = injected.filter(|&k| k != FailKind::Corrupt) {
            inner.counters.read_errors += 1;
            return Err(kind.to_error());
        }
        let payload_at = entry.offset + (RECORD_HEADER_LEN + format::BODY_PREFIX_LEN) as u64;
        let mut payload = vec![0u8; entry.payload_len as usize];
        let read = inner
            .file
            .seek(SeekFrom::Start(payload_at))
            .and_then(|_| inner.file.read_exact(&mut payload));
        // Leave the cursor at the tracked end for the next append.
        let end = inner.file_bytes;
        let _ = inner.file.seek(SeekFrom::Start(end));
        match read {
            Ok(()) => {
                if injected == Some(FailKind::Corrupt) && !payload.is_empty() {
                    payload[0] ^= 0x01; // simulated bit rot on the read path
                }
                Ok(Some((entry.fingerprint, payload)))
            }
            Err(e) => {
                inner.counters.read_errors += 1;
                Err(e)
            }
        }
    }

    fn put(&self, key: u64, fingerprint: u64, payload: &[u8]) -> io::Result<()> {
        let record = format::encode_record(key, SCHEMA_VERSION, fingerprint, payload);
        let mut inner = self.lock();
        // Seek to the *tracked* end, not `SeekFrom::End(0)`: if an earlier
        // failed append left bytes beyond `file_bytes` that truncation
        // could not reclaim, appending at the physical end would strand a
        // torn record in the middle of the log.
        let offset = inner.file_bytes;
        if let Err(e) = Self::append_record(&mut inner.file, offset, &record, &self.failpoints) {
            inner.counters.write_errors += 1;
            // Roll back: drop whatever prefix of the record landed.
            let _ = inner.file.set_len(offset);
            let _ = inner.file.seek(SeekFrom::Start(offset));
            return Err(e);
        }
        inner.file_bytes += record.len() as u64;
        let entry = IndexEntry {
            offset,
            record_len: record.len() as u32,
            payload_len: payload.len() as u32,
            fingerprint,
        };
        if let Some(old) = inner.index.insert(key, entry) {
            inner.live_bytes -= u64::from(old.record_len);
            inner.counters.superseded += 1;
        }
        inner.live_bytes += record.len() as u64;

        if self.max_bytes > 0 && inner.file_bytes > self.max_bytes {
            if !inner.compact_requested {
                inner.compact_requested = true;
                self.work.notify_one();
            }
            // Backpressure: only when the log has outgrown twice its
            // budget does the put wait for the compactor. Below that,
            // compaction is fully off the request path.
            let hard_cap = self.max_bytes.saturating_mul(2);
            if inner.file_bytes > hard_cap {
                inner.counters.compaction_stalls += 1;
                // A failed pass clears both flags before signaling, so a
                // broken disk releases the stall instead of wedging it.
                while (inner.compact_requested || inner.compacting) && inner.file_bytes > hard_cap {
                    inner = self.done.wait(inner).expect("store mutex poisoned");
                }
            }
        }
        Ok(())
    }

    /// Write `record` at `offset`, consulting the `put` failpoint first.
    /// On error some prefix of the record may have landed; the caller
    /// rolls the file back.
    fn append_record(
        file: &mut File,
        offset: u64,
        record: &[u8],
        failpoints: &FailpointRegistry,
    ) -> io::Result<()> {
        file.seek(SeekFrom::Start(offset))?;
        match failpoints.check("put") {
            Some(FailKind::Short) => {
                // Land half the record, then fail — the torn-append crash
                // window the rollback (and, after a crash, the open-time
                // scan) must handle.
                file.write_all(&record[..record.len() / 2])?;
                Err(FailKind::Short.to_error())
            }
            Some(kind) => Err(kind.to_error()),
            None => file.write_all(record),
        }
    }

    /// One full compaction pass: claim the compactor slot, snapshot the
    /// live set and eviction plan under the lock, bulk-copy survivors
    /// into the scratch file *without* the lock, then re-lock to append
    /// the delta written during the copy and atomically swap the logs.
    fn compact_pass(&self) -> io::Result<()> {
        let mut inner = self.lock();
        while inner.compacting {
            inner = self.done.wait(inner).expect("store mutex poisoned");
        }
        inner.compact_requested = false;
        if let Some(kind) = self.failpoints.check("compact") {
            inner.counters.write_errors += 1;
            self.done.notify_all();
            return Err(kind.to_error());
        }
        inner.compacting = true;
        let started = Instant::now();

        // Oldest-written first: offset order is append order, which makes
        // budget eviction FIFO over surviving entries.
        let mut live: Vec<(u64, IndexEntry)> = inner.index.iter().map(|(&k, &e)| (k, e)).collect();
        live.sort_by_key(|(_, e)| e.offset);

        // If live data alone busts ¾ of the budget, evict the oldest until
        // it fits. The ¼ hysteresis guarantees real headroom after the
        // rewrite so back-to-back puts cannot re-trigger immediately.
        let mut evicted = 0u64;
        if self.max_bytes > 0 {
            let budget = self.max_bytes - self.max_bytes / 4;
            let mut total = MAGIC.len() as u64
                + live
                    .iter()
                    .map(|(_, e)| u64::from(e.record_len))
                    .sum::<u64>();
            let mut keep_from = 0;
            while total > budget && keep_from < live.len() {
                total -= u64::from(live[keep_from].1.record_len);
                keep_from += 1;
                evicted += 1;
            }
            live.drain(..keep_from);
        }
        let snapshot_end = inner.file_bytes;
        drop(inner);

        let result = self.copy_and_swap(live, evicted, snapshot_end, started);
        if result.is_err() {
            // Release the slot so stalled puts, quiesce, and queued
            // synchronous compactions move on; the scratch file (if any)
            // stays behind for the next open to reap.
            let mut inner = self.lock();
            inner.counters.write_errors += 1;
            inner.compacting = false;
            self.done.notify_all();
        }
        result
    }

    /// The body of a pass after the snapshot: bulk copy (unlocked), delta
    /// append + atomic swap (locked). The caller owns the `compacting`
    /// flag on the error path; the success path clears it here, under the
    /// same lock that publishes the new log.
    fn copy_and_swap(
        &self,
        live: Vec<(u64, IndexEntry)>,
        evicted: u64,
        snapshot_end: u64,
        started: Instant,
    ) -> io::Result<()> {
        // Copy survivors into the scratch file through a separate read
        // handle: the shared cursor stays free for concurrent gets/puts.
        let tmp_path = self.dir.join(TMP_FILE);
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&MAGIC)?;
        let mut src = File::open(self.dir.join(LOG_FILE))?;
        let mut new_offset = MAGIC.len() as u64;
        let mut new_index: HashMap<u64, IndexEntry> = HashMap::with_capacity(live.len());
        let mut buf = Vec::new();
        for (key, entry) in &live {
            buf.resize(entry.record_len as usize, 0);
            src.seek(SeekFrom::Start(entry.offset))?;
            src.read_exact(&mut buf)?;
            tmp.write_all(&buf)?;
            new_index.insert(
                *key,
                IndexEntry {
                    offset: new_offset,
                    ..*entry
                },
            );
            new_offset += u64::from(entry.record_len);
        }
        drop(src);

        // Final phase, locked: records appended while the copy ran sit at
        // offsets past the snapshot end — replay them into the scratch
        // file so the swap loses nothing. (A delta record superseding a
        // copied survivor leaves the survivor as dead bytes in the new
        // log; the next pass reclaims it.)
        let mut inner = self.lock();
        let mut delta: Vec<(u64, IndexEntry)> = inner
            .index
            .iter()
            .filter(|(_, e)| e.offset >= snapshot_end)
            .map(|(&k, &e)| (k, e))
            .collect();
        delta.sort_by_key(|(_, e)| e.offset);
        for (key, entry) in &delta {
            buf.resize(entry.record_len as usize, 0);
            inner.file.seek(SeekFrom::Start(entry.offset))?;
            inner.file.read_exact(&mut buf)?;
            tmp.write_all(&buf)?;
            new_index.insert(
                *key,
                IndexEntry {
                    offset: new_offset,
                    ..*entry
                },
            );
            new_offset += u64::from(entry.record_len);
        }

        // write → fsync → rename → fsync(dir): after any crash, the path
        // names either the complete old log or the complete new one.
        if let Some(kind) = self.failpoints.check("fsync") {
            // The scratch file stays behind; the next open removes it.
            return Err(kind.to_error());
        }
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&tmp_path, self.dir.join(LOG_FILE))?;
        #[cfg(unix)]
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.dir.join(LOG_FILE))?;
        file.seek(SeekFrom::End(0))?;
        inner.file = file;
        inner.live_bytes = new_index.values().map(|e| u64::from(e.record_len)).sum();
        inner.index = new_index;
        inner.file_bytes = new_offset;
        inner.counters.evicted += evicted;
        inner.counters.compactions += 1;
        inner.counters.last_compaction_us =
            started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        inner.compacting = false;
        self.done.notify_all();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("optimist-store-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_supersede() {
        let dir = scratch("basic");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(store.is_empty());
        store.put(1, 10, b"one").unwrap();
        store.put(2, 10, b"two").unwrap();
        assert_eq!(store.get(1), Some((10, b"one".to_vec())));
        assert_eq!(store.get(3), None);
        store.put(1, 11, b"one again").unwrap();
        assert_eq!(store.get(1), Some((11, b"one again".to_vec())));
        assert_eq!(store.len(), 2);
        let snap = store.snapshot();
        assert_eq!(snap.superseded, 1);
        assert!(snap.dead_bytes > 0, "superseded record must count as dead");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_pages_cover_the_key_space_exactly_once() {
        let dir = scratch("scan");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        // Keys deliberately out of insertion order, including the extremes.
        let mut expected = vec![u64::MAX, 0, 42, 7, 1 << 63, 99, 3];
        for &k in &expected {
            store.put(k, k ^ 1, b"v").unwrap();
        }
        expected.sort_unstable();

        let mut walked = Vec::new();
        let mut cursor = None;
        loop {
            let (page, total) = store.scan_keys(cursor, 3);
            assert_eq!(total, expected.len());
            assert!(page.len() <= 3);
            if page.is_empty() {
                break;
            }
            assert!(page.windows(2).all(|w| w[0] < w[1]), "pages are sorted");
            cursor = page.last().copied();
            walked.extend(page);
        }
        assert_eq!(
            walked, expected,
            "pagination must cover every live key once"
        );

        // Cursor past the top of the space terminates cleanly.
        assert_eq!(store.scan_keys(Some(u64::MAX), 3).0, Vec::<u64>::new());
        // A superseding put does not duplicate the key.
        store.put(42, 5, b"again").unwrap();
        assert_eq!(store.scan_keys(None, 100).0, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_recovers_the_index() {
        let dir = scratch("reopen");
        {
            let store = Store::open(&dir, StoreOptions::default()).unwrap();
            for k in 0..20u64 {
                store
                    .put(k, k * 7, format!("value-{k}").as_bytes())
                    .unwrap();
            }
        }
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.len(), 20);
        assert_eq!(store.snapshot().recovered_entries, 20);
        for k in 0..20u64 {
            assert_eq!(
                store.get(k),
                Some((k * 7, format!("value-{k}").into_bytes()))
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_reclaims_dead_bytes_and_preserves_entries() {
        let dir = scratch("compact");
        let store = Store::open(&dir, StoreOptions { max_bytes: 0 }).unwrap();
        for round in 0..5 {
            for k in 0..8u64 {
                store
                    .put(k, k, format!("round-{round}-key-{k}").as_bytes())
                    .unwrap();
            }
        }
        let before = store.snapshot();
        assert!(before.dead_bytes > 0);
        store.compact().unwrap();
        let after = store.snapshot();
        assert_eq!(after.dead_bytes, 0);
        assert_eq!(after.entries, 8);
        assert_eq!(after.compactions, 1);
        assert!(after.file_bytes < before.file_bytes);
        for k in 0..8u64 {
            assert_eq!(
                store.get(k),
                Some((k, format!("round-4-key-{k}").into_bytes()))
            );
        }
        // And the compacted log reopens cleanly.
        drop(store);
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.len(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_budget_triggers_compaction_and_fifo_eviction() {
        let dir = scratch("budget");
        let store = Store::open(&dir, StoreOptions { max_bytes: 4096 }).unwrap();
        let payload = vec![0xabu8; 256];
        for k in 0..64u64 {
            store.put(k, 0, &payload).unwrap();
        }
        // Compaction is asynchronous: wait for every signaled pass before
        // asserting on sizes.
        store.quiesce();
        let snap = store.snapshot();
        assert!(snap.compactions >= 1, "budget must have tripped compaction");
        assert!(snap.evicted > 0, "live data exceeds budget: must evict");
        assert!(
            snap.file_bytes <= 4096,
            "post-compaction log over budget: {}",
            snap.file_bytes
        );
        // FIFO: the newest keys survive, the oldest are gone.
        assert!(store.get(63).is_some());
        assert!(store.get(0).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn puts_stall_only_past_the_hard_cap_and_survive_a_broken_compactor() {
        let dir = scratch("stall");
        let store = Store::open(&dir, StoreOptions { max_bytes: 1024 }).unwrap();
        // Every compaction pass refuses: the log can only grow. Puts past
        // 2× the budget must stall (counted), then proceed once the failed
        // pass signals — never wedge.
        store.failpoints().arm("compact", FailKind::Fail);
        let payload = vec![0x5au8; 256];
        for k in 0..32u64 {
            store.put(k, 0, &payload).unwrap();
        }
        let snap = store.snapshot();
        assert!(
            snap.compaction_stalls >= 1,
            "puts past the hard cap must count a stall"
        );
        assert!(snap.write_errors >= 1, "failed passes are counted");
        assert!(
            snap.file_bytes > 2048,
            "the broken compactor cannot shrink the log"
        );
        // Heal the disk: a synchronous pass reclaims everything over
        // budget and the store is healthy again.
        store.failpoints().clear_all();
        store.compact().unwrap();
        store.quiesce();
        let snap = store.snapshot();
        assert!(
            snap.file_bytes <= 1024,
            "healed log still over budget: {}",
            snap.file_bytes
        );
        assert!(store.get(31).is_some(), "newest key must survive eviction");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_compaction_keeps_concurrent_readers_consistent() {
        let dir = scratch("concurrent");
        let store = Arc::new(Store::open(&dir, StoreOptions { max_bytes: 8192 }).unwrap());
        let payload = vec![0x11u8; 200];
        // Writer: hammer puts across a fixed key set so compaction passes
        // overlap live reads and superseding writes.
        let reader = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for round in 0..200u64 {
                    let key = round % 16;
                    if let Some((_, bytes)) = store.get(key) {
                        assert_eq!(bytes.len(), 200, "torn read under compaction");
                    }
                }
            })
        };
        for round in 0..200u64 {
            store.put(round % 16, round, &payload).unwrap();
        }
        reader.join().unwrap();
        store.quiesce();
        let snap = store.snapshot();
        assert_eq!(snap.entries, 16);
        for key in 0..16u64 {
            let (_, bytes) = store.get(key).expect("live key lost by compaction");
            assert_eq!(bytes, payload);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_schema_records_are_ignored_not_misread() {
        let dir = scratch("stale");
        {
            let store = Store::open(&dir, StoreOptions::default()).unwrap();
            store.put(1, 5, b"current").unwrap();
        }
        // Append a well-checksummed record from a future schema revision.
        let log = dir.join(LOG_FILE);
        let mut bytes = std::fs::read(&log).unwrap();
        bytes.extend_from_slice(&format::encode_record(2, SCHEMA_VERSION + 1, 5, b"future"));
        std::fs::write(&log, &bytes).unwrap();

        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.get(1), Some((5, b"current".to_vec())));
        assert_eq!(store.get(2), None, "stale-schema record must not load");
        assert_eq!(store.snapshot().dropped_stale, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_file_is_recycled_not_trusted() {
        let dir = scratch("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG_FILE), b"this is not a store log at all").unwrap();
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.snapshot().dropped_stale, 1);
        // The recycled file works normally afterwards.
        store.put(9, 9, b"fresh").unwrap();
        drop(store);
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.get(9), Some((9, b"fresh".to_vec())));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
