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
//! The [`Store::put`] that grows the log past [`StoreOptions::max_bytes`]
//! runs one compaction pass before it returns, under the store lock: live
//! records are rewritten into a fresh file which atomically **renames
//! over** the old one (write → fsync → rename → fsync directory), so a
//! crash at any point leaves either the old complete log or the new
//! complete log. If live data alone exceeds ¾ of the budget, the
//! oldest-written entries are evicted until it fits — the store is a
//! bounded cache, not an archive.
//!
//! When a put returns, the log is therefore within its budget, unless
//! that pass failed. A failed pass is counted in
//! [`StoreSnapshot::write_errors`] and never fails the put, whose record
//! has already landed. Puts retry once the log has grown by another
//! quarter of the budget (the same ¼ as the eviction headroom), so a pass
//! that keeps failing copies the live set once per quarter budget of
//! appends, not once per put; a successful pass clears the backoff. With
//! fsync failing at the 64 MiB default and 8 KiB records, 100 puts over
//! budget averaged 115–130 ms each when every one retried, and
//! 0.43–0.59 ms with the backoff (DESIGN §9.3).
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
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Name of the log file inside the store directory.
const LOG_FILE: &str = "store.log";
/// Name of the compaction scratch file (atomically renamed over the log).
const TMP_FILE: &str = "store.log.tmp";

/// Tuning knobs for [`Store::open`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Compaction trigger: when a put grows the log file past this many
    /// bytes, that put rewrites the live records (evicting the oldest if
    /// live data alone exceeds ¾ of the budget). `0` means unbounded —
    /// never compact on size.
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
    /// A put whose append grows the log past this runs a compaction pass:
    /// the budget, or, after a failed pass, the log's size then plus a
    /// quarter of the budget.
    compact_above: u64,
    counters: Counters,
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

/// The persistent content-addressed store. All methods take `&self`; the
/// index and log handle live behind one mutex (this is the tier *behind*
/// a sharded in-memory cache — by the time a request gets here it has
/// already missed the fast path). Size-triggered compaction runs inside
/// the [`Store::put`] that crosses the budget, under the same mutex.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    max_bytes: u64,
    inner: Mutex<Inner>,
    /// Injected faults for this store's I/O sites (see [`mod@failpoint`]).
    /// Armed from `OPTIMIST_FAILPOINTS` at open; re-armable at runtime.
    failpoints: FailpointRegistry,
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

        Ok(Store {
            dir,
            max_bytes: options.max_bytes,
            inner: Mutex::new(Inner {
                file,
                index,
                file_bytes: bytes.len() as u64,
                live_bytes,
                compact_above: options.max_bytes,
                counters,
            }),
            failpoints: FailpointRegistry::from_env(),
        })
    }

    /// This store's fault-injection registry (see [`mod@failpoint`]).
    /// Production stores carry an empty registry unless
    /// `OPTIMIST_FAILPOINTS` armed one at open.
    pub fn failpoints(&self) -> &FailpointRegistry {
        &self.failpoints
    }

    /// The directory this store lives in.
    pub fn path(&self) -> &Path {
        &self.dir
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

    /// Append `payload` under `key`, superseding any previous record. A
    /// put that grows the log past [`StoreOptions::max_bytes`] runs a
    /// compaction pass before it returns, so the log is back within its
    /// budget unless that pass failed. A failed pass is counted in
    /// [`StoreSnapshot::write_errors`] and does not fail the put: the
    /// record has already landed. Puts try again once the log has grown
    /// by more than another quarter of the budget, so a failing disk costs
    /// one copy of the live set per quarter budget appended, not one per
    /// put; a successful pass, here or in [`Store::compact`], clears that
    /// backoff.
    ///
    /// # Errors
    ///
    /// Propagates append failures. A failed append is rolled back before
    /// returning: the file is truncated to its pre-write length, so a
    /// half-written record never lingers for the next append to bury
    /// mid-log (where the open-time scan would drop every record after
    /// it, not just the torn one). The in-memory index is only updated
    /// after the bytes land, so an error leaves the store exactly as it
    /// was.
    pub fn put(&self, key: u64, fingerprint: u64, payload: &[u8]) -> io::Result<()> {
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

        if self.max_bytes > 0 && inner.file_bytes > inner.compact_above {
            // Already counted; the log keeps growing until a pass succeeds.
            let _ = self.compact_locked(&mut inner);
        }
        Ok(())
    }

    /// Rewrite live records into a fresh log, dropping dead bytes (and
    /// evicting the oldest entries while live data exceeds ¾ of the
    /// budget), then atomically rename it over the old one. [`Store::put`]
    /// runs this itself when it crosses the size budget; it is public for
    /// tests and maintenance.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, each counted as
    /// [`StoreSnapshot::write_errors`]; on failure the original log and
    /// index are untouched.
    pub fn compact(&self) -> io::Result<()> {
        self.compact_locked(&mut self.lock())
    }

    /// Flush buffered appends to stable storage (`fdatasync`). Called on
    /// daemon shutdown; recovery handles anything lost before a crash.
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.lock();
        if let Some(kind) = self.failpoints.check("fsync") {
            inner.counters.write_errors += 1;
            return Err(kind.to_error());
        }
        inner.file.sync_data()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time view of sizes and recovery/compaction history.
    pub fn snapshot(&self) -> StoreSnapshot {
        let inner = self.lock();
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
            last_compaction_us: inner.counters.last_compaction_us,
            read_errors: inner.counters.read_errors,
            write_errors: inner.counters.write_errors,
            removed_tmp: inner.counters.removed_tmp,
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best-effort durability on clean shutdown; recovery covers the rest.
        if let Ok(inner) = self.inner.get_mut() {
            let _ = inner.file.sync_data();
        }
    }
}

impl Store {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("store mutex poisoned")
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

    /// One pass, counted if it fails; a failure also puts the next
    /// size-triggered pass off by a quarter of the budget.
    fn compact_locked(&self, inner: &mut Inner) -> io::Result<()> {
        let result = self.rewrite(inner);
        inner.compact_above = self.max_bytes;
        if result.is_err() {
            inner.counters.write_errors += 1;
            inner.compact_above = inner.file_bytes + self.max_bytes / 4;
        }
        result
    }

    /// One compaction pass under the held lock: copy the survivors into
    /// the scratch file, make it durable, rename it over the log and keep
    /// its handle as the log. Everything that can fail runs before the
    /// rename, so a failure leaves the old log, its handle and the index
    /// exactly as they were (the scratch file stays for the next open to
    /// remove).
    fn rewrite(&self, inner: &mut Inner) -> io::Result<()> {
        if let Some(kind) = self.failpoints.check("compact") {
            return Err(kind.to_error());
        }
        let started = Instant::now();

        // Oldest-written first: offset order is append order, which makes
        // budget eviction FIFO over surviving entries.
        let mut live: Vec<(u64, IndexEntry)> = inner.index.iter().map(|(&k, &e)| (k, e)).collect();
        live.sort_by_key(|(_, e)| e.offset);

        // If live data alone busts ¾ of the budget, evict the oldest until
        // it fits. The ¼ hysteresis guarantees real headroom after the
        // rewrite so back-to-back puts cannot re-trigger immediately.
        let mut evicted = 0;
        if self.max_bytes > 0 {
            let budget = self.max_bytes - self.max_bytes / 4;
            let mut total = MAGIC.len() as u64 + inner.live_bytes;
            while total > budget && evicted < live.len() {
                total -= u64::from(live[evicted].1.record_len);
                evicted += 1;
            }
            live.drain(..evicted);
        }

        let tmp_path = self.dir.join(TMP_FILE);
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&MAGIC)?;
        let mut index = HashMap::with_capacity(live.len());
        let mut offset = MAGIC.len() as u64;
        let mut buf = Vec::new();
        for (key, entry) in live {
            buf.resize(entry.record_len as usize, 0);
            inner.file.seek(SeekFrom::Start(entry.offset))?;
            inner.file.read_exact(&mut buf)?;
            tmp.write_all(&buf)?;
            index.insert(key, IndexEntry { offset, ..entry });
            offset += u64::from(entry.record_len);
        }

        // write → fsync → rename → fsync(dir): after any crash, the path
        // names either the complete old log or the complete new one.
        if let Some(kind) = self.failpoints.check("fsync") {
            return Err(kind.to_error());
        }
        tmp.sync_all()?;
        std::fs::rename(&tmp_path, self.dir.join(LOG_FILE))?;
        #[cfg(unix)]
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }

        inner.file = tmp;
        inner.index = index;
        inner.live_bytes = offset - MAGIC.len() as u64;
        inner.file_bytes = offset;
        inner.counters.evicted += evicted as u64;
        inner.counters.compactions += 1;
        inner.counters.last_compaction_us =
            started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        // Keys appended to the log that the last pass renamed into place.
        let mut after_last_pass = Vec::new();
        let mut passes = 0;
        for k in 0..64u64 {
            store.put(k, k, &payload).unwrap();
            // The put that crosses the budget compacts before it returns.
            let snap = store.snapshot();
            assert!(
                snap.file_bytes <= 4096,
                "log over budget after put {k}: {}",
                snap.file_bytes
            );
            if snap.compactions > passes {
                passes = snap.compactions;
                after_last_pass.clear();
            } else {
                after_last_pass.push(k);
            }
        }
        let snap = store.snapshot();
        assert!(snap.compactions >= 1, "budget must have tripped compaction");
        assert!(snap.evicted > 0, "live data exceeds budget: must evict");
        // FIFO: the newest keys survive, the oldest are gone.
        assert!(store.get(63).is_some());
        assert!(store.get(0).is_none());

        // Records appended after a pass land in the renamed log, so they
        // survive a restart along with everything the pass kept.
        assert!(!after_last_pass.is_empty(), "no put followed the last pass");
        drop(store);
        let store = Store::open(&dir, StoreOptions { max_bytes: 4096 }).unwrap();
        assert_eq!(store.len(), snap.entries);
        for k in after_last_pass {
            assert_eq!(store.get(k), Some((k, payload.clone())), "key {k} lost");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_pass_never_fails_the_put_and_the_next_put_compacts() {
        let dir = scratch("failed-pass");
        let store = Store::open(&dir, StoreOptions { max_bytes: 1024 }).unwrap();
        // Every compaction pass refuses: each put over budget still lands
        // and returns Ok, its failed pass is counted, and the log grows.
        store.failpoints().arm("compact", FailKind::Fail);
        let payload = vec![0x5au8; 256];
        let mut failed_passes = 0;
        let mut retry_above = 1024;
        let mut last_bytes = store.snapshot().file_bytes;
        for k in 0..32u64 {
            store.put(k, 0, &payload).unwrap();
            let snap = store.snapshot();
            assert!(snap.file_bytes > last_bytes, "the log must grow");
            last_bytes = snap.file_bytes;
            // A pass is retried once the log has grown by more than a
            // quarter of the budget since the last failed one; a 288-byte
            // record is more than 256, so here that is every put over it.
            if snap.file_bytes > retry_above {
                failed_passes += 1;
                retry_above = snap.file_bytes + 1024 / 4;
            }
            assert_eq!(snap.write_errors, failed_passes, "one per retry");
        }
        assert_eq!(store.snapshot().compactions, 0);
        assert_eq!(store.len(), 32);

        // Heal the disk: the next put over budget brings the log back
        // within it, and the newest key survives the eviction.
        store.failpoints().clear_all();
        store.put(32, 0, &payload).unwrap();
        let snap = store.snapshot();
        assert!(
            snap.file_bytes <= 1024,
            "healed log still over budget: {}",
            snap.file_bytes
        );
        assert_eq!(snap.compactions, 1);
        assert_eq!(snap.write_errors, failed_passes);
        assert_eq!(store.get(32), Some((0, payload)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_passes_back_off_a_quarter_of_the_budget() {
        let dir = scratch("backoff");
        let max_bytes = 64 << 10;
        let store = Store::open(&dir, StoreOptions { max_bytes }).unwrap();
        // A quarter of this budget holds 56 of these 288-byte records. The
        // pass fails at its fsync, after copying the live set.
        store.failpoints().arm("fsync", FailKind::Fail);
        let payload = vec![0xc3u8; 256];
        let mut key = 0u64;
        while store.snapshot().file_bytes <= 4 * max_bytes {
            store.put(key, 0, &payload).unwrap();
            key += 1;
        }
        let snap = store.snapshot();
        assert_eq!(snap.compactions, 0);
        // One failed pass on crossing the budget, then one per quarter
        // budget appended: 12 over these 192 KiB, where every one of the
        // 684 puts that ended over budget used to retry.
        let quarters = (snap.file_bytes - max_bytes).div_ceil(max_bytes / 4);
        assert!(
            (2..=quarters).contains(&snap.write_errors),
            "{} failed passes over {quarters} quarters",
            snap.write_errors
        );

        // Heal the disk: puts keep appending until the log has grown
        // another quarter of the budget past the last failed pass, and the
        // put that crosses it brings the log back within budget.
        store.failpoints().clear_all();
        let start = store.snapshot().file_bytes;
        loop {
            store.put(key, 0, &payload).unwrap();
            let snap = store.snapshot();
            if snap.compactions > 0 {
                assert!(snap.file_bytes <= max_bytes, "{}", snap.file_bytes);
                break;
            }
            assert!(snap.file_bytes - start <= max_bytes / 4, "no retry");
            key += 1;
        }
        assert_eq!(store.get(key), Some((0, payload)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_keeps_concurrent_readers_consistent() {
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
        let snap = store.snapshot();
        assert!(snap.compactions >= 1);
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
