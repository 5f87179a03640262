//! Crash-recovery acceptance tests: damage a real log file the way a
//! crash or bit rot would, reopen, and prove the valid prefix survives,
//! the damaged entries are dropped, and the drop is counted.
//!
//! Truncation and byte flips are fuzzed over every offset (and flip
//! value) with the vendored proptest shim; the debug build runs a reduced
//! case count, `cargo test --release -p optimist-store --test recovery`
//! the full one.

use optimist_store::format::{self, ScannedRecord, BODY_PREFIX_LEN, MAGIC, RECORD_HEADER_LEN};
use optimist_store::{Store, StoreOptions};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "optimist-store-recovery-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join("store.log")
}

/// Byte offsets of every record in a log, in file order.
fn record_offsets(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut offsets = Vec::new();
    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        match format::scan_record(bytes, pos) {
            ScannedRecord::Valid { record_len, .. } | ScannedRecord::Corrupt { record_len } => {
                offsets.push((pos, record_len));
                pos += record_len;
            }
            ScannedRecord::Torn => break,
        }
    }
    offsets
}

fn populated(dir: &PathBuf, n: u64) -> Vec<u8> {
    {
        let store = Store::open(dir, StoreOptions::default()).unwrap();
        for k in 0..n {
            let (fingerprint, payload) = entry(k);
            store.put(k, fingerprint, &payload).unwrap();
        }
    }
    std::fs::read(log_path(dir)).unwrap()
}

/// Fuzz cases per property: the full count under `--release`, a smaller
/// budget in debug builds. Each case pays one `fdatasync` (closing the
/// reopened store), which dominates its cost.
const CASES: u32 = if cfg!(debug_assertions) { 16 } else { 128 };

/// Keys in the fuzzed log.
const KEYS: u64 = 10;

fn entry(k: u64) -> (u64, Vec<u8>) {
    (100 + k, format!("payload-for-key-{k}").into_bytes())
}

/// The undamaged log every damage case starts from.
struct Pristine {
    bytes: Vec<u8>,
    /// `(offset, length)` of record `k` for key `k`.
    records: Vec<(usize, usize)>,
}

fn pristine() -> &'static Pristine {
    static LOG: OnceLock<Pristine> = OnceLock::new();
    LOG.get_or_init(|| {
        let dir = scratch("pristine");
        let bytes = populated(&dir, KEYS);
        std::fs::remove_dir_all(&dir).unwrap();
        let records = record_offsets(&bytes);
        assert_eq!(records.len(), KEYS as usize);
        Pristine { bytes, records }
    })
}

/// Write `damaged` as the log of a fresh store, reopen it, and check the
/// recovery contract against the pristine log whose first damaged byte
/// is at `first_bad`: opening never panics or fails, every entry served
/// carries exactly the payload that was put, every record lying wholly
/// before `first_bad` survives, and the store takes new writes.
fn reopen_damaged(name: &str, damaged: &[u8], first_bad: usize) {
    let dir = scratch(name);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(log_path(&dir), damaged).unwrap();
    let store =
        Store::open(&dir, StoreOptions::default()).expect("damage is recovered, not raised");
    // Every live key is one of the `KEYS` and carries its own payload:
    // no key was invented or altered.
    let present = (0..KEYS)
        .filter(|&k| store.get(k) == Some(entry(k)))
        .count();
    assert_eq!(store.len(), present, "recovery invented or altered a key");
    for (k, &(off, len)) in (0..KEYS).zip(&pristine().records) {
        if off + len <= first_bad {
            assert_eq!(
                store.get(k),
                Some(entry(k)),
                "key {k} lay before the damage"
            );
        }
    }
    store.put(99, 7, b"after recovery").unwrap();
    assert_eq!(store.get(99), Some((7, b"after recovery".to_vec())));
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// A crash mid-append leaves the log cut at an arbitrary byte.
    #[test]
    fn a_log_cut_anywhere_keeps_its_whole_records(cut in any::<usize>()) {
        let bytes = &pristine().bytes;
        let cut = cut % (bytes.len() + 1);
        reopen_damaged("cut", &bytes[..cut], cut);
    }

    /// Bit rot: one byte anywhere in the log takes another value.
    #[test]
    fn a_byte_flipped_anywhere_spares_the_records_before_it(
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut damaged = pristine().bytes.clone();
        let at = at % damaged.len();
        damaged[at] ^= flip;
        reopen_damaged("flip", &damaged, at);
    }
}

#[test]
fn torn_tail_is_counted_and_truncated() {
    let Pristine { bytes, records } = pristine();
    let dir = scratch("torn");
    std::fs::create_dir_all(&dir).unwrap();
    // Crash mid-append: cut the file inside the last record's payload.
    let (last_off, last_len) = records[9];
    std::fs::write(log_path(&dir), &bytes[..last_off + last_len / 2]).unwrap();
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let snap = store.snapshot();
    assert_eq!(snap.entries, 9, "every record before the tear survives");
    assert_eq!(snap.dropped_torn, 1, "the tear is counted");
    assert_eq!(snap.dropped_corrupt, 0);
    // The truncation restored a clean append boundary: new writes land
    // after the survivors and a further reopen sees all of them.
    store.put(99, 7, b"after recovery").unwrap();
    drop(store);
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(store.len(), 10);
    assert_eq!(store.get(99), Some((7, b"after recovery".to_vec())));
    assert_eq!(store.snapshot().dropped_torn, 0, "no tear the second time");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flipped_payload_byte_drops_only_that_record() {
    let Pristine { bytes, records } = pristine();
    let dir = scratch("flip-one");
    std::fs::create_dir_all(&dir).unwrap();
    // Bit rot in the middle of the log: flip one payload byte of record 4.
    let mut bytes = bytes.clone();
    bytes[records[4].0 + RECORD_HEADER_LEN + BODY_PREFIX_LEN] ^= 0x01;
    std::fs::write(log_path(&dir), &bytes).unwrap();
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let snap = store.snapshot();
    assert_eq!(snap.dropped_corrupt, 1, "the corrupt record is counted");
    assert_eq!(snap.dropped_torn, 0);
    assert_eq!(store.get(4), None, "corrupt entry must not be served");
    // Records on BOTH sides of the corruption survive — checksummed
    // framing realigns the scan after the bad record.
    for k in (0..KEYS).filter(|&k| k != 4) {
        assert_eq!(store.get(k), Some(entry(k)), "key {k} should have survived");
    }
    // The dead bytes are reclaimed by the next compaction.
    store.compact().unwrap();
    assert_eq!(store.snapshot().dead_bytes, 0);
    assert_eq!(store.len(), 9);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn header_only_and_empty_logs_open_clean() {
    let dir = scratch("empty");
    {
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(store.is_empty());
    }
    // Header-only file (created above, nothing written): reopens clean.
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let snap = store.snapshot();
    assert_eq!(snap.entries, 0);
    assert_eq!(
        snap.dropped_torn + snap.dropped_corrupt + snap.dropped_stale,
        0
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_compaction_scratch_file_is_removed_at_open() {
    let dir = scratch("staletmp");
    populated(&dir, 5);
    // Crash between the compaction's tmp write and the atomic rename: a
    // stale scratch file sits next to a perfectly good log.
    let tmp = dir.join("store.log.tmp");
    std::fs::write(&tmp, b"half-written compaction scratch").unwrap();

    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    assert!(!tmp.exists(), "open must remove the stale scratch file");
    let snap = store.snapshot();
    assert_eq!(snap.removed_tmp, 1, "the removal is counted");
    assert_eq!(snap.entries, 5, "the real log is untouched");
    for k in 0..5u64 {
        assert_eq!(
            store.get(k),
            Some((100 + k, format!("payload-for-key-{k}").into_bytes()))
        );
    }
    // A later compaction reuses the scratch path without tripping over
    // history.
    store.compact().unwrap();
    drop(store);
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(store.len(), 5);
    assert_eq!(store.snapshot().removed_tmp, 0, "nothing stale this time");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncation_inside_the_header_magic_recycles_the_file() {
    let dir = scratch("magic");
    let bytes = populated(&dir, 3);
    // Crash so early that even the magic is incomplete.
    std::fs::write(log_path(&dir), &bytes[..4]).unwrap();
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    assert!(store.is_empty());
    assert_eq!(store.snapshot().dropped_stale, 1);
    store.put(1, 1, b"reborn").unwrap();
    drop(store);
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(store.get(1), Some((1, b"reborn".to_vec())));
    std::fs::remove_dir_all(&dir).unwrap();
}
